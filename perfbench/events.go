package main

import (
	"errors"
	"flag"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dif/internal/cliflags"
	"dif/internal/framework"
	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

// The events workload: the application data plane over real TCP
// loopback. Host "master" is wired as cmd/deployer wires its host and
// host "agent" as cmd/agent does, both with default flags. eventClients
// client components on master each keep one payload-free targeted request
// outstanding to the echo component on agent; an op is one round trip.
const (
	eventsMaster = model.HostID("master")
	eventsAgent  = model.HostID("agent")
	echoID       = "echo"
	echoType     = "perfbench.echo"
	clientType   = "perfbench.client"
	eventClients = 2 // one closed-loop client per core of the reference box
	eventsWarmup = 2000
	replyTimeout = 5 * time.Second
)

// eventsHost is one host's stack, built the way the binaries build it.
type eventsHost struct {
	tcp   *prism.TCPTransport
	timer *timingTransport // nil when untraced
	arch  *prism.Architecture
	admin *prism.AdminComponent
	dep   *prism.DeployerComponent
	reg   *obs.Registry
	stop  chan struct{} // stops the traced delivery-tick pump
	wg    sync.WaitGroup
}

type eventsInst struct {
	master, agent *eventsHost
	echo          *echoComp
	clients       []*clientComp
	tr            *tracer
	mallocs0      uint64 // heap allocations when the traced phase began
}

// echoComp answers every request with a reply targeted at its sender.
type echoComp struct {
	prism.BaseComponent
	tr *tracer

	mu      sync.Mutex
	handled map[string]int // requests answered, by sender
	stray   int            // events that were not requests
}

func newEchoComp() *echoComp {
	return &echoComp{BaseComponent: prism.NewBaseComponent(echoID), handled: map[string]int{}}
}

func (e *echoComp) TypeName() string           { return echoType }
func (e *echoComp) Snapshot() ([]byte, error)  { return nil, nil }
func (e *echoComp) Restore(state []byte) error { return nil }

func (e *echoComp) Handle(ev prism.Event) {
	if e.tr != nil {
		e.tr.handoff(ev)
	}
	if ev.Kind != 0 && ev.Kind != prism.KindApplication {
		return
	}
	if ev.Name != "req" || ev.Target != echoID {
		e.mu.Lock()
		e.stray++
		e.mu.Unlock()
		return
	}
	e.mu.Lock()
	e.handled[ev.Sender]++
	e.mu.Unlock()
	e.Emit(prism.Event{Name: "rep", Target: ev.Sender})
}

// clientComp issues requests and hands replies to its driving goroutine.
type clientComp struct {
	prism.BaseComponent
	tr      *tracer
	replies chan struct{}
	timeout *time.Timer // reused by every round trip of the driving goroutine

	sent       int // requests emitted (driving goroutine only)
	received   atomic.Int64
	unexpected atomic.Int64 // replies with none outstanding, or strays
}

func newClientComp(id string) *clientComp {
	t := time.NewTimer(replyTimeout)
	t.Stop()
	return &clientComp{BaseComponent: prism.NewBaseComponent(id), replies: make(chan struct{}, 1), timeout: t}
}

func (c *clientComp) TypeName() string           { return clientType }
func (c *clientComp) Snapshot() ([]byte, error)  { return nil, nil }
func (c *clientComp) Restore(state []byte) error { return nil }

func (c *clientComp) Handle(ev prism.Event) {
	if c.tr != nil {
		c.tr.handoff(ev)
	}
	if ev.Kind != 0 && ev.Kind != prism.KindApplication {
		return
	}
	if ev.Name != "rep" || ev.Target != c.ID() {
		c.unexpected.Add(1)
		return
	}
	c.received.Add(1)
	select {
	case c.replies <- struct{}{}:
	default:
		// A reply while the one outstanding request was already answered.
		c.unexpected.Add(1)
	}
}

// roundTrip sends one request and waits for its reply.
func (c *clientComp) roundTrip() (time.Duration, error) {
	start := time.Now()
	c.sent++
	emit := c.tr.begin("prism.emit")
	c.Emit(prism.Event{Name: "req", Target: echoID})
	emit.end()
	c.timeout.Reset(replyTimeout)
	select {
	case <-c.replies:
		lat := time.Since(start)
		if !c.timeout.Stop() {
			<-c.timeout.C
		}
		return lat, nil
	case <-c.timeout.C:
		return 0, fmt.Errorf("%s: no reply within %v", c.ID(), replyTimeout)
	}
}

// defaultFlags parses the binaries' shared flags with no arguments.
func defaultFlags() *cliflags.Common {
	fs := flag.NewFlagSet("defaults", flag.ContinueOnError)
	c := cliflags.Register(fs)
	_ = fs.Parse(nil) // no arguments cannot fail to parse
	return c
}

// newEventsHost wires one host like the binaries: TCP transport with the
// flag defaults (coalescing off), observability, a started scaffold, the
// bus, an admin with monitors, delivery guarantees, and delivery ticks
// every -app-retransmit. Admission stays off (-shed defaults to false).
func newEventsHost(h, master model.HostID, common *cliflags.Common, tr *tracer, withDeployer bool) (*eventsHost, error) {
	tcp, err := prism.NewTCPTransport(h, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	eh := &eventsHost{tcp: tcp, reg: obs.NewRegistry(), stop: make(chan struct{})}
	tcp.SetBatching(common.BatchBytes, common.BatchFlush)
	tcp.Instrument(eh.reg)
	var bus prism.Transport = tcp
	if tr != nil {
		eh.timer = newTimingTransport(tcp, tr)
		bus = eh.timer
	}
	eh.arch = prism.NewArchitecture(h, nil)
	eh.arch.SetObservability(eh.reg, obs.NewTracer())
	eh.arch.Scaffold().Start(4)
	if _, err := eh.arch.AddDistributionConnector(framework.BusName, bus); err != nil {
		eh.close()
		return nil, err
	}
	registry := prism.NewFactoryRegistry()
	registry.Register(echoType, func(string) prism.Migratable { return newEchoComp() })
	registry.Register(clientType, func(id string) prism.Migratable { return newClientComp(id) })
	cfg := prism.AdminConfig{
		Deployer: master, Bus: framework.BusName, Registry: registry,
		Retry: common.Retry(), Breaker: common.BreakerConfig(),
		LegacyControl: common.LegacyControl,
	}
	if eh.admin, err = prism.InstallAdmin(eh.arch, cfg); err != nil {
		eh.close()
		return nil, err
	}
	if withDeployer {
		if eh.dep, err = prism.InstallDeployer(eh.arch, cfg); err != nil {
			eh.close()
			return nil, err
		}
	}
	dc := eh.arch.DistributionConnector(framework.BusName)
	dc.SetDeliveryConfig(common.Delivery())
	if common.AppRetransmit > 0 {
		if tr == nil {
			eh.admin.StartDeliveryTicks(common.AppRetransmit)
		} else {
			// The same pump StartDeliveryTicks runs, with each tick timed.
			eh.wg.Add(1)
			go func() {
				defer eh.wg.Done()
				t := time.NewTicker(common.AppRetransmit)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						tick := tr.begin("prism.delivery_tick")
						dc.DeliveryTick()
						tick.end()
					case <-eh.stop:
						return
					}
				}
			}()
		}
	}
	return eh, nil
}

func (eh *eventsHost) close() {
	close(eh.stop)
	eh.wg.Wait()
	if eh.dep != nil {
		eh.dep.Close()
	}
	if eh.admin != nil {
		eh.admin.Close()
	}
	eh.arch.Shutdown()
	eh.tcp.Close()
}

func (eh *eventsHost) place(c prism.Component) error {
	if err := eh.arch.AddComponent(c); err != nil {
		return err
	}
	return eh.arch.Weld(c.ID(), framework.BusName)
}

func setupEvents(_ int64, tr *tracer) (instance, error) {
	// The workload's inputs are fixed: payload-free requests, a fixed
	// client count; the seed has nothing to vary.
	common := defaultFlags()
	master, err := newEventsHost(eventsMaster, eventsMaster, common, tr, true)
	if err != nil {
		return nil, err
	}
	agent, err := newEventsHost(eventsAgent, eventsMaster, common, tr, false)
	if err != nil {
		master.close()
		return nil, err
	}
	in := &eventsInst{master: master, agent: agent, echo: newEchoComp()}
	fail := func(err error) (instance, error) {
		in.close()
		return nil, err
	}
	// As with the binaries, only the agent knows the master's address: it
	// dials, and both directions share that one connection. When both
	// sides could dial, the median round trip read 0.03 ms in some runs
	// and 0.045 ms in others.
	agent.tcp.AddPeer(eventsMaster, master.tcp.Addr())

	goal := map[model.HostID][]prism.GoalComponent{eventsAgent: {{ID: echoID, Type: echoType}}}
	for i := 0; i < eventClients; i++ {
		c := newClientComp(fmt.Sprintf("client%d", i))
		in.clients = append(in.clients, c)
		goal[eventsMaster] = append(goal[eventsMaster], prism.GoalComponent{ID: c.ID(), Type: clientType})
		if err := master.place(c); err != nil {
			return fail(err)
		}
	}
	if err := agent.place(in.echo); err != nil {
		return fail(err)
	}
	master.dep.SeedGoalState(goal)
	if err := agent.tcp.Hello(eventsMaster); err != nil {
		return fail(fmt.Errorf("agent hello: %w", err))
	}
	if err := waitFor(5*time.Second, func() bool { return len(master.tcp.Peers()) == 1 }); err != nil {
		return fail(errors.New("master never registered the agent's connection"))
	}
	if err := agent.admin.AnnounceGoalState(); err != nil {
		return fail(fmt.Errorf("agent announce: %w", err))
	}
	if err := waitFor(5*time.Second, func() bool { return agent.admin.GoalGeneration() == 1 }); err != nil {
		return fail(errors.New("agent never acknowledged its goal state"))
	}
	// Warm up: connections, pools and the delivery layer's tables.
	for _, c := range in.clients {
		for i := 0; i < eventsWarmup; i++ {
			if _, err := c.roundTrip(); err != nil {
				return fail(fmt.Errorf("warm-up: %w", err))
			}
		}
	}
	if tr != nil {
		in.tr = tr
		in.echo.tr = tr
		for _, c := range in.clients {
			c.tr = tr
		}
		master.timer.enable()
		agent.timer.enable()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		in.mallocs0 = ms.Mallocs
	}
	return in, nil
}

func (in *eventsInst) workers() int { return eventClients }

func (in *eventsInst) op(worker int) (time.Duration, error) {
	return in.clients[worker].roundTrip()
}

// check is the exactly-once accounting: once the last replies land, every
// client has exactly as many replies as requests, the echo answered each
// request once, and nothing arrived that nobody asked for.
func (in *eventsInst) check() error {
	settled := func() bool {
		in.echo.mu.Lock()
		defer in.echo.mu.Unlock()
		for _, c := range in.clients {
			if in.echo.handled[c.ID()] != c.sent || int(c.received.Load()) != c.sent {
				return false
			}
		}
		return true
	}
	if err := waitFor(replyTimeout, settled); err != nil {
		in.echo.mu.Lock()
		defer in.echo.mu.Unlock()
		for _, c := range in.clients {
			if in.echo.handled[c.ID()] != c.sent || int(c.received.Load()) != c.sent {
				return fmt.Errorf("%s sent %d requests, echo answered %d, client got %d replies",
					c.ID(), c.sent, in.echo.handled[c.ID()], c.received.Load())
			}
		}
	}
	in.echo.mu.Lock()
	defer in.echo.mu.Unlock()
	if in.echo.stray != 0 {
		return fmt.Errorf("echo received %d events that were not requests", in.echo.stray)
	}
	if len(in.echo.handled) != len(in.clients) {
		return fmt.Errorf("echo answered %d senders, want %d", len(in.echo.handled), len(in.clients))
	}
	for _, c := range in.clients {
		if n := c.unexpected.Load(); n != 0 {
			return fmt.Errorf("%s received %d unexpected or duplicate replies", c.ID(), n)
		}
	}
	return nil
}

func (in *eventsInst) layers(m metrics, ops int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := float64(ops)
	in.tr.layerUS(m, "prism.emit_us", "prism.emit")
	in.tr.layerUS(m, "prism.send_us", "prism.send")
	in.tr.layerUS(m, "prism.recv_us", "prism.recv")
	in.tr.layerUS(m, "prism.handoff_us", "prism.handoff")
	in.tr.layerUS(m, "prism.delivery_tick_us", "prism.delivery_tick")
	frames := in.master.timer.frames() + in.agent.timer.frames()
	bytes := in.master.timer.bytes() + in.agent.timer.bytes()
	m.set("prism.frames_per_op", frames/n, "count")
	m.set("prism.bytes_per_op", bytes/n, "B")
	m.set("prism.allocs_per_op", float64(ms.Mallocs-in.mallocs0)/n, "count")
}

func (in *eventsInst) close() {
	if in.agent != nil {
		in.agent.close()
	}
	if in.master != nil {
		in.master.close()
	}
}
