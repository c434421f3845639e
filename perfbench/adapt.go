package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dif/internal/analyzer"
	"dif/internal/framework"
	"dif/internal/model"
	"dif/internal/netsim"
	"dif/internal/obs"
)

// The adapt workload: the paper's improvement loop, centralized, on a
// generated netsim world. Before each cycle the fabric's link
// reliabilities drift one Fluctuator step, the application runs
// adaptSteps traffic ticks and one round of delivery ticks (as the
// binaries' retransmit pump would), and the fabric drains. An op is one
// Centralized.Cycle.
const (
	adaptHosts  = 6
	adaptComps  = 24
	adaptSteps  = 2
	adaptWarmup = 3
	// adaptSigma is the Fluctuator's random-walk step, with no regime
	// changes.
	adaptSigma = 0.01
)

// adaptModelSeed generates the world every run adapts. --seed drives the
// fabric's loss process and the drift; generated worlds of one size
// differ in retransmission and report traffic by more than the
// benchmark's bounds, and --seed should not move the figures.
const adaptModelSeed = 1

type adaptInst struct {
	w     *framework.World
	c     *framework.Centralized
	fluct *netsim.Fluctuator
	base  map[model.HostPair]netsim.LinkState // each link's state at set-up
	tr    *tracer
	reg   *obs.Registry

	sent0, dropped0 float64
}

// adaptSystem generates the workload's model: memory slack 2 (total host
// memory about twice the components'), default link and interaction
// ranges.
func adaptSystem(seed int64) (*model.System, model.Deployment, error) {
	sys, dep, err := slackSystem(adaptHosts, adaptComps, seed, 2)
	if err != nil {
		return nil, nil, err
	}
	// The master reaches every slave over a loss-free link: with the
	// generated links, report retries made some worlds' monitor phase
	// 50–280 ms and others' 3 ms. The slaves' own links keep the default
	// reliability range and density.
	rng := rand.New(rand.NewSource(seed))
	cfg := model.DefaultGeneratorConfig(adaptHosts, adaptComps)
	master := sys.HostIDs()[0]
	for _, h := range sys.HostIDs()[1:] {
		var p model.Params
		p.Set(model.ParamReliability, 1)
		p.Set(model.ParamBandwidth, cfg.Bandwidth.Draw(rng))
		p.Set(model.ParamDelay, cfg.Delay.Draw(rng))
		if _, err := sys.AddLink(master, h, p); err != nil {
			return nil, nil, err
		}
	}
	return sys, dep, nil
}

// slackSystem generates a hosts × comps system whose host memory is slack
// times a fair share of the component memory.
func slackSystem(hosts, comps int, seed int64, slack float64) (*model.System, model.Deployment, error) {
	cfg := model.DefaultGeneratorConfig(hosts, comps)
	fair := cfg.ComponentMemory.Mid() * float64(comps) / float64(hosts)
	cfg.HostMemory = model.Range{Min: fair * 0.8 * slack, Max: fair * 1.2 * slack}
	cfg.MemoryHeadroom = 1.15
	return model.NewGenerator(cfg, seed).Generate()
}

func setupAdapt(seed int64, tr *tracer) (instance, error) {
	sys, dep, err := adaptSystem(adaptModelSeed)
	if err != nil {
		return nil, err
	}
	in := &adaptInst{}
	cfg := framework.WorldConfig{Seed: seed, Monitors: true}
	if tr != nil {
		in.reg = obs.NewRegistry()
		cfg.Obs = in.reg
		cfg.Trace = tr.spans()
	}
	if in.w, err = framework.NewWorld(sys, dep, cfg); err != nil {
		return nil, err
	}
	in.c = framework.NewCentralized(in.w, analyzer.Policy{})
	in.fluct = netsim.NewFluctuator(in.w.Fabric, seed)
	in.fluct.RegimeProb = 0
	in.fluct.WalkSigma = adaptSigma
	in.base = map[model.HostPair]netsim.LinkState{}
	for _, pair := range sys.LinkKeys() {
		st, _ := in.w.Fabric.Link(pair.A, pair.B)
		in.base[pair] = st
	}
	for i := 0; i < adaptWarmup; i++ {
		if _, err := in.op(0); err != nil {
			in.close()
			return nil, fmt.Errorf("warm-up cycle: %w", err)
		}
	}
	if tr != nil {
		in.tr = tr
		snap := in.reg.Snapshot()
		in.sent0, _ = snap.Value("netsim_sent_total")
		in.dropped0, _ = snap.Value("netsim_dropped_total")
	}
	return in, nil
}

func (in *adaptInst) workers() int { return 1 }

func (in *adaptInst) op(int) (time.Duration, error) {
	// Drift: one Fluctuator step away from the set-up state. Re-anchoring
	// keeps conditions the same all run long; a walk left to accumulate
	// over hundreds of cycles wanders off (σ√n), and the master's links
	// with it.
	for pair, st := range in.base {
		if err := in.w.Fabric.Connect(pair.A, pair.B, st); err != nil {
			return 0, err
		}
	}
	in.fluct.Step()
	traffic := in.tr.begin("framework.traffic")
	n := in.w.StepN(adaptSteps)
	in.w.DeliveryTicks()
	if err := quiesce(in.w.Fabric); err != nil {
		return 0, err
	}
	if d := traffic.end(); n > 0 {
		in.tr.observe("framework.traffic_per_event", d/time.Duration(n))
	}

	// Collect the traffic phase's garbage before the timed cycle. Left to
	// the pacer, the collector's mark phase overlapped the median cycle in
	// some runs and not in others, and the median read 3.1 or 3.8 ms. The
	// collection still counts in ops_per_s and ops_per_cpu_s.
	runtime.GC()
	cycStart := time.Now()
	rep, err := in.c.Cycle(context.Background())
	lat := time.Since(cycStart)
	if err != nil {
		return 0, fmt.Errorf("cycle: %w", err)
	}
	if rep.Enacted {
		in.tr.record("adapt.moves", float64(rep.Moves))
	}
	if in.tr != nil {
		in.tr.phases("adapt", rep.Phases)
	}
	if err := checkPlacement(in.w, in.c); err != nil {
		return 0, err
	}
	if err := checkScores(in.c.Model, in.c.Deployment, rep.AvailabilityAfter); err != nil {
		return 0, err
	}
	return lat, nil
}

// check re-verifies the final placement; every cycle was checked as it
// finished.
func (in *adaptInst) check() error { return in.c.Verify() }

func (in *adaptInst) layers(m metrics, ops int) {
	in.tr.layerUS(m, "framework.traffic_us_per_event", "framework.traffic_per_event")
	in.tr.layerMS(m, "monitor.monitor_ms", "adapt.monitor")
	in.tr.layerMS(m, "analyzer.analyze_ms", "adapt.plan")
	// Enactment figures come from the cycles that migrated; a run with
	// none leaves them to the recover pass.
	in.tr.layerMS(m, "effector.enact_ms", "adapt.enact")
	if v, ok := in.tr.mean("adapt.moves"); ok {
		m.set("effector.moves_per_op", v, "count")
	}
	if ops > 0 {
		snap := in.reg.Snapshot()
		sent, _ := snap.Value("netsim_sent_total")
		dropped, _ := snap.Value("netsim_dropped_total")
		m.set("netsim.sent_per_op", (sent-in.sent0)/float64(ops), "count")
		m.set("netsim.dropped_per_op", (dropped-in.dropped0)/float64(ops), "count")
	}
}

func (in *adaptInst) close() { in.w.Close() }

// quiesce waits until the fabric has delivered everything in flight, so
// a cycle's monitoring sees the whole traffic round before it starts.
func quiesce(f *netsim.Fabric) error {
	idle := 0
	err := waitFor(10*time.Second, func() bool {
		if f.Idle() {
			idle++
		} else {
			idle = 0
		}
		return idle >= 3
	})
	if err != nil {
		return fmt.Errorf("fabric did not drain: %w", err)
	}
	return nil
}
