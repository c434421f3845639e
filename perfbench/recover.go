package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dif/internal/analyzer"
	"dif/internal/framework"
	"dif/internal/model"
	"dif/internal/obs"
	"dif/internal/prism"
)

// The recover workload: host-crash recovery in the centralized
// instantiation. Each op gets a fresh world built from the next system of
// a fixed list, generated from recoverModelSeed onwards whatever --seed
// is, so every run recovers the same systems in the same order. The
// slave holding the most components is crashed and declared dead on an
// injected clock; the op is Centralized.Recover until the live placement
// equals the replan. Restart, rejoin, a heartbeat back to Up and the
// goal-state resync follow outside the timed span.
const (
	recoverHosts  = 10
	recoverComps  = 40
	recoverWorlds = 8
	// recoverModelSeed generates the first system; the others follow
	// from the seeds after it. Generated systems of one size differ in
	// how many components the crashed host held and how many moves its
	// recovery takes, so --seed, which seeds each world's fabric, should
	// not pick them.
	recoverModelSeed = 1
)

// recoverRel is the link-reliability range of the recover worlds.
var recoverRel = model.Range{Min: 1.0, Max: 1.0}

type recoverInst struct {
	seed    int64
	systems []recoverSystem
	next    int
	tr      *tracer
	reg     *obs.Registry
}

type recoverSystem struct {
	sys *model.System
	dep model.Deployment
}

// injectedClock is the failure detector's time source; the workload
// advances it explicitly, so no liveness decision waits on real time.
type injectedClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *injectedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *injectedClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

func setupRecover(seed int64, tr *tracer) (instance, error) {
	in := &recoverInst{seed: seed}
	for i := 0; i < recoverWorlds; i++ {
		cfg := model.DefaultGeneratorConfig(recoverHosts, recoverComps)
		fair := cfg.ComponentMemory.Mid() * recoverComps / recoverHosts
		cfg.HostMemory = model.Range{Min: fair * 1.6, Max: fair * 2.4}
		cfg.MemoryHeadroom = 1.15
		cfg.Reliability = recoverRel
		cfg.LinkDensity = 1
		sys, dep, err := model.NewGenerator(cfg, recoverModelSeed+int64(i)).Generate()
		if err != nil {
			return nil, err
		}
		in.systems = append(in.systems, recoverSystem{sys: sys, dep: dep})
	}
	// Warm up with one recovery per world.
	for range in.systems {
		if _, err := in.op(0); err != nil {
			return nil, fmt.Errorf("warm-up recovery: %w", err)
		}
	}
	if tr != nil {
		in.tr = tr
		in.reg = obs.NewRegistry()
	}
	return in, nil
}

func (in *recoverInst) workers() int { return 1 }

// victim is the slave holding the most components (the last such slave
// on ties).
func victim(w *framework.World, d model.Deployment) model.HostID {
	var best model.HostID
	most := -1
	for _, h := range w.SlaveHosts() {
		if n := len(d.ComponentsOn(h)); n >= most {
			best, most = h, n
		}
	}
	return best
}

func (in *recoverInst) op(int) (time.Duration, error) {
	rs := in.systems[in.next%len(in.systems)]
	in.next++
	cfg := framework.WorldConfig{Seed: in.seed + int64(in.next), Monitors: true}
	if in.tr != nil {
		cfg.Obs = in.reg
		cfg.Trace = in.tr.spans()
	}
	w, err := framework.NewWorld(rs.sys.Clone(), rs.dep, cfg)
	if err != nil {
		return 0, err
	}
	defer w.Close()
	c := framework.NewCentralized(w, analyzer.Policy{})

	clk := &injectedClock{t: time.Unix(2_000_000, 0)}
	fd := prism.NewFailureDetector(prism.NewLeasePolicy(2*time.Second, 5*time.Second))
	fd.SetClock(clk.Now)
	w.Deployer.AttachDetector(fd)
	for _, h := range w.SlaveHosts() {
		if err := w.Admins[h].SendHeartbeat(); err != nil {
			return 0, err
		}
	}
	if err := waitFor(5*time.Second, func() bool {
		for _, h := range w.SlaveHosts() {
			if fd.State(h) != prism.HostUp {
				return false
			}
		}
		return true
	}); err != nil {
		return 0, fmt.Errorf("slaves never heartbeat up: %w", err)
	}

	dead := victim(w, c.Deployment)
	lost := w.CrashHost(dead)
	if len(lost) == 0 {
		return 0, fmt.Errorf("victim %s held no components", dead)
	}
	now := clk.Advance(10 * time.Second)
	for _, h := range w.SlaveHosts() {
		if h != dead {
			fd.ObserveAt(h, 0, now)
		}
	}
	fd.EvaluateAt(now)
	if fd.State(dead) != prism.HostDead {
		return 0, fmt.Errorf("victim %s state %v, want dead", dead, fd.State(dead))
	}

	// The timed span: time without service. It starts right after a
	// collection, as adapt's cycles do, so the garbage of building this
	// op's world is not collected inside it.
	runtime.GC()
	start := time.Now()
	rep, err := c.Recover(context.Background(), dead)
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	if err := waitFor(10*time.Second, func() bool { return w.LiveDeployment().Equal(c.Deployment) }); err != nil {
		return 0, wrong(fmt.Errorf("live placement never matched the replan"))
	}
	lat := time.Since(start)
	if in.tr != nil {
		in.tr.phases("recover", rep.Phases)
		in.tr.record("recover.moves", float64(rep.Moves))
	}

	if err := checkPlacement(w, c); err != nil {
		return 0, err
	}
	for _, comp := range lost {
		if _, ok := c.Deployment[comp]; !ok {
			return 0, wrong(fmt.Errorf("lost component %s not restored", comp))
		}
	}
	if err := checkScores(c.Model, c.Deployment, rep.AvailabilityAfter); err != nil {
		return 0, err
	}
	if err := in.rejoin(w, c, fd, dead); err != nil {
		return 0, err
	}
	return lat, nil
}

// rejoin restarts the dead host, folds it back in, heartbeats it to Up
// and waits for the goal-state resync; then the host's live manifest
// must equal its goal.
func (in *recoverInst) rejoin(w *framework.World, c *framework.Centralized, fd *prism.FailureDetector, h model.HostID) error {
	call := in.tr.begin("prism.rejoin")
	sent0 := in.deltasSent(w)
	admin, err := w.RestartHost(h)
	if err != nil {
		return err
	}
	if err := c.Rejoin(h); err != nil {
		return err
	}
	if err := admin.SendHeartbeat(); err != nil {
		return err
	}
	synced := func() bool {
		gen := w.Deployer.GoalGeneration(h)
		return fd.State(h) == prism.HostUp && w.Deployer.GoalAcked(h) == gen && admin.GoalGeneration() == gen
	}
	if err := waitFor(10*time.Second, synced); err != nil {
		return fmt.Errorf("rejoined host %s never resynced (state %v, goal %d, acked %d, agent %d)",
			h, fd.State(h), w.Deployer.GoalGeneration(h), w.Deployer.GoalAcked(h), admin.GoalGeneration())
	}
	call.end()
	in.tr.record("prism.goal_deltas", in.deltasSent(w)-sent0)
	want := append([]string(nil), w.Deployer.GoalManifest(h)...)
	sort.Strings(want)
	var got []string
	for _, id := range w.Archs[h].ComponentIDs() {
		if id != prism.AdminID && id != prism.DeployerID {
			got = append(got, id)
		}
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return wrong(fmt.Errorf("rejoined host %s runs %v, goal is %v", h, got, want))
	}
	return nil
}

// deltasSent reads the master's goal-delta counter (0 when untraced).
func (in *recoverInst) deltasSent(w *framework.World) float64 {
	if in.reg == nil {
		return 0
	}
	v, _ := in.reg.Snapshot().Value(obs.Name("prism_goal_delta_sent_total", "host", string(w.Master)))
	return v
}

func (in *recoverInst) check() error { return nil }

func (in *recoverInst) layers(m metrics, ops int) {
	in.tr.layerMS(m, "framework.restore_ms", "recover.restore")
	in.tr.layerMS(m, "analyzer.recover_ms", "recover.plan")
	in.tr.layerMS(m, "effector.enact_ms", "recover.enact")
	in.tr.layerMS(m, "prism.rejoin_ms", "prism.rejoin")
	if v, ok := in.tr.mean("prism.goal_deltas"); ok {
		m.set("prism.goal_deltas_per_rejoin", v, "count")
	}
	if v, ok := in.tr.mean("recover.moves"); ok {
		m.set("effector.moves_per_op", v, "count")
	}
}

func (in *recoverInst) close() {}
