package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"dif/internal/obs"
)

// tracer is the traced run's recorder. Spans go to an obs.Tracer held in
// memory and written as JSONL when the run ends; every timed layer call
// also lands in a per-layer sample list the per-layer metrics are taken
// from. A nil *tracer records nothing, so untraced runs pay one nil check
// per call site.
type tracer struct {
	ot *obs.Tracer

	mu      sync.Mutex
	samples map[string][]float64 // layer → durations in µs
	spanned map[string]int       // layer → calls kept as spans

	arrMu    sync.Mutex
	arrivals map[handoffKey]time.Time
}

func newTracer() *tracer {
	return &tracer{
		ot:       obs.NewTracer(),
		samples:  make(map[string][]float64),
		spanned:  make(map[string]int),
		arrivals: make(map[handoffKey]time.Time),
	}
}

// spans returns the span tracer (nil when untraced), for wiring into the
// program's own WorldConfig.Trace and for the benchmark's root spans.
func (t *tracer) spans() *obs.Tracer {
	if t == nil {
		return nil
	}
	return t.ot
}

// spanCap bounds how many calls of one layer are kept as spans: the
// events workload makes hundreds of thousands of calls a run, and every
// call still counts in the layer's samples.
const spanCap = 1000

// call is one timed call into a layer (the zero call, from a nil tracer,
// records nothing).
type call struct {
	t     *tracer
	layer string
	span  *obs.Span
	start time.Time
}

// begin starts timing one call of layer.
func (t *tracer) begin(layer string) call {
	if t == nil {
		return call{}
	}
	c := call{t: t, layer: layer}
	t.mu.Lock()
	keep := t.spanned[layer] < spanCap
	if keep {
		t.spanned[layer]++
	}
	t.mu.Unlock()
	if keep {
		c.span = t.ot.Start(layer)
	}
	c.start = time.Now()
	return c
}

// end closes the call's span and records its duration, which it returns.
func (c call) end() time.Duration {
	if c.t == nil {
		return 0
	}
	d := time.Since(c.start)
	c.span.End()
	c.t.observe(c.layer, d)
	return d
}

// observe records one call of a layer that took d.
func (t *tracer) observe(layer string, d time.Duration) {
	t.record(layer, float64(d)/float64(time.Microsecond))
}

// record adds one raw sample (a duration in µs, or a count) to a layer.
func (t *tracer) record(layer string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[layer] = append(t.samples[layer], v)
	t.mu.Unlock()
}

// mean is the mean of a layer's samples (0, false when none).
func (t *tracer) mean(layer string) (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.samples[layer]
	if len(s) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s)), true
}

// medianUS is the median duration of a layer's calls in µs (0, false when
// the layer was never observed).
func (t *tracer) medianUS(layer string) (float64, bool) {
	t.mu.Lock()
	s := t.samples[layer]
	t.mu.Unlock()
	if len(s) == 0 {
		return 0, false
	}
	return median(s), true
}

// layerUS sets metric name to the layer's median in µs.
func (t *tracer) layerUS(m metrics, name, layer string) {
	if v, ok := t.medianUS(layer); ok {
		m.set(name, v, "us")
	}
}

// layerMS sets metric name to the layer's median in ms.
func (t *tracer) layerMS(m metrics, name, layer string) {
	if v, ok := t.medianUS(layer); ok {
		m.set(name, v/1000, "ms")
	}
}

// traceFile is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
const traceFile = ".bench_build/trace.jsonl"

// writeJSONL dumps every recorded span tree, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.ot.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer names every per-layer metric, in BENCHMARK.json order, with
// the workloads whose traced pass can produce it ("probe" marks the
// probes every traced run makes).
var perLayer = []struct {
	name string
	from []string
}{
	{"prism.emit_us", []string{"events"}},
	{"prism.send_us", []string{"events"}},
	{"prism.recv_us", []string{"events"}},
	{"prism.handoff_us", []string{"events"}},
	{"prism.frames_per_op", []string{"events"}},
	{"prism.bytes_per_op", []string{"events"}},
	{"prism.allocs_per_op", []string{"events"}},
	{"prism.encode_ns", []string{"probe"}},
	{"prism.decode_ns", []string{"probe"}},
	{"prism.delivery_tick_us", []string{"events"}},
	{"framework.traffic_us_per_event", []string{"adapt"}},
	{"netsim.sent_per_op", []string{"adapt"}},
	{"netsim.dropped_per_op", []string{"adapt"}},
	{"monitor.monitor_ms", []string{"adapt"}},
	{"analyzer.analyze_ms", []string{"plan"}},
	{"algo.avala_ms", []string{"probe"}},
	{"algo.stochastic_ms", []string{"probe"}},
	{"algo.swap_ms", []string{"probe"}},
	{"algo.genetic_ms", []string{"probe"}},
	{"algo.exact_ms", []string{"probe"}},
	{"objective.quantify_us", []string{"probe"}},
	{"effector.enact_ms", []string{"adapt", "recover"}},
	{"effector.moves_per_op", []string{"adapt", "recover"}},
	{"framework.restore_ms", []string{"recover"}},
	{"analyzer.recover_ms", []string{"recover"}},
	{"prism.rejoin_ms", []string{"recover"}},
	{"prism.goal_deltas_per_rejoin", []string{"recover"}},
}

// fillSeconds bounds the short traced passes that measure the layers the
// requested workload does not reach.
const fillSeconds = 3

// fillLayers runs a short traced pass of each other workload that can
// produce a per-layer metric still missing, in workload order. Figures
// the requested workload produced itself are kept (delivery ticks on
// adapt, analyze and enact on adapt or recover).
func fillLayers(done string, seed int64, tr *tracer, m metrics) error {
	for _, w := range workloads {
		if w.name == done || !producesMissing(w.name, m) {
			continue
		}
		procs := runtime.GOMAXPROCS(w.gomaxprocs())
		inst, err := w.setup(seed, tr)
		if err != nil {
			return fmt.Errorf("%s fill setup: %w", w.name, err)
		}
		ph := timed(inst, fillSeconds*time.Second)
		runtime.GOMAXPROCS(procs)
		checkErr := inst.check()
		fill := metrics{}
		inst.layers(fill, ph.ops)
		inst.close()
		if checkErr != nil {
			return fmt.Errorf("%s fill pass check: %w", w.name, checkErr)
		}
		if ph.failed > 0 {
			return fmt.Errorf("%s fill pass: %d ops failed: %v", w.name, ph.failed, ph.errs)
		}
		for k, v := range fill {
			if _, ok := m[k]; !ok {
				m[k] = v
			}
		}
	}
	return nil
}

func producesMissing(workload string, m metrics) bool {
	for _, l := range perLayer {
		if _, ok := m[l.name]; ok {
			continue
		}
		for _, f := range l.from {
			if f == workload {
				return true
			}
		}
	}
	return false
}

// missingLayers lists the per-layer metrics m lacks.
func missingLayers(m metrics) []string {
	var missing []string
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			missing = append(missing, l.name)
		}
	}
	sort.Strings(missing)
	return missing
}
