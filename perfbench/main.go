// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed number of seconds and prints, as the last line of
// standard output, one JSON object with the run's correctness verdict,
// the ops it attempted and failed, and its metrics:
//
//	perfbench --workload events --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (set-up time,
// throughput per wall and per CPU second, median and tail op latency,
// peak RSS). With --trace 1 the run records spans around the calls into
// each layer and prints the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workload is one benchmark workload: set up a system, run timed ops on
// it, check its outputs, and (traced) contribute per-layer metrics.
type workload struct {
	name string
	// windowed takes op latency percentiles per window (then the median
	// over windows) instead of over the whole phase: for workloads whose
	// every window holds about a hundred ops or more.
	windowed bool
	// procs, when not 0, is the GOMAXPROCS the workload runs at; other
	// workloads keep the default, one P per CPU, as the binaries do.
	procs int
	// setup builds the workload's system before the first timed op. It is
	// called setupRuns times; every instance but the last is closed
	// straight away, so setup_s is a median and not one sample.
	setup func(seed int64, tr *tracer) (instance, error)
}

// instance is one set-up system of a workload.
type instance interface {
	// workers is how many goroutines drive ops concurrently.
	workers() int
	// op runs one timed operation on the given worker and returns its
	// latency. It may do untimed work (per-op output checks) after.
	op(worker int) (time.Duration, error)
	// check verifies the workload's outputs after the timed phase.
	check() error
	// layers adds the instance's per-layer metrics (traced runs only).
	layers(m metrics, ops int)
	close()
}

const setupRuns = 9

var workloads = []workload{
	// events and adapt run on one P. On the shared two-vCPU reference box
	// a second P let a stall on either vCPU stall the other's goroutine
	// hand-offs: the events p99 and adapt's throughput spread two to three
	// times wider between identical runs (README). recover and plan keep
	// one P per CPU.
	{name: "events", setup: setupEvents, windowed: true, procs: 1},
	{name: "adapt", setup: setupAdapt, windowed: true, procs: 1},
	{name: "recover", setup: setupRecover, windowed: true},
	{name: "plan", setup: setupPlan},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: events, adapt, recover or plan")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 records per-layer spans and prints per-layer metrics")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload events|adapt|recover|plan, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func (w workload) gomaxprocs() int {
	if w.procs > 0 {
		return w.procs
	}
	return runtime.NumCPU()
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run sets the workload up setupRuns times, drives ops on the last
// instance for d, checks outputs and assembles the result. A traced run
// also measures, by short fixed passes of the other workloads, the
// per-layer metrics this workload does not reach.
func run(w workload, seed int64, d time.Duration, traced bool) (result, error) {
	runtime.GOMAXPROCS(w.gomaxprocs())
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	inst, setups, err := setUp(w, seed, tr)
	if err != nil {
		return result{}, err
	}
	ph := timed(inst, d)
	checkErr := inst.check()
	m := metrics{}
	if traced {
		inst.layers(m, ph.ops)
	}
	inst.close()
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s output check failed: %v\n", w.name, checkErr)
	}
	for _, e := range ph.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s op failed: %v\n", w.name, e)
	}
	res := result{
		Correct:   checkErr == nil && ph.wrong == 0,
		Attempted: ph.ops + ph.failed,
		Failed:    ph.failed,
		Metrics:   m,
	}
	e2e := endToEnd(setups, ph, w.windowed)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	// The traced run's end-to-end figures go to standard error, so the
	// tracing overhead can be read off against an untraced run.
	for _, k := range sortedKeys(e2e) {
		fmt.Fprintf(os.Stderr, "traced %s %s = %.6g %s\n", w.name, k, e2e[k].Value, e2e[k].Unit)
	}
	if err := fillLayers(w.name, seed, tr, m); err != nil {
		return result{}, err
	}
	if err := probeLayers(seed, tr, m); err != nil {
		return result{}, err
	}
	if missing := missingLayers(m); len(missing) > 0 {
		return result{}, fmt.Errorf("traced run produced no value for %v", missing)
	}
	if err := tr.writeJSONL(traceFile); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace-out:", err)
	}
	return res, nil
}

// setUp builds the workload setupRuns times and returns the last
// instance with every set-up time in seconds.
func setUp(w workload, seed int64, tr *tracer) (instance, []float64, error) {
	var setups []float64
	var inst instance
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.setup(seed, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return inst, setups, nil
}

// windows is how many equal windows the timed phase is cut into. Each
// end-to-end figure is the median of its per-window values, so a burst of
// load from elsewhere on a shared machine moves one window, not the
// result.
const windows = 10

// phase is what the timed loop observed.
type phase struct {
	ops, failed int
	wrong       int // failed ops whose output check failed
	wall        time.Duration
	win         []window
	bounds      []time.Duration
	cpuAt       []time.Duration // process CPU time at each bound
	errs        []error         // the first few failures, for standard error
}

// window is what one worker, or all of them merged, saw complete within
// one window: a histogram of op latencies and the first and last
// completion time.
type window struct {
	lat         hist
	first, last time.Duration
}

func (w *window) add(at, lat time.Duration) {
	if w.lat.n == 0 || at < w.first {
		w.first = at
	}
	if at > w.last {
		w.last = at
	}
	w.lat.add(lat)
}

func (w *window) merge(o *window) {
	if o.lat.n == 0 {
		return
	}
	if w.lat.n == 0 || o.first < w.first {
		w.first = o.first
	}
	if o.last > w.last {
		w.last = o.last
	}
	w.lat.merge(&o.lat)
}

// hist counts op latencies in log-linear buckets, so the harness's heap
// stays small and constant however many ops a run completes. Raw samples
// grow the live heap through an events run: the program's garbage
// collections grow rarer from window to window, and the round-trip p99
// falls with them, by a third between the first and the last window.
// Below 2·histSub ns a bucket is 1 ns wide; above, each power of two is cut
// into histSub buckets, so a bucket is under 1/histSub of its values wide.
const (
	histSub     = 128
	histShift   = 7                              // log2(histSub)
	histBuckets = (36 - histShift + 1) * histSub // up to 2^36 ns, about 69 s
)

type hist struct {
	counts [histBuckets]uint32
	n      int
}

func bucketOf(d time.Duration) int {
	ns := max(int64(d), 0)
	if ns < 2*histSub {
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - histShift - 1
	return min(shift*histSub+int(ns>>shift), histBuckets-1)
}

// bucketRange is bucket i's lowest value and its width, in ns.
func bucketRange(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	return float64(int64(i-shift*histSub) << shift), float64(int64(1) << shift)
}

func (h *hist) add(d time.Duration) {
	h.counts[bucketOf(d)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileMS interpolates linearly between order statistics, as quantile
// does on sorted samples, taking the samples in a bucket to sit evenly
// spread across it.
func (h *hist) quantileMS(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	pos := q * float64(h.n-1)
	frac := pos - math.Floor(pos)
	v := h.order(int(math.Floor(pos)))*(1-frac) + h.order(int(math.Ceil(pos)))*frac
	return v / float64(time.Millisecond)
}

// order estimates the k-th smallest sample (from 0), in ns.
func (h *hist) order(k int) float64 {
	seen := 0
	for i, c := range h.counts {
		if k < seen+int(c) {
			lo, width := bucketRange(i)
			return lo + width*(float64(k-seen)+0.5)/float64(c)
		}
		seen += int(c)
	}
	return math.NaN()
}

// timed runs ops back to back on every worker until d has passed. Every
// op is attempted whole; workers only check the clock between ops. The
// process CPU time is sampled at every window bound.
func timed(inst instance, d time.Duration) phase {
	n := inst.workers()
	per := make([]phase, n)
	runtime.GC()
	var ph phase
	start := time.Now()
	cpu0 := cpuTime()
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTimer(d / windows)
		defer t.Stop()
		for i := 1; i < windows; i++ {
			select {
			case <-t.C:
				ph.bounds = append(ph.bounds, time.Since(start))
				ph.cpuAt = append(ph.cpuAt, cpuTime())
				t.Reset(time.Until(start.Add(time.Duration(i+1) * d / windows)))
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &per[w]
			p.win = make([]window, windows)
			for {
				at := time.Since(start)
				if at >= d {
					return
				}
				lat, err := inst.op(w)
				if err != nil {
					p.failed++
					if errors.As(err, new(wrongOutput)) {
						p.wrong++
					}
					if len(p.errs) < 5 {
						p.errs = append(p.errs, err)
					}
					continue
				}
				p.ops++
				at = time.Since(start)
				i := min(int(at*windows/d), windows-1)
				p.win[i].add(at, lat)
			}
		}(w)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	cpuEnd := cpuTime()
	close(stop)
	<-sampled
	ph.bounds = append([]time.Duration{0}, ph.bounds...)
	ph.cpuAt = append([]time.Duration{cpu0}, ph.cpuAt...)
	for len(ph.bounds) < windows {
		// The sampler missed a bound only if the phase ended early.
		ph.bounds = append(ph.bounds, ph.wall)
		ph.cpuAt = append(ph.cpuAt, cpuEnd)
	}
	ph.bounds = append(ph.bounds, ph.wall)
	ph.cpuAt = append(ph.cpuAt, cpuEnd)
	ph.win = make([]window, windows)
	for _, p := range per {
		ph.ops += p.ops
		ph.failed += p.failed
		ph.wrong += p.wrong
		ph.errs = append(ph.errs, p.errs...)
		for i := range p.win {
			ph.win[i].merge(&p.win[i])
		}
	}
	return ph
}

// endToEnd derives the six end-to-end metrics of an untraced run:
// throughput per wall and per CPU second as medians over the windows;
// median and tail latency as medians over the windows when windowed,
// else over the whole phase.
func endToEnd(setups []float64, ph phase, windowed bool) metrics {
	m := metrics{}
	m.set("setup_s", median(setups), "s")
	var perWall, perCPU, p50s, tails []float64
	for i := range ph.win {
		w := &ph.win[i]
		// Throughput is read between the window's first and last
		// completion, so it does not step with whole op counts; CPU per
		// wall second is the window's.
		if w.lat.n >= 2 && w.last > w.first {
			rate := float64(w.lat.n-1) / (w.last - w.first).Seconds()
			busy := (ph.cpuAt[i+1] - ph.cpuAt[i]).Seconds() / (ph.bounds[i+1] - ph.bounds[i]).Seconds()
			perWall = append(perWall, rate)
			perCPU = append(perCPU, rate/math.Max(busy, 1e-9))
		}
		if !windowed || w.lat.n == 0 {
			continue
		}
		p50s = append(p50s, w.lat.quantileMS(0.5))
		tails = append(tails, w.lat.quantileMS(tailPercentile(w.lat.n)/100))
	}
	m.set("ops_per_s", median(perWall), "1/s")
	m.set("ops_per_cpu_s", median(perCPU), "1/s")
	if windowed {
		m.set("op_p50_ms", median(p50s), "ms")
		m.set("op_tail_ms", median(tails), "ms")
		fmt.Fprintf(os.Stderr, "perfbench: %d ops; latency per window of about %d ops, tail p%g\n",
			ph.ops, ph.ops/windows, tailPercentile(ph.ops/windows))
	} else {
		all := new(hist)
		for i := range ph.win {
			all.merge(&ph.win[i].lat)
		}
		p := tailPercentile(all.n)
		m.set("op_p50_ms", all.quantileMS(0.5), "ms")
		m.set("op_tail_ms", all.quantileMS(p/100), "ms")
		fmt.Fprintf(os.Stderr, "perfbench: %d ops; latency over the whole phase, tail p%g\n", ph.ops, p)
	}
	m.set("rss_mb", peakRSSMB(), "MB")
	return m
}

// tailPercentile is p99 when there are at least 1000 samples, else the
// highest whole percentile with at least ten samples beyond it, but never
// below the median (as it would be with 20 samples or fewer).
func tailPercentile(n int) float64 {
	if n >= 1000 {
		return 99
	}
	return math.Max(50, math.Floor(100*(1-10/float64(n))))
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MB (ru_maxrss is KB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func sortedKeys(m metrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// waitFor polls cond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}
