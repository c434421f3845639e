package main

import (
	"fmt"
	"math"
	"time"

	"dif/internal/framework"
	"dif/internal/model"
	"dif/internal/obs"
)

// The output checks recompute what the program reports from the model's
// raw parameters, or test properties every correct output has. None
// compares against a recorded copy of an earlier output.

// wrongOutput marks an op error as a failed output check rather than a
// failure of the op itself: one makes the whole run incorrect.
type wrongOutput struct{ err error }

func (w wrongOutput) Error() string { return w.err.Error() }
func (w wrongOutput) Unwrap() error { return w.err }

// wrong marks err, if any, as a failed output check.
func wrong(err error) error {
	if err == nil {
		return nil
	}
	return wrongOutput{err}
}

// availability recomputes Σ freq·rel / Σ freq straight from the
// parameter tables: rel is 1 for collocated components, the physical
// link's reliability parameter for linked hosts, 0 otherwise.
func availability(s *model.System, d model.Deployment) float64 {
	var num, den float64
	for pair, link := range s.Interacts {
		freq := link.Params.Get(model.ParamFrequency)
		if freq <= 0 {
			continue
		}
		den += freq
		ha, aok := d[pair.A]
		hb, bok := d[pair.B]
		switch {
		case !aok || !bok:
		case ha == hb:
			num += freq
		default:
			if l, ok := s.Links[model.MakeHostPair(ha, hb)]; ok {
				num += freq * l.Params.Get(model.ParamReliability)
			}
		}
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// memoryFits checks that every component is placed on a known host and
// that no host holds more component memory than it has.
func memoryFits(s *model.System, d model.Deployment) error {
	used := map[model.HostID]float64{}
	for c, comp := range s.Components {
		h, ok := d[c]
		if !ok {
			return fmt.Errorf("component %s is not placed", c)
		}
		if _, ok := s.Hosts[h]; !ok {
			return fmt.Errorf("component %s placed on unknown host %s", c, h)
		}
		used[h] += comp.Params.Get(model.ParamMemory)
	}
	for h, u := range used {
		if capacity := s.Hosts[h].Params.Get(model.ParamMemory); u > capacity+1e-9 {
			return fmt.Errorf("host %s holds %.1f KB of components, has %.1f KB", h, u, capacity)
		}
	}
	return nil
}

// checkScores checks a reported availability against the recomputation
// and the deployment against host memory.
func checkScores(s *model.System, d model.Deployment, reported float64) error {
	if want := availability(s, d); math.Abs(want-reported) > 1e-9 {
		return wrong(fmt.Errorf("reported availability %.12f, recomputed %.12f", reported, want))
	}
	return wrong(memoryFits(s, d))
}

// checkPlacement checks, after a cycle or a recovery, that the live
// placement settles on the master's plan and that no component sits on a
// crashed host.
func checkPlacement(w *framework.World, c *framework.Centralized) error {
	if err := waitFor(5*time.Second, func() bool { return w.LiveDeployment().Equal(c.Deployment) }); err != nil {
		return wrong(fmt.Errorf("live placement %v never matched the plan %v", w.LiveDeployment(), c.Deployment))
	}
	for comp, h := range c.Deployment {
		if w.HostDown(h) || c.Model.HostDown(h) {
			return wrong(fmt.Errorf("component %s planned on dead host %s", comp, h))
		}
	}
	return nil
}

// phases records a cycle's or recovery's phase durations (the program's
// Report.Phases, filled because a tracer is wired) under prefix.
func (t *tracer) phases(prefix string, ps []obs.SpanSummary) {
	for _, p := range ps {
		t.observe(prefix+"."+p.Name, p.Duration)
	}
}
