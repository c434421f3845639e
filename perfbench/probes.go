package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"dif/internal/algo"
	"dif/internal/model"
	"dif/internal/objective"
	"dif/internal/prism"
)

// Probes time single layers that no workload's op isolates: the binary
// codec on the events workload's stamped request, each algorithm's Run,
// and the availability quantifier. Every traced run makes them.
const (
	codecReps    = 200_000
	quantifyReps = 2_000
	geneticHosts = 10
	geneticComps = 100
	exactHosts   = 4
	exactComps   = 8
)

func probeLayers(seed int64, tr *tracer, m metrics) error {
	req := prism.Event{
		Name: "req", Sender: "client0", Target: echoID,
		SrcHost: eventsMaster, Seq: 1 << 20, SeqOrigin: eventsMaster, SeqInc: 0,
	}
	buf, err := prism.AppendEvent(nil, req)
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	start := time.Now()
	for i := 0; i < codecReps; i++ {
		buf, _ = prism.AppendEvent(buf[:0], req)
	}
	m.set("prism.encode_ns", float64(time.Since(start).Nanoseconds())/codecReps, "ns")
	start = time.Now()
	var back prism.Event
	for i := 0; i < codecReps; i++ {
		back, _ = prism.DecodeEvent(buf)
	}
	m.set("prism.decode_ns", float64(time.Since(start).Nanoseconds())/codecReps, "ns")
	if back.Target != req.Target || back.Seq != req.Seq || back.Sender != req.Sender {
		return fmt.Errorf("codec probe: decoded %v, want %v", back, req)
	}

	sys, dep, err := slackSystem(planHosts, planComps, seed, 2)
	if err != nil {
		return err
	}
	start = time.Now()
	var score float64
	for i := 0; i < quantifyReps; i++ {
		score = objective.Availability{}.Quantify(sys, dep)
	}
	m.set("objective.quantify_us", float64(time.Since(start).Microseconds())/quantifyReps, "us")
	if err := checkScores(sys, dep, score); err != nil {
		return fmt.Errorf("quantify probe: %w", err)
	}

	for _, p := range []struct {
		metric, algo string
		hosts, comps int
	}{
		{"algo.avala_ms", "avala", planHosts, planComps},
		{"algo.stochastic_ms", "stochastic", planHosts, planComps},
		{"algo.swap_ms", "swap", planHosts, planComps},
		{"algo.genetic_ms", "genetic", geneticHosts, geneticComps},
		{"algo.exact_ms", "exact", exactHosts, exactComps},
	} {
		s, d, err := slackSystem(p.hosts, p.comps, seed, 2)
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := runAlgo(p.algo, s, d, seed)
		if err != nil {
			return err
		}
		m.set(p.metric, float64(time.Since(start).Microseconds())/1000, "ms")
		if err := checkScores(s, res.Deployment, res.Score); err != nil {
			return fmt.Errorf("%s probe: %w", p.algo, err)
		}
	}
	return nil
}

// runAlgo runs one registered algorithm for availability with the
// analyzer's stable trial budget.
func runAlgo(name string, s *model.System, d model.Deployment, seed int64) (algo.Result, error) {
	alg, err := algo.NewRegistry().New(name)
	if err != nil {
		return algo.Result{}, err
	}
	return alg.Run(context.Background(), s, d, algo.Config{
		Objective: objective.Availability{}, Seed: seed, Trials: 200,
	})
}

// checkOptimum enumerates every placement of a small instance, keeps the
// best availability among those that fit host memory, and checks that
// Exact finds exactly that score and that no other algorithm beats it.
func checkOptimum(seed int64) error {
	s, d, err := slackSystem(exactHosts, exactComps, seed, 2)
	if err != nil {
		return err
	}
	hosts := s.HostIDs()
	comps := s.ComponentIDs()
	cand := model.NewDeployment(len(comps))
	best := math.Inf(-1)
	var walk func(i int)
	walk = func(i int) {
		if i == len(comps) {
			if memoryFits(s, cand) == nil {
				best = math.Max(best, availability(s, cand))
			}
			return
		}
		for _, h := range hosts {
			cand[comps[i]] = h
			walk(i + 1)
		}
	}
	walk(0)
	if math.IsInf(best, -1) {
		return errors.New("exhaustive search found no placement that fits")
	}
	for _, name := range []string{"exact", "avala", "stochastic", "swap", "genetic"} {
		res, err := runAlgo(name, s, d, seed)
		if err != nil {
			return err
		}
		if err := checkScores(s, res.Deployment, res.Score); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		switch {
		case name == "exact" && math.Abs(res.Score-best) > 1e-9:
			return fmt.Errorf("exact scored %.12f, exhaustive optimum is %.12f", res.Score, best)
		case res.Score > best+1e-9:
			return fmt.Errorf("%s scored %.12f, above the exhaustive optimum %.12f", name, res.Score, best)
		}
	}
	return nil
}
