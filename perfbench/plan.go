package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"dif/internal/analyzer"
	"dif/internal/model"
)

// The plan workload: DeSi-side planning with no network. An op is one
// Analyzer.Analyze on the stable path (Avala) over a planHosts ×
// planComps model. Before each op the model's link reliabilities drift
// through the Modifier, so no op repeats the previous op's input. The
// architecture itself comes from the fixed planModelSeed: Avala's cost
// differs by up to a quarter between generated architectures of one
// size, and --seed, which drives the drift, should not move the figures.
const (
	planHosts  = 20
	planComps  = 200
	planWarmup = 2
	// planSigma is the per-op random-walk step of every link reliability,
	// clipped to planRel.
	planSigma = 0.02
	// planModelSeed generates the architecture every run plans over.
	planModelSeed = 1
)

var planRel = model.Range{Min: 0.3, Max: 1.0}

type planInst struct {
	seed int64
	sys  *model.System
	cur  model.Deployment
	an   *analyzer.Analyzer
	mod  *model.Modifier
	rng  *rand.Rand
	tr   *tracer
}

func setupPlan(seed int64, tr *tracer) (instance, error) {
	sys, dep, err := slackSystem(planHosts, planComps, planModelSeed, 2)
	if err != nil {
		return nil, err
	}
	in := &planInst{
		seed: seed, sys: sys, cur: dep,
		an:  analyzer.New(nil, analyzer.Policy{}),
		mod: model.NewModifier(sys),
		rng: rand.New(rand.NewSource(seed)),
	}
	for i := 0; i < planWarmup; i++ {
		if _, err := in.op(0); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	in.tr = tr
	return in, nil
}

func (in *planInst) workers() int { return 1 }

// drift moves every link's reliability one clipped random-walk step.
func (in *planInst) drift() error {
	for _, pair := range in.sys.LinkKeys() {
		r := in.sys.Links[pair].Params.Get(model.ParamReliability) + in.rng.NormFloat64()*planSigma
		r = min(planRel.Max, max(planRel.Min, r))
		if err := in.mod.SetLinkParam(pair.A, pair.B, model.ParamReliability, r); err != nil {
			return err
		}
	}
	return nil
}

func (in *planInst) op(int) (time.Duration, error) {
	if err := in.drift(); err != nil {
		return 0, err
	}
	call := in.tr.begin("plan.analyze")
	start := time.Now()
	dec, err := in.an.Analyze(context.Background(), in.sys, in.cur, 1.0)
	lat := time.Since(start)
	call.end()
	if err != nil {
		return 0, err
	}
	if dec.Algorithm != "avala" {
		return 0, wrong(fmt.Errorf("analyzer chose %s on the stable path, want avala", dec.Algorithm))
	}
	res := dec.Result
	if err := checkScores(in.sys, res.Deployment, res.Score); err != nil {
		return 0, fmt.Errorf("avala result: %w", err)
	}
	if err := checkScores(in.sys, in.cur, res.InitialScore); err != nil {
		return 0, fmt.Errorf("initial score: %w", err)
	}
	if dec.Accepted {
		in.cur = res.Deployment.Clone()
	}
	return lat, nil
}

// check compares every algorithm against an exhaustive enumeration on a
// small instance.
func (in *planInst) check() error { return checkOptimum(in.seed) }

func (in *planInst) layers(m metrics, ops int) {
	in.tr.layerMS(m, "analyzer.analyze_ms", "plan.analyze")
}

func (in *planInst) close() {}
