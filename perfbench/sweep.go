package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/profile"
	"repro/rtrbench"
)

// workersKernels are the kernels with an intra-kernel parallel path
// (rtrbench.Options.Workers); workers-sweep runs exactly these.
var workersKernels = []string{"pfl", "ekfslam", "prm", "rrt", "rrtstar", "rrtpp"}

// table1Kernels is every registered kernel in Table I order.
func table1Kernels() []string {
	var names []string
	for _, k := range rtrbench.Kernels() {
		names = append(names, k.Name)
	}
	return names
}

// sweepSeed is the kernel seed of both sweep workloads: the seed the golden
// digests are checked in at, standing for Table I's representative
// inputset, with the kernels called in Table I order. A kernel's run time
// varies by up to 3x with its seed (movtar, pp3d, rrt) and the process's
// peak memory with the call order, so inputs drawn from the benchmark's
// seed would make the run-to-run spread a measure of which inputs a run
// drew. The sweeps therefore run the same inputs whatever the seed, and
// every sweep of a run repeats the first, so each repeat is checked
// against the first sweep's digests.
const sweepSeed = 1

// call is one timed kernel call of a sweep.
type call struct {
	kr    rtrbench.KernelResult
	seed  int64
	start time.Time
	wall  time.Duration
}

// sweep is one pass over a workload's kernels.
type sweep struct {
	calls []call
	start time.Time
	wall  time.Duration
}

// runSweep calls each kernel once through its own Engine.Run, one caller in
// a closed loop, and times every call and the whole pass. Each call starts
// from a collected heap, so that the process's peak memory is the largest
// kernel's and not an accident of when the collector last ran; the forced
// collections are not part of the pass's time. Spans are recorded after the
// pass so that the traced and untraced passes time the same work.
func runSweep(ctx context.Context, e *rtrbench.Engine, kernels []string, size rtrbench.Size, seed int64, workers int, tr *tracer, label string) (sweep, error) {
	sw := sweep{start: time.Now()}
	var collecting time.Duration
	for _, name := range kernels {
		gc := time.Now()
		runtime.GC()
		collecting += time.Since(gc)
		t := time.Now()
		res, err := e.Run(ctx, rtrbench.SuiteOptions{
			Options:         rtrbench.Options{Size: size, Seed: seed, Workers: workers},
			Kernels:         []string{name},
			Parallel:        1,
			ContinueOnError: true,
		})
		wall := time.Since(t)
		if err != nil {
			return sw, fmt.Errorf("%s: %w", name, err)
		}
		sw.calls = append(sw.calls, call{kr: res.Kernels[0], seed: seed, start: t, wall: wall})
	}
	sw.wall = time.Since(sw.start) - collecting
	if tr != nil {
		id := tr.add(0, label, "sweep", 1, sw.start, sw.start.Add(sw.wall),
			map[string]interface{}{"workers": workers, "size": int(size)})
		for _, c := range sw.calls {
			tr.add(id, c.kr.Info.Name, "kernel", 1, c.start, c.start.Add(c.wall),
				map[string]interface{}{"seed": c.seed, "roi_ms": ms(c.kr.Result.ROI)})
		}
	}
	return sw, nil
}

// account checks every call of sw against the digest book and counts the
// calls and the failed ones into o.
func account(o *outcome, book digestBook, sw sweep, size rtrbench.Size, workers int, measured bool) error {
	for _, c := range sw.calls {
		id, dg, err := kernelDigest(c.kr, size, c.seed, workers)
		if err != nil {
			return err
		}
		if err := book.check(id, dg); err != nil {
			return err
		}
		if measured {
			o.attempted++
			if c.kr.Err != nil {
				o.failed++
			}
		}
	}
	return nil
}

// sweepTotals are the per-sweep end-to-end quantities.
type sweepTotals struct {
	stage    map[rtrbench.Stage]time.Duration
	pathCost []float64
	self     time.Duration // sweep wall minus the timed calls
	setup    time.Duration // sum of (call wall - ROI): work outside the ROI
}

// plannerCosts are the kernels whose path_cost_rad is answer quality.
var plannerCosts = map[string]bool{"prm": true, "rrt": true, "rrtstar": true, "rrtpp": true}

func totals(sw sweep) sweepTotals {
	t := sweepTotals{stage: map[rtrbench.Stage]time.Duration{}}
	var calls time.Duration
	for _, c := range sw.calls {
		t.stage[c.kr.Info.Stage] += c.wall
		calls += c.wall
		t.setup += c.wall - c.kr.Result.ROI
		if c.kr.Err == nil && plannerCosts[c.kr.Info.Name] && c.kr.Result.Metrics["found"] == 1 {
			t.pathCost = append(t.pathCost, c.kr.Result.Metrics["path_cost_rad"])
		}
	}
	t.self = sw.wall - calls
	return t
}

func disabledProfile(rtrbench.Options) *profile.Profile { return profile.Disabled() }

// sweepWorkload measures closed-loop sweeps over kernels at SizeDefault with
// the given Workers setting: identical sweeps, as many as fit in the run's
// seconds at the nominal sweep time (at least two).
func sweepWorkload(kernels []string, workers int, nominal time.Duration) workload {
	return func(ctx context.Context, cfg *config, o *outcome) error {
		book := digestBook{}
		e := &rtrbench.Engine{}

		// Set-up: warm caches and the allocator with SizeSmall passes over
		// the same kernels, three times, each timed.
		var setups []float64
		for i := 0; i < 3; i++ {
			sw, err := runSweep(ctx, e, kernels, rtrbench.SizeSmall, sweepSeed, workers, cfg.tr, "warm-up")
			if err != nil {
				return err
			}
			setups = append(setups, sw.wall.Seconds())
			if err := account(o, book, sw, rtrbench.SizeSmall, workers, false); err != nil {
				return err
			}
		}
		o.set("setup_s", median(setups))

		var sweeps []sweep
		measure := func(e *rtrbench.Engine, tr *tracer) (sweep, error) {
			sw, err := runSweep(ctx, e, kernels, rtrbench.SizeDefault, sweepSeed, workers, tr, "sweep")
			if err != nil {
				return sw, err
			}
			return sw, account(o, book, sw, rtrbench.SizeDefault, workers, true)
		}

		if cfg.tr == nil {
			var cpus []float64
			for n := units(cfg.seconds, nominal); len(sweeps) < n; {
				cpu0, err := selfCPU()
				if err != nil {
					return err
				}
				sw, err := measure(e, nil)
				if err != nil {
					return err
				}
				cpu1, err := selfCPU()
				if err != nil {
					return err
				}
				sweeps = append(sweeps, sw)
				cpus = append(cpus, ms(cpu1-cpu0))
			}
			o.set("cpu_ms_per_op", median(cpus))
			o.note("%d sweeps of %d kernels at SizeDefault, seed %d, workers %d", len(sweeps), len(kernels), sweepSeed, workers)
		} else {
			// Traced: one traced sweep for the per-layer numbers, the same
			// sweep untraced (tracing overhead), and once more with the
			// profile disabled (profile harness overhead).
			traced, err := measure(e, cfg.tr)
			if err != nil {
				return err
			}
			plain, err := measure(e, nil)
			if err != nil {
				return err
			}
			bare, err := measure(&rtrbench.Engine{NewProfile: disabledProfile}, nil)
			if err != nil {
				return err
			}
			sweeps = []sweep{plain}
			o.note("traced, untraced and profile-disabled sweep of %d kernels at SizeDefault, seed %d, workers %d", len(kernels), sweepSeed, workers)
			o.set("trace.overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1)
			o.set("profile.overhead_frac", plain.wall.Seconds()/bare.wall.Seconds()-1)
			kernelLayers(o, traced)
			t := totals(traced)
			o.set("engine.self_ms", ms(t.self))
			o.set("engine.setup_ms", ms(t.setup))
		}

		var walls, perc, plan, ctrl, costs []float64
		for _, sw := range sweeps {
			t := totals(sw)
			walls = append(walls, sw.wall.Seconds())
			perc = append(perc, t.stage[rtrbench.Perception].Seconds())
			plan = append(plan, t.stage[rtrbench.Planning].Seconds())
			ctrl = append(ctrl, t.stage[rtrbench.Control].Seconds())
			costs = append(costs, t.pathCost...)
		}
		o.set("latency_ms", median(walls)*1000)
		o.set("sweep_s", median(walls))
		o.set("perception_s", median(perc))
		o.set("planning_s", median(plan))
		o.set("control_s", median(ctrl))
		if len(costs) > 0 {
			o.set("path_cost_rad", mean(costs))
		}
		o.set("error_frac", errorFrac(o.failed, o.attempted))
		rss, err := peakRSSMB(0)
		if err != nil {
			return err
		}
		o.set("peak_rss_mb", rss)
		return nil
	}
}

// phaseShares are the Table I bottleneck phases whose ROI share is tracked.
var phaseShares = []struct{ kernel, phase string }{
	{"pfl", "raycast"}, {"ekfslam", "matrix"}, {"srec", "correspondence"},
	{"pp2d", "collision"}, {"pp3d", "collision"}, {"movtar", "heuristic"},
	{"prm", "connect"}, {"rrt", "collision"}, {"rrt", "nn"},
	{"rrtstar", "collision"}, {"rrtstar", "nn"}, {"rrtpp", "collision"},
	{"rrtpp", "nn"}, {"sym-fext", "strings"}, {"dmp", "rollout"},
	{"mpc", "optimize"}, {"cem", "sort"}, {"bo", "acquisition"},
}

// substrateRatios price one substrate operation: a kernel phase's time
// divided by the operation count the kernel reports in Result.Metrics.
var substrateRatios = []struct {
	name, kernel, phase, count string
	unit                       time.Duration
}{
	{"grid.raycast_ns", "pfl", "raycast", "raycasts", time.Nanosecond},
	{"collision.pp2d_check_ns", "pp2d", "collision", "collision_checks", time.Nanosecond},
	{"collision.pp3d_check_ns", "pp3d", "collision", "collision_checks", time.Nanosecond},
	{"collision.arm_seg_ns", "rrt", "collision", "seg_checks", time.Nanosecond},
	{"prm.seg_check_ns", "prm", "connect", "seg_checks", time.Nanosecond},
	{"search.movtar_expand_ns", "movtar", "search", "expanded", time.Nanosecond},
	{"kdtree.nn_query_ns", "rrtstar", "nn", "nn_queries", time.Nanosecond},
	{"pointcloud.nn_query_ns", "srec", "correspondence", "nn_queries", time.Nanosecond},
	{"mat.ekf_update_us", "ekfslam", "matrix", "updates", time.Microsecond},
	{"mpc.rollout_ns", "mpc", "optimize", "rollouts", time.Nanosecond},
	{"gp.predict_us", "bo", "acquisition", "predictions", time.Microsecond},
}

// countRatios are exact work counts per unit of work, from Result.Metrics.
var countRatios = []struct{ name, kernel, num, den string }{
	{"grid.cells_per_ray", "pfl", "cells_visited", "raycasts"},
	{"kdtree.dist_per_query", "rrtstar", "dist_calls", "nn_queries"},
}

// exactCounts are operation counts that expose wasted work.
var exactCounts = []struct{ name, kernel, metric string }{
	{"count.rrt.dist_calls", "rrt", "dist_calls"},
	{"count.rrtstar.dist_calls", "rrtstar", "dist_calls"},
	{"count.rrtpp.dist_calls", "rrtpp", "dist_calls"},
	{"count.pfl.raycasts", "pfl", "raycasts"},
}

func phaseOf(r rtrbench.Result, name string) (rtrbench.Phase, bool) {
	for _, p := range r.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return rtrbench.Phase{}, false
}

// kernelLayers derives the kernel and substrate metrics from the results of
// one sweep: ROI per kernel, Table I phase shares, per-operation costs and
// exact operation counts. A kernel the sweep did not run leaves its metrics
// unset.
func kernelLayers(o *outcome, sw sweep) {
	results := map[string]rtrbench.Result{}
	mismatches := 0
	for _, c := range sw.calls {
		if c.kr.Err != nil {
			continue
		}
		r := c.kr.Result
		results[c.kr.Info.Name] = r
		o.set("kernel."+c.kr.Info.Name+".roi_ms", ms(r.ROI))
		matched := false
		for _, want := range c.kr.Info.ExpectDominant {
			matched = matched || r.Dominant() == want
		}
		if !matched {
			mismatches++
		}
	}
	o.set("kernel.attribution_mismatches", float64(mismatches))
	for _, p := range phaseShares {
		if r, ok := results[p.kernel]; ok {
			o.set("phase."+p.kernel+"."+p.phase, r.Fraction(p.phase))
		}
	}
	for _, s := range substrateRatios {
		r, ok := results[s.kernel]
		n := r.Metrics[s.count]
		if !ok || n == 0 {
			continue
		}
		ph, _ := phaseOf(r, s.phase)
		o.set(s.name, float64(ph.Duration)/float64(s.unit)/n)
	}
	for _, c := range countRatios {
		r, ok := results[c.kernel]
		if ok && r.Metrics[c.den] > 0 {
			o.set(c.name, r.Metrics[c.num]/r.Metrics[c.den])
		}
	}
	for _, c := range exactCounts {
		if r, ok := results[c.kernel]; ok {
			o.set(c.name, r.Metrics[c.metric])
		}
	}
}
