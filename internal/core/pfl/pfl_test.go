package pfl

import (
	"context"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/profile"
)

// trackingConfig returns a fast, deterministic tracking-mode setup: the
// filter starts from a coarse prior near the true start (region 0 of the
// default map) and must lock on.
func trackingConfig() Config {
	cfg := DefaultConfig()
	cfg.Particles = 400
	cfg.Steps = 40
	prior := geom.Pose2{X: 5.0, Y: 12.1, Theta: 0}
	cfg.TrackingPrior = &prior
	cfg.TrackingSpread = 1.5
	return cfg
}

func TestTrackingConverges(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := trackingConfig()
		cfg.Seed = seed
		res, err := Run(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.PositionError > 1 {
			t.Fatalf("seed %d: position error %.2f m", seed, res.PositionError)
		}
	}
}

func TestGlobalLocalizationConverges(t *testing.T) {
	// Global localization from a uniform prior (the paper's Fig. 2
	// scenario). Convergence is seed-dependent — the building has aliased
	// rooms — so the test pins a seed known to converge; EXPERIMENTS.md
	// reports the measured rate across seeds.
	cfg := DefaultConfig()
	cfg.Seed = 1
	res, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PositionError > 1 {
		t.Fatalf("position error %.2f m — global localization lost", res.PositionError)
	}
	if res.HeadingError > 0.3 {
		t.Fatalf("heading error %.2f rad", res.HeadingError)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := trackingConfig()
	a, err1 := Run(context.Background(), cfg, nil)
	b, err2 := Run(context.Background(), cfg, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a.Estimate != b.Estimate || a.Raycasts != b.Raycasts {
		t.Fatal("same seed produced different runs")
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := trackingConfig()
	a, _ := Run(context.Background(), cfg, nil)
	cfg.Seed = 2
	b, _ := Run(context.Background(), cfg, nil)
	if a.Estimate == b.Estimate {
		t.Fatal("different seeds produced identical estimates")
	}
}

// TestRaycastDominatesProfile pins the paper's attribution and the profile
// granularity: one "raycast" phase per filter step (serial weigh, or the
// Workers fan-out), never one per particle, and at least the paper's 67%.
func TestRaycastDominatesProfile(t *testing.T) {
	for _, workers := range []int{0, 2} {
		cfg := trackingConfig()
		cfg.Workers = workers
		p := profile.New()
		if _, err := Run(context.Background(), cfg, p); err != nil {
			t.Fatal(err)
		}
		rep := p.Snapshot()
		if rep.Dominant() != "raycast" {
			t.Fatalf("workers=%d: dominant phase = %q, want raycast (paper: 67-78%%)", workers, rep.Dominant())
		}
		if f := rep.Fraction("raycast"); f < 0.67 {
			t.Fatalf("workers=%d: raycast fraction = %.2f, want >= 0.67", workers, f)
		}
		for phase, want := range map[string]int64{"raycast": int64(cfg.Steps), "weight": int64(cfg.Steps)} {
			if ph, _ := rep.Phase(phase); ph.Calls != want {
				t.Fatalf("workers=%d: %s phase calls = %d, want %d (one per step)", workers, phase, ph.Calls, want)
			}
		}
	}
}

func TestAllFiveRegionsRun(t *testing.T) {
	for region := 0; region < 5; region++ {
		cfg := trackingConfig()
		cfg.Region = region
		cfg.TrackingPrior = nil // global; we only check it executes
		cfg.InitFactor = 3
		cfg.Steps = 5
		cfg.Particles = 100
		if _, err := Run(context.Background(), cfg, nil); err != nil {
			t.Fatalf("region %d: %v", region, err)
		}
	}
}

func TestRaycastWorkScalesWithParticles(t *testing.T) {
	cfg := trackingConfig()
	cfg.Steps = 10
	cfg.Particles = 100
	small, _ := Run(context.Background(), cfg, nil)
	cfg.Particles = 400
	big, _ := Run(context.Background(), cfg, nil)
	if big.Raycasts <= small.Raycasts {
		t.Fatal("ray casts did not scale with particle count")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Particles = 0
	if _, err := Run(context.Background(), cfg, nil); err == nil {
		t.Fatal("zero particles accepted")
	}
	cfg = DefaultConfig()
	cfg.Steps = -1
	if _, err := Run(context.Background(), cfg, nil); err == nil {
		t.Fatal("negative steps accepted")
	}
}

func TestEffectiveSampleSizeSane(t *testing.T) {
	res, err := Run(context.Background(), trackingConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveSampleSize < 1 {
		t.Fatalf("ESS = %v", res.EffectiveSampleSize)
	}
	if res.Resamples == 0 {
		t.Fatal("filter never resampled")
	}
}

func TestParallelWorkersBitIdentical(t *testing.T) {
	// The determinism contract for Workers >= 1: the parallel algorithm's
	// results are a pure function of the seed — the worker count only bounds
	// goroutine concurrency. Run the identical config at several counts and
	// require bit-identical estimates and counters.
	base := trackingConfig()
	base.Workers = 1
	a, err := Run(context.Background(), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 64} {
		cfg := trackingConfig()
		cfg.Workers = workers
		b, err := Run(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Estimate != b.Estimate || a.Raycasts != b.Raycasts || a.CellsVisited != b.CellsVisited {
			t.Fatalf("workers=%d diverged from workers=1: %+v vs %+v", workers, b, a)
		}
	}
}

// TestStaleShardRegression is the regression test for the worker-shard
// accounting bug: the parallel weigh fan-out never cleared s.shards, so once
// the over-provisioned initial population shrank at the first resample,
// workers with no particle range left (lo >= len(parts)) kept their
// first-tick shard, and the accumulation loop re-added those stale
// Raycasts/CellsVisited every later tick. With 64 workers and a 50-particle
// steady state only workers 0-49 stay active, so pre-fix the 64-worker run
// inflates its counters relative to the 8-worker run of the very same
// algorithm. This test failed before shards were zeroed per tick.
func TestStaleShardRegression(t *testing.T) {
	run := func(workers int) Result {
		cfg := DefaultConfig()
		cfg.Particles = 50
		cfg.InitFactor = 25 // tick 1 weighs 1250 particles, later ticks 50
		cfg.Steps = 4
		cfg.Workers = workers
		res, err := Run(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	few, many := run(8), run(64)
	if few.Raycasts != many.Raycasts || few.CellsVisited != many.CellsVisited {
		t.Fatalf("stale shards re-accumulated: workers=64 counted %d raycasts / %d cells, workers=8 counted %d / %d",
			many.Raycasts, many.CellsVisited, few.Raycasts, few.CellsVisited)
	}
	if few.Estimate != many.Estimate {
		t.Fatalf("worker count changed the estimate: %+v vs %+v", many.Estimate, few.Estimate)
	}
}

func TestSensorDropoutTolerated(t *testing.T) {
	// Failure injection: 20% of beams read max range. The filter must
	// still track (the mixture model's uniform floor absorbs outliers).
	cfg := trackingConfig()
	cfg.Laser.Dropout = 0.2
	res, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PositionError > 2 {
		t.Fatalf("position error %.2f m under 20%% beam dropout", res.PositionError)
	}
}

func TestLikelihoodFieldAblation(t *testing.T) {
	// The serial and the parallel measurement update attribute the
	// ablation's endpoint scoring to the same phase.
	dominant := map[int]string{}
	for _, workers := range []int{0, 2} {
		cfg := trackingConfig()
		cfg.LikelihoodField = true
		cfg.Workers = workers
		p := profile.New()
		res, err := Run(context.Background(), cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		// Still localizes...
		if res.PositionError > 1.5 {
			t.Fatalf("workers=%d: likelihood-field tracking error %.2f m", workers, res.PositionError)
		}
		// ...but the ray-casting bottleneck is gone.
		if res.Raycasts != 0 {
			t.Fatalf("workers=%d: likelihood field still cast %d rays", workers, res.Raycasts)
		}
		rep := p.Snapshot()
		if ph, _ := rep.Phase("raycast"); ph.Calls != 0 {
			t.Fatalf("workers=%d: %d raycast phases without a ray cast", workers, ph.Calls)
		}
		if rep.Fraction("weight") <= 0 {
			t.Fatalf("workers=%d: weight phase missing", workers)
		}
		// One weight phase for the endpoint scoring of each step and one
		// for each normalize.
		if ph, _ := rep.Phase("weight"); ph.Calls != int64(2*cfg.Steps) {
			t.Fatalf("workers=%d: weight phase calls = %d, want %d", workers, ph.Calls, 2*cfg.Steps)
		}
		dominant[workers] = rep.Dominant()
	}
	if dominant[0] != dominant[2] {
		t.Fatalf("dominant phase %q serial, %q at workers=2", dominant[0], dominant[2])
	}
}

func TestCountersPopulated(t *testing.T) {
	res, err := Run(context.Background(), trackingConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Raycasts == 0 || res.CellsVisited <= res.Raycasts {
		t.Fatalf("raycasts=%d cells=%d", res.Raycasts, res.CellsVisited)
	}
}

// TestFarTailShortcutExact checks that beamLogLik's far-tail shortcut is
// exact: wherever it returns logFloor, the full mixture
// log(zHit·exp(e) + randFloor) evaluates to the same bits. It covers the
// default likelihood and four other (ZHit, ZRand, MaxRange, ModelSigma)
// settings, exponents densely sampled just below the cutoff and far out to
// -1e6, and exponents from the beam residuals weigh actually produces.
func TestFarTailShortcutExact(t *testing.T) {
	def := DefaultConfig()
	settings := []struct{ zHit, zRand, maxRange, sigma float64 }{
		{def.ZHit, def.ZRand, def.Laser.MaxRange, def.ModelSigma},
		{0.5, 0.5, 10, 0.2},
		{0.99, 0.01, 30, 1},
		{0.7, 0.3, 4, 0.05},
		{1, 1e-3, 100, 2.5},
	}
	for _, st := range settings {
		cfg := DefaultConfig()
		cfg.Map = grid.NewGrid2D(8, 8)
		cfg.Particles, cfg.InitFactor = 1, 1
		cfg.ZHit, cfg.ZRand, cfg.Laser.MaxRange, cfg.ModelSigma = st.zHit, st.zRand, st.maxRange, st.sigma
		s, err := newState(cfg, &Result{})
		if err != nil {
			t.Fatal(err)
		}
		randFloor := st.zRand / st.maxRange
		full := func(e float64) float64 { return math.Log(st.zHit*math.Exp(e) + randFloor) }
		if math.IsInf(s.cutoff, 0) || math.IsNaN(s.cutoff) || s.cutoff > -10 {
			t.Fatalf("%+v: cutoff %v is not a finite far-tail exponent", st, s.cutoff)
		}
		check := func(e float64) {
			got, want := s.beamLogLik(e), full(e)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v: beamLogLik(%v) = %v, full mixture %v (cutoff %v)", st, e, got, want, s.cutoff)
			}
			if e < s.cutoff {
				// The half-ulp argument itself: the addend rounds away.
				// This is stricter than equal logs, which log's own
				// rounding can make agree on a one-ulp sum difference.
				if sum := st.zHit*math.Exp(e) + randFloor; sum != randFloor {
					t.Fatalf("%+v: e=%v below the cutoff, but zHit*exp(e)+randFloor = %v, not randFloor %v", st, e, sum, randFloor)
				}
				if got != s.logFloor {
					t.Fatalf("%+v: e=%v below the cutoff did not take the shortcut", st, e)
				}
			}
		}
		// Densely in [cutoff-5, cutoff), including the largest exponent
		// below the cutoff.
		check(math.Nextafter(s.cutoff, math.Inf(-1)))
		const dense = 200000
		for k := 1; k <= dense; k++ {
			check(s.cutoff - 5*float64(k)/dense)
		}
		// Far out: geometric steps down to -1e6, then past it.
		for e := s.cutoff - 5; e > -1e6; e *= 1.01 {
			check(e)
		}
		check(-1e6)
		check(math.Inf(-1))
		// Above the cutoff the full mixture runs.
		check(s.cutoff + 1)
		check(s.cutoff)
		// Residuals d = scan - expected as weigh forms the exponent, over
		// the whole range of ray-cast distances.
		for k := 0; k <= 10000; k++ {
			d := st.maxRange * float64(k) / 10000
			check(-d * d / (2 * s.sigma2))
		}
	}
}
