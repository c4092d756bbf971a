package movtar

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/profile"
	"repro/internal/search"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Size = 64
	return cfg
}

func TestCatchesTarget(t *testing.T) {
	res, err := Run(context.Background(), smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("robot never caught the target")
	}
	if res.CatchTime <= 0 || res.PathCost <= 0 {
		t.Fatalf("catch time %d, cost %v", res.CatchTime, res.PathCost)
	}
	if res.HeuristicCells == 0 {
		t.Fatal("backward Dijkstra settled no cells")
	}
}

func TestProfileHasBothPhases(t *testing.T) {
	p := profile.New()
	if _, err := Run(context.Background(), smallConfig(), p); err != nil {
		t.Fatal(err)
	}
	rep := p.Snapshot()
	if rep.Fraction("heuristic") <= 0 || rep.Fraction("search") <= 0 {
		t.Fatalf("phases: heuristic=%.3f search=%.3f",
			rep.Fraction("heuristic"), rep.Fraction("search"))
	}
}

func TestHeuristicShareGrowsOnSmallerMaps(t *testing.T) {
	share := func(size int) float64 {
		var total, heur float64
		for seed := int64(1); seed <= 3; seed++ {
			cfg := DefaultConfig()
			cfg.Size = size
			cfg.Seed = seed
			p := profile.New()
			if _, err := Run(context.Background(), cfg, p); err != nil {
				t.Fatalf("size %d seed %d: %v", size, seed, err)
			}
			rep := p.Snapshot()
			total++
			heur += rep.Fraction("heuristic")
		}
		return heur / total
	}
	small := share(32)
	large := share(128)
	// The paper's §V.6 claim: heuristic contribution is input-dependent and
	// grows as the environment shrinks.
	if small <= large {
		t.Fatalf("heuristic share small=%.3f !> large=%.3f", small, large)
	}
}

func TestEpsilonSpeedsSearch(t *testing.T) {
	strict := smallConfig()
	strict.Epsilon = 1.0
	loose := smallConfig()
	loose.Epsilon = 3.0
	a, err1 := Run(context.Background(), strict, nil)
	b, err2 := Run(context.Background(), loose, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if b.Expanded > a.Expanded {
		t.Fatalf("ε=3 expanded more states than ε=1 (%d > %d)", b.Expanded, a.Expanded)
	}
	// Inflation can only trade cost upward.
	if b.PathCost < a.PathCost-1e-9 {
		t.Fatal("inflated search found a cheaper path than admissible search")
	}
}

func TestCustomTerrain(t *testing.T) {
	terrain := grid.NewCostGrid2D(48, 48, 1)
	cfg := DefaultConfig()
	cfg.Terrain = terrain
	res, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("uniform terrain pursuit failed")
	}
}

func TestSpaceTimeVolumeBound(t *testing.T) {
	// A synthetic terrain whose space-time volume must pass 2³²−1 states
	// is rejected before it is built.
	cfg := DefaultConfig()
	cfg.Size = 2000
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "space-time states") {
		t.Fatalf("Size 2000 validated: %v", err)
	}
	cfg.Size = 384
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Size 384 rejected: %v", err)
	}
	// A custom terrain with a horizon past the bound reaches the search,
	// which refuses it before allocating any bookkeeping.
	cfg = DefaultConfig()
	cfg.Terrain = grid.NewCostGrid2D(64, 64, 1)
	cfg.MaxTime = 1 << 20
	if _, err := Run(context.Background(), cfg, nil); !errors.Is(err, search.ErrTooManyStates) {
		t.Fatalf("err = %v, want search.ErrTooManyStates", err)
	}
}

func TestInvalidEpsilon(t *testing.T) {
	cfg := smallConfig()
	cfg.Epsilon = 0.5
	if _, err := Run(context.Background(), cfg, nil); err == nil {
		t.Fatal("epsilon < 1 accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Run(context.Background(), smallConfig(), nil)
	b, _ := Run(context.Background(), smallConfig(), nil)
	if a.CatchTime != b.CatchTime || a.Expanded != b.Expanded {
		t.Fatal("same seed diverged")
	}
}

func TestMaxTimeTooShortFails(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxTime = 3 // cannot possibly reach the target
	res, err := Run(context.Background(), cfg, nil)
	if err == nil && res.Found {
		t.Fatal("caught the target within an impossible horizon")
	}
}

// TestSearchAllocatesPerTouchedState checks the mechanism that keeps
// movtar's memory small in a long-lived process: the search allocates its
// bookkeeping per state it touches, on pages, not per state of the
// space-time volume. Flat per-state arrays (17 B a state) cost nothing on
// fresh OS pages, but a warm process (a sweep, the daemon) hands them
// reused spans that the runtime zeroes, committing every page. At
// SizeSmall the whole run must allocate under a quarter of such arrays.
func TestSearchAllocatesPerTouchedState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Size = 96
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(context.Background(), cfg, nil)
	runtime.ReadMemStats(&after)
	if err != nil || !res.Found {
		t.Fatalf("run failed: %v", err)
	}
	maxTime := cfg.TargetPeriod*res.TargetPathLen + 2*cfg.Size
	dense := 17 * uint64(cfg.Size*cfg.Size*maxTime)
	if got := after.TotalAlloc - before.TotalAlloc; got >= dense/4 {
		t.Fatalf("run allocated %d B, want < %d (a quarter of %d B of per-state arrays)", got, dense/4, dense)
	}
}
