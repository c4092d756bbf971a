package search

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/rng"
)

// lineGraph is a simple space: 0 - 1 - 2 - ... - n-1.
type lineGraph struct{ n int }

func (l lineGraph) NumStates() int { return l.n }

func (l lineGraph) Neighbors(id int, yield func(int, float64)) {
	if id+1 < l.n {
		yield(id+1, 1)
	}
	if id > 0 {
		yield(id-1, 1)
	}
}

func TestDijkstraLine(t *testing.T) {
	res, err := Solve(Problem{Space: lineGraph{10}, Start: 0, Goal: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Cost != 9 || len(res.Path) != 10 {
		t.Fatalf("res = %+v", res)
	}
	for i, id := range res.Path {
		if id != i {
			t.Fatalf("path[%d] = %d", i, id)
		}
	}
}

func TestNoPath(t *testing.T) {
	g := grid.NewGrid2D(5, 5)
	for y := 0; y < 5; y++ {
		g.Set(2, y, true) // wall across the map
	}
	sp := &Grid2DSpace{G: g}
	_, err := Solve(Problem{Space: sp, Start: sp.ID(0, 0), Goal: sp.ID(4, 4)})
	if err != ErrNoPath {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestAStarMatchesDijkstraOnRandomGrids(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		g := grid.NewGrid2D(20, 20)
		for i := 0; i < 100; i++ {
			g.Set(r.Intn(20), r.Intn(20), true)
		}
		g.Set(0, 0, false)
		g.Set(19, 19, false)
		sp := &Grid2DSpace{G: g}
		start, goal := sp.ID(0, 0), sp.ID(19, 19)

		dij, errD := Solve(Problem{Space: sp, Start: start, Goal: goal})
		ast, errA := Solve(Problem{
			Space: sp, Start: start, Goal: goal,
			H: sp.OctileHeuristic(19, 19),
		})
		if (errD == nil) != (errA == nil) {
			return false
		}
		if errD != nil {
			return true // both found no path
		}
		// A* with an admissible heuristic must match Dijkstra's cost and
		// expand no more states.
		if math.Abs(dij.Cost-ast.Cost) > 1e-9 {
			return false
		}
		return ast.Expanded <= dij.Expanded
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedAStarBoundedSuboptimality(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		g := grid.NewGrid2D(25, 25)
		for i := 0; i < 150; i++ {
			g.Set(r.Intn(25), r.Intn(25), true)
		}
		g.Set(0, 0, false)
		g.Set(24, 24, false)
		sp := &Grid2DSpace{G: g}
		start, goal := sp.ID(0, 0), sp.ID(24, 24)
		const eps = 2.0

		opt, errO := Solve(Problem{Space: sp, Start: start, Goal: goal, H: sp.OctileHeuristic(24, 24)})
		wa, errW := Solve(Problem{Space: sp, Start: start, Goal: goal, H: sp.OctileHeuristic(24, 24), Weight: eps})
		if (errO == nil) != (errW == nil) {
			return false
		}
		if errO != nil {
			return true
		}
		// WA* with inflation ε guarantees cost <= ε * optimal.
		return wa.Cost <= eps*opt.Cost+1e-9 && wa.Cost >= opt.Cost-1e-9
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveRequiresSized(t *testing.T) {
	for name, solve := range map[string]func(Problem){
		"Solve":        func(p Problem) { Solve(p) },                      //nolint:errcheck
		"SolveAnytime": func(p Problem) { SolveAnytime(p, []float64{1}) }, //nolint:errcheck
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted an unsized space", name)
				}
			}()
			solve(Problem{Space: unsized{lineGraph{5}}, Start: 0, Goal: 4})
		}()
	}
}

func TestSolveRejectsTooManyStates(t *testing.T) {
	// One state past what a 32-bit parent ID can address; the check comes
	// before any bookkeeping is allocated.
	huge := sizedFunc{n: int(MaxStates + 1), f: func(int, func(int, float64)) {}}
	if _, err := Solve(Problem{Space: huge, Start: 0, Goal: 1}); !errors.Is(err, ErrTooManyStates) {
		t.Fatalf("Solve err = %v, want ErrTooManyStates", err)
	}
	if _, err := SolveAnytime(Problem{Space: huge, Start: 0, Goal: 1}, nil); !errors.Is(err, ErrTooManyStates) {
		t.Fatalf("SolveAnytime err = %v, want ErrTooManyStates", err)
	}
}

func TestGoalPredicate(t *testing.T) {
	// Accept any state >= 5 on the line graph.
	res, err := Solve(Problem{
		Space:  lineGraph{100},
		Start:  0,
		IsGoal: func(id int) bool { return id >= 5 },
	})
	if err != nil || !res.Found || res.Cost != 5 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestMaxExpansions(t *testing.T) {
	_, err := Solve(Problem{
		Space: lineGraph{1000}, Start: 0, Goal: 999,
		MaxExpansions: 10,
	})
	if err != ErrNoPath {
		t.Fatalf("err = %v, want ErrNoPath after expansion cap", err)
	}
}

func TestNegativeEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative edge cost did not panic")
		}
	}()
	bad := sizedFunc{n: 2, f: func(id int, yield func(int, float64)) {
		if id == 0 {
			yield(1, -1)
		}
	}}
	Solve(Problem{Space: bad, Start: 0, Goal: 1}) //nolint:errcheck
}

// sizedFunc is a space of n states whose edges come from f.
type sizedFunc struct {
	n int
	f func(int, func(int, float64))
}

func (s sizedFunc) NumStates() int                             { return s.n }
func (s sizedFunc) Neighbors(id int, yield func(int, float64)) { s.f(id, yield) }

// unsized hides a space's NumStates.
type unsized struct{ Space }

func TestDijkstraAllDistances(t *testing.T) {
	g := grid.NewGrid2D(10, 10)
	sp := &Grid2DSpace{G: g, FourConnected: true}
	dist := DijkstraAll(sp, sp.ID(0, 0))
	// Manhattan distances on an empty 4-connected grid.
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			want := float64(x + y)
			if math.Abs(dist[sp.ID(x, y)]-want) > 1e-9 {
				t.Fatalf("dist(%d,%d) = %v, want %v", x, y, dist[sp.ID(x, y)], want)
			}
		}
	}
}

func TestDijkstraAllUnreachable(t *testing.T) {
	g := grid.NewGrid2D(5, 5)
	for y := 0; y < 5; y++ {
		g.Set(2, y, true)
	}
	sp := &Grid2DSpace{G: g}
	dist := DijkstraAll(sp, sp.ID(0, 0))
	if !math.IsInf(dist[sp.ID(4, 4)], 1) {
		t.Fatal("unreachable cell has finite distance")
	}
}

func TestDiagonalCornerCutting(t *testing.T) {
	// Two blocked cardinals must forbid the diagonal between them.
	g := grid.NewGrid2D(3, 3)
	g.Set(1, 0, true)
	g.Set(0, 1, true)
	sp := &Grid2DSpace{G: g}
	found := false
	sp.Neighbors(sp.ID(0, 0), func(to int, cost float64) {
		if to == sp.ID(1, 1) {
			found = true
		}
	})
	if found {
		t.Fatal("diagonal move cut an obstacle corner")
	}
}

func TestGrid3DSpaceNeighborCosts(t *testing.T) {
	g := grid.NewGrid3D(3, 3, 3)
	sp := &Grid3DSpace{G: g}
	count := 0
	sp.Neighbors(sp.ID(1, 1, 1), func(to int, cost float64) {
		count++
		x, y, z := sp.Voxel(to)
		dx, dy, dz := x-1, y-1, z-1
		want := math.Sqrt(float64(dx*dx + dy*dy + dz*dz))
		if math.Abs(cost-want) > 1e-12 {
			t.Fatalf("edge cost %v, want %v", cost, want)
		}
	})
	if count != 26 {
		t.Fatalf("center voxel has %d neighbors, want 26", count)
	}
	sp6 := &Grid3DSpace{G: g, SixConnected: true}
	count = 0
	sp6.Neighbors(sp6.ID(1, 1, 1), func(int, float64) { count++ })
	if count != 6 {
		t.Fatalf("six-connected center has %d neighbors", count)
	}
}

func TestCostGridSpace(t *testing.T) {
	c := grid.NewCostGrid2D(3, 3, 2)
	c.Set(1, 1, 0) // obstacle at center
	sp := &CostGrid2DSpace{C: c}
	sp.Neighbors(sp.ID(0, 0), func(to int, cost float64) {
		x, y := sp.Cell(to)
		if x == 1 && y == 1 {
			t.Fatal("yielded an impassable cell")
		}
		if x == 1 && y == 0 && cost != 2 {
			t.Fatalf("cardinal cost = %v, want 2", cost)
		}
	})
}
