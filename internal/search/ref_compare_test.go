package search

import (
	"math"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/rng"
)

// costGrid returns a w×h grid of small integer costs (1–4) with about a
// tenth of the cells impassable. Integer costs make f-values tie often, so
// the comparison exercises the heap's tie order, not just its ordering.
func costGrid(r *rng.RNG, w, h int) *CostGrid2DSpace {
	c := grid.NewCostGrid2D(w, h, 1)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if r.Float64() < 0.1 {
				c.Set(x, y, math.Inf(1))
			} else {
				c.Set(x, y, float64(1+r.Intn(4)))
			}
		}
	}
	return &CostGrid2DSpace{C: c}
}

// octile is an admissible heuristic to (gx, gy) on a grid of costs >= 1.
func octile(sp *CostGrid2DSpace, gx, gy int) Heuristic {
	return func(id int) float64 {
		x, y := sp.Cell(id)
		dx, dy := math.Abs(float64(x-gx)), math.Abs(float64(y-gy))
		return math.Max(dx, dy) + (math.Sqrt2-1)*math.Min(dx, dy)
	}
}

// sameResult reports whether two search results agree bit for bit.
func sameResult(a, b Result) bool {
	return a.Found == b.Found && math.Float64bits(a.Cost) == math.Float64bits(b.Cost) &&
		a.Expanded == b.Expanded && a.Genered == b.Genered && slices.Equal(a.Path, b.Path)
}

func sameAnytime(a, b []AnytimeResult) bool {
	return slices.EqualFunc(a, b, func(x, y AnytimeResult) bool {
		return x.Epsilon == y.Epsilon && math.Float64bits(x.Cost) == math.Float64bits(y.Cost) &&
			x.Expanded == y.Expanded && slices.Equal(x.Path, y.Path)
	})
}

// checkAgainstReference runs every search variant on one random cost grid
// and fails t where the paged search departs from the frozen reference.
func checkAgainstReference(t *testing.T, seed int64, w, h int) {
	r := rng.New(seed)
	sp := costGrid(r, w, h)
	n := w * h
	start, goal := r.Intn(n), r.Intn(n)
	gx, gy := sp.Cell(goal)
	sp.C.Set(gx, gy, 1)
	heur := octile(sp, gx, gy)
	// A goal region: any cell in the goal's row at or right of it.
	region := func(id int) bool {
		x, y := sp.Cell(id)
		return y == gy && x >= gx
	}

	var probs []Problem
	for _, wt := range []float64{1, 1.5, 2} {
		probs = append(probs,
			Problem{Space: sp, Start: start, Goal: goal, H: heur, Weight: wt},
			Problem{Space: sp, Start: start, IsGoal: region, H: heur, Weight: wt},
			Problem{Space: sp, Start: start, Goal: goal, H: heur, Weight: wt, MaxExpansions: 1 + r.Intn(n)},
		)
	}
	probs = append(probs, Problem{Space: sp, Start: start, Goal: goal}) // Dijkstra
	for i, p := range probs {
		got, gotErr := Solve(p)
		want, wantErr := refSolve(p)
		if gotErr != wantErr || !sameResult(got, want) {
			t.Fatalf("seed %d %dx%d problem %d (weight %v, maxexp %d, isgoal %v):\n got %+v, %v\nwant %+v, %v",
				seed, w, h, i, p.Weight, p.MaxExpansions, p.IsGoal != nil, got, gotErr, want, wantErr)
		}
	}

	for _, sched := range [][]float64{{1}, {2, 1}, {3, 2, 1.5, 1}, {2.5, 2.5, 1.2}} {
		p := Problem{Space: sp, Start: start, Goal: goal, H: heur}
		got, gotErr := SolveAnytime(p, sched)
		want, wantErr := refSolveAnytime(p, sched)
		if gotErr != wantErr || !sameAnytime(got, want) {
			t.Fatalf("seed %d %dx%d ARA* %v:\n got %+v, %v\nwant %+v, %v",
				seed, w, h, sched, got, gotErr, want, wantErr)
		}
	}
}

func TestSolveMatchesReference(t *testing.T) {
	// Sizes below one record page, across a few pages, and with the last
	// page partly filled.
	sizes := [][2]int{{7, 5}, {32, 32}, {45, 50}, {64, 70}}
	for seed := int64(1); seed <= 40; seed++ {
		s := sizes[seed%int64(len(sizes))]
		checkAgainstReference(t, seed, s[0], s[1])
	}
}

func FuzzSolve(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(20))
	f.Add(int64(7), uint8(64), uint8(17))
	f.Add(int64(42), uint8(3), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, w, h uint8) {
		if w == 0 || h == 0 {
			return
		}
		checkAgainstReference(t, seed, int(w), int(h))
	})
}
