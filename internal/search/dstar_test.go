package search

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/rng"
)

func heur2(sp *Grid2DSpace) func(a, b int) float64 {
	w := sp.G.W
	return func(a, b int) float64 {
		ax, ay := a%w, a/w
		bx, by := b%w, b/w
		dx := math.Abs(float64(ax - bx))
		dy := math.Abs(float64(ay - by))
		if dx < dy {
			dx, dy = dy, dx
		}
		return dx + (math.Sqrt2-1)*dy
	}
}

func TestDStarMatchesAStarStatic(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		g := grid.NewGrid2D(20, 20)
		for i := 0; i < 110; i++ {
			g.Set(r.Intn(20), r.Intn(20), true)
		}
		g.Set(0, 0, false)
		g.Set(19, 19, false)
		sp := &Grid2DSpace{G: g}
		start, goal := sp.ID(0, 0), sp.ID(19, 19)

		ast, errA := Solve(Problem{Space: sp, Start: start, Goal: goal, H: sp.OctileHeuristic(19, 19)})
		d := NewIncremental(sp, start, goal, heur2(sp))
		_, cost, errD := d.Plan()
		if (errA == nil) != (errD == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		return math.Abs(ast.Cost-cost) < 1e-9
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDStarRepairsAfterObstacle(t *testing.T) {
	g := grid.NewGrid2D(30, 30)
	sp := &Grid2DSpace{G: g}
	start, goal := sp.ID(0, 15), sp.ID(29, 15)
	d := NewIncremental(sp, start, goal, heur2(sp))
	path, cost0, err := d.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost0-29) > 1e-9 {
		t.Fatalf("open-row cost %v, want 29", cost0)
	}

	// Drop a wall across the planned path, leaving a gap at the top.
	var changed []int
	for y := 2; y < 30; y++ {
		g.Set(15, y, true)
		changed = append(changed, sp.ID(15, y))
	}
	d.NotifyChanged(changed...)
	path, cost1, err := d.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if cost1 <= cost0 {
		t.Fatalf("repair cost %v did not grow past %v", cost1, cost0)
	}
	// The repaired path must be valid and match a from-scratch A*.
	for i, id := range path {
		x, y := sp.Cell(id)
		if g.Occupied(x, y) {
			t.Fatalf("repaired path cell %d occupied", i)
		}
	}
	fresh, err2 := Solve(Problem{Space: sp, Start: start, Goal: goal, H: sp.OctileHeuristic(29, 15)})
	if err2 != nil {
		t.Fatal(err2)
	}
	if math.Abs(fresh.Cost-cost1) > 1e-9 {
		t.Fatalf("repaired cost %v != fresh optimal %v", cost1, fresh.Cost)
	}
}

func TestDStarRepairCheaperThanReplan(t *testing.T) {
	// On a big map with a small perturbation, the repair must expand far
	// fewer vertices than a fresh search.
	g := maps2Big()
	sp := &Grid2DSpace{G: g}
	start, goal := sp.ID(2, 2), sp.ID(g.W-3, g.H-3)
	d := NewIncremental(sp, start, goal, heur2(sp))
	if _, _, err := d.Plan(); err != nil {
		t.Fatal(err)
	}
	initialExpanded := d.Expanded

	// Small local change near the path's middle.
	cx, cy := g.W/2, g.H/2
	var changed []int
	for dy := 0; dy < 3; dy++ {
		g.Set(cx, cy+dy, true)
		changed = append(changed, sp.ID(cx, cy+dy))
	}
	d.NotifyChanged(changed...)
	if _, _, err := d.Plan(); err != nil {
		t.Fatal(err)
	}
	repairExpanded := d.Expanded - initialExpanded

	fresh, err := Solve(Problem{Space: sp, Start: start, Goal: goal, H: sp.OctileHeuristic(g.W-3, g.H-3)})
	if err != nil {
		t.Fatal(err)
	}
	if repairExpanded*3 > fresh.Expanded {
		t.Fatalf("repair expanded %d, fresh search %d — no reuse", repairExpanded, fresh.Expanded)
	}
}

func maps2Big() *grid.Grid2D {
	g := grid.NewGrid2D(120, 120)
	r := rng.New(7)
	for i := 0; i < 1500; i++ {
		g.Set(r.Intn(120), r.Intn(120), true)
	}
	g.Set(2, 2, false)
	g.Set(117, 117, false)
	return g
}

func TestDStarMoveTo(t *testing.T) {
	g := grid.NewGrid2D(20, 20)
	sp := &Grid2DSpace{G: g}
	start, goal := sp.ID(0, 0), sp.ID(19, 19)
	d := NewIncremental(sp, start, goal, heur2(sp))
	path, _, err := d.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// Advance the robot three steps along the path and replan.
	d.MoveTo(path[3])
	p2, cost2, err := d.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p2[0] != path[3] {
		t.Fatal("replanned path does not start at the robot")
	}
	want := 19*math.Sqrt2 - heur2(sp)(start, path[3])
	if math.Abs(cost2-want) > 1e-6 {
		t.Fatalf("cost after move %v, want %v", cost2, want)
	}
}

func TestDStarNoPath(t *testing.T) {
	g := grid.NewGrid2D(10, 10)
	for y := 0; y < 10; y++ {
		g.Set(5, y, true)
	}
	sp := &Grid2DSpace{G: g}
	d := NewIncremental(sp, sp.ID(0, 0), sp.ID(9, 9), heur2(sp))
	if _, _, err := d.Plan(); err != ErrNoPath {
		t.Fatalf("err = %v", err)
	}
	// Opening a door makes it solvable after notification.
	g.Set(5, 4, false)
	d.NotifyChanged(sp.ID(5, 4))
	if _, _, err := d.Plan(); err != nil {
		t.Fatalf("after opening: %v", err)
	}
}

func TestDStarRequiresSized(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsized space accepted")
		}
	}()
	NewIncremental(unsized{lineGraph{5}}, 0, 4, func(a, b int) float64 { return 0 })
}
