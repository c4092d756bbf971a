package grid_test

import (
	"math"
	"testing"

	"repro/internal/core/pfl"
	"repro/internal/grid"
	"repro/internal/maps"
	"repro/internal/rng"
)

// refRaycastCells is the bounds-checked DDA walk that RaycastCells replaced,
// frozen as the differential oracle: separate Cos and Sin, an x/y cell pair,
// and an Occupied call (which treats out-of-bounds cells as walls) per cell.
func refRaycastCells(g *grid.Grid2D, ox, oy, theta, maxRange float64) (dist float64, cells int) {
	dx := math.Cos(theta)
	dy := math.Sin(theta)
	x, y := g.WorldToCell(ox, oy)
	if g.Occupied(x, y) {
		return 0, 1
	}
	stepX, stepY := 1, 1
	if dx < 0 {
		stepX = -1
	}
	if dy < 0 {
		stepY = -1
	}
	res := g.Resolution
	tMaxX, tDeltaX := refAxisInit(ox, dx, res)
	tMaxY, tDeltaY := refAxisInit(oy, dy, res)
	for {
		var t float64
		if tMaxX < tMaxY {
			t = tMaxX
			tMaxX += tDeltaX
			x += stepX
		} else {
			t = tMaxY
			tMaxY += tDeltaY
			y += stepY
		}
		cells++
		if t > maxRange {
			return maxRange, cells
		}
		if g.Occupied(x, y) {
			return t, cells
		}
	}
}

func refAxisInit(o, d, res float64) (tMax, tDelta float64) {
	if d == 0 {
		return math.Inf(1), math.Inf(1)
	}
	cell := math.Floor(o / res)
	var boundary float64
	if d > 0 {
		boundary = (cell + 1) * res
	} else {
		boundary = cell * res
	}
	tMax = (boundary - o) / d
	tDelta = res / math.Abs(d)
	return tMax, tDelta
}

// randomGrid returns a w×h grid at resolution res with roughly density of
// its cells occupied, optionally closed by a one-cell wall border. Without
// the border a ray leaves through the grid edge, which RaycastCells must
// treat exactly like a wall.
func randomGrid(r *rng.RNG, w, h int, res, density float64, border bool) *grid.Grid2D {
	g := grid.NewGrid2D(w, h)
	g.Resolution = res
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			edge := x == 0 || y == 0 || x == w-1 || y == h-1
			g.Set(x, y, (border && edge) || r.Float64() < density)
		}
	}
	return g
}

// checkRaycast compares RaycastCells and Raycast against the oracle bitwise.
func checkRaycast(t *testing.T, g *grid.Grid2D, ox, oy, theta, maxRange float64) {
	t.Helper()
	wantD, wantN := refRaycastCells(g, ox, oy, theta, maxRange)
	gotD, gotN := g.RaycastCells(ox, oy, theta, maxRange)
	if math.Float64bits(gotD) != math.Float64bits(wantD) || gotN != wantN {
		t.Fatalf("%dx%d res %v from (%v, %v) heading %v range %v: RaycastCells = (%v, %d), reference (%v, %d)",
			g.W, g.H, g.Resolution, ox, oy, theta, maxRange, gotD, gotN, wantD, wantN)
	}
	if d := g.Raycast(ox, oy, theta, maxRange); math.Float64bits(d) != math.Float64bits(wantD) {
		t.Fatalf("%dx%d res %v from (%v, %v) heading %v range %v: Raycast = %v, reference %v",
			g.W, g.H, g.Resolution, ox, oy, theta, maxRange, d, wantD)
	}
}

// TestRaycastMatchesReference checks the countdown walk against the frozen
// bounds-checked walk, bit for bit on (dist, cells), over random grids with
// and without a wall border, origins inside, on cell boundaries and outside
// the grid, the axis-aligned headings, and ranges from 0 past the diagonal.
func TestRaycastMatchesReference(t *testing.T) {
	r := rng.New(1)
	headings := []float64{0, math.Copysign(0, -1), math.Pi / 2, -math.Pi / 2, math.Pi, -math.Pi, math.Pi / 4}
	for trial := 0; trial < 200; trial++ {
		res := 1.0
		if trial%2 == 0 {
			res = 0.25
		}
		w, h := 1+r.Intn(40), 1+r.Intn(40)
		g := randomGrid(r, w, h, res, r.Uniform(0, 0.4), trial%4 < 2)
		wm, hm := float64(w)*res, float64(h)*res
		diag := math.Hypot(wm, hm)
		ranges := []float64{0, r.Uniform(0, diag), 2 * diag, math.Inf(1)}
		origins := [][2]float64{
			{r.Uniform(0, wm), r.Uniform(0, hm)},
			// On cell boundaries: one axis, then both.
			{float64(r.Intn(w+1)) * res, r.Uniform(0, hm)},
			{float64(r.Intn(w+1)) * res, float64(r.Intn(h+1)) * res},
			// Outside the grid.
			{-r.Uniform(0, wm), r.Uniform(0, hm)},
			{wm + r.Uniform(0, wm), r.Uniform(-hm, 2*hm)},
		}
		for _, o := range origins {
			for _, mr := range ranges {
				for _, th := range headings {
					checkRaycast(t, g, o[0], o[1], th, mr)
				}
				for k := 0; k < 8; k++ {
					checkRaycast(t, g, o[0], o[1], r.Uniform(-math.Pi, math.Pi), mr)
				}
			}
		}
	}
}

// FuzzRaycastCells differentially checks RaycastCells and Raycast against
// the frozen bounds-checked walk for arbitrary grids, origins, headings and
// ranges, non-finite values included. scripts/ci.sh runs it briefly as a
// smoke test.
func FuzzRaycastCells(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(40), true, false, 20.5, 20.5, 0.3, 30.0)
	f.Add(int64(2), uint8(12), uint8(7), false, true, 1.0, 0.75, math.Pi/2, 0.0)
	f.Add(int64(3), uint8(5), uint8(9), true, false, -2.0, 3.0, math.Pi, 100.0)
	f.Add(int64(4), uint8(1), uint8(1), false, false, 0.5, 0.5, -math.Pi/2, math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, wB, hB uint8, quarter, border bool, ox, oy, theta, maxRange float64) {
		res := 1.0
		if quarter {
			res = 0.25
		}
		r := rng.New(seed)
		g := randomGrid(r, int(wB)%48+1, int(hB)%48+1, res, r.Uniform(0, 0.5), border)
		checkRaycast(t, g, ox, oy, theta, maxRange)
	})
}

// BenchmarkRaycast is the substrate rung under pfl's measurement update:
// rays over pfl's default map from the five building-region centers at 64
// fixed headings, capped at the default laser's range. It reports ns/ray and
// cells/ray and fails unless a ray allocates nothing.
func BenchmarkRaycast(b *testing.B) {
	g := pfl.DefaultMap(1)
	const headings = 64
	maxRange := pfl.DefaultConfig().Laser.MaxRange
	var ox, oy [5]float64
	for i := range ox {
		cx, cy := maps.IndoorRegion(g, i)
		ox[i], oy[i] = g.CellToWorld(cx, cy)
	}
	var cells int
	sweep := func() {
		for i := range ox {
			for k := 0; k < headings; k++ {
				theta := -math.Pi + 2*math.Pi*float64(k)/headings
				_, n := g.RaycastCells(ox[i], oy[i], theta, maxRange)
				cells += n
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
		b.Fatalf("raycast allocates: %v allocs/op", allocs)
	}
	cells = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	rays := float64(b.N) * float64(len(ox)*headings)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rays, "ns/ray")
	b.ReportMetric(float64(cells)/rays, "cells/ray")
}
