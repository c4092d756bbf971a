// Package movtar implements kernel 06.movtar: planning to catch a moving
// target (paper §V.6). The environment is 2D with per-cell traversal costs;
// planning happens in 3D with time as the third dimension. The robot knows
// the target's trajectory and must intercept it at minimum cost.
//
// Before the search, a backward Dijkstra pass computes an environment-aware
// heuristic field ("accounting for obstacles"); the search itself is
// Weighted A* with the heuristic inflated by ε. The paper's evaluation
// highlights that the heuristic precomputation's share of end-to-end time
// is input-dependent: up to 62% on small environments, vanishing on large
// ones where the space-time search dominates — the size sweep in
// cmd/report and the benchmarks reproduce that crossover.
package movtar

import (
	"context"
	"errors"
	"math"

	"repro/internal/check"
	"repro/internal/grid"
	"repro/internal/maps"
	"repro/internal/pq"
	"repro/internal/profile"
	"repro/internal/search"
)

// Config parameterizes a pursuit run.
type Config struct {
	// Terrain is the cost landscape; nil builds the default synthetic
	// terrain of the given Size.
	Terrain *grid.CostGrid2D
	// Size is the square terrain edge used when Terrain is nil.
	Size int
	// Epsilon is the Weighted A* inflation factor (paper's ε).
	Epsilon float64
	// TargetPeriod is how many robot steps pass per target step; 2 makes
	// the robot twice as fast as the target, guaranteeing interception is
	// possible.
	TargetPeriod int
	// MaxTime caps the planning horizon in robot steps (0 = auto).
	MaxTime int
	Seed    int64
}

// Validate reports every bound and finiteness violation in the config,
// including a synthetic terrain too large for the space-time search.
func (c Config) Validate() error {
	f := check.New("movtar")
	if math.IsNaN(c.Epsilon) || math.IsInf(c.Epsilon, 0) || c.Epsilon < 1 {
		f.Addf("Epsilon must be a finite inflation >= 1 (got %v)", c.Epsilon)
	}
	f.NonNegativeInt("Size", c.Size)
	f.NonNegativeInt("TargetPeriod", c.TargetPeriod)
	f.NonNegativeInt("MaxTime", c.MaxTime)
	if c.Terrain == nil && c.Size > 0 {
		if v := minStates(c.Size, c.TargetPeriod, c.MaxTime); v > float64(search.MaxStates) {
			f.Addf("Size %d needs at least %.4g space-time states, more than the %d the search can address",
				c.Size, v, search.MaxStates)
		}
	}
	return f.Err()
}

// minStates is a lower bound on the space-time volume W·H·T of the default
// terrain of edge n: without an explicit MaxTime the horizon is at least a
// map crossing plus one target step (see Run).
func minStates(n, period, maxTime int) float64 {
	if maxTime <= 0 {
		if period <= 0 {
			period = 2
		}
		maxTime = 2*n + period
	}
	return float64(n) * float64(n) * float64(maxTime)
}

// DefaultConfig returns a mid-sized pursuit problem.
func DefaultConfig() Config {
	return Config{
		Size:         256,
		Epsilon:      2.0,
		TargetPeriod: 2,
		Seed:         1,
	}
}

// Result reports the pursuit outcome and workload statistics.
type Result struct {
	Found bool
	// CatchTime is the interception time in robot steps.
	CatchTime int
	// PathCost is the accumulated traversal cost of the robot's path.
	PathCost float64
	// Expanded counts space-time states expanded by WA*.
	Expanded int
	// HeuristicCells counts cells settled by the backward Dijkstra pass.
	HeuristicCells int
	// TargetPathLen is the length of the target's trajectory in cells.
	TargetPathLen int
}

// Run executes the kernel. Harness phases: "heuristic" (backward Dijkstra
// field) and "search" (space-time Weighted A*). A cancelled ctx aborts
// either phase promptly, returning ctx.Err().
func Run(ctx context.Context, cfg Config, prof *profile.Profile) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	terrain := cfg.Terrain
	if terrain == nil {
		size := cfg.Size
		if size <= 0 {
			size = 256
		}
		terrain = maps.MovtarTerrain(size, size, cfg.Seed)
	}
	pu, err := newPursuit(terrain, cfg.TargetPeriod, cfg.MaxTime)
	if err != nil {
		return Result{}, err
	}
	res := Result{TargetPathLen: len(pu.targetPath)}

	prof.BeginROI()

	prof.Begin("heuristic")
	hField, cells, err := pu.heuristic(ctx)
	res.HeuristicCells = cells
	prof.End()
	if err != nil {
		prof.EndROI()
		return res, err
	}
	if math.IsInf(hField[pu.start], 1) {
		prof.EndROI()
		return res, errors.New("movtar: robot start cannot reach the target trajectory")
	}

	prof.Begin("search")
	sr, serr := pu.search(ctx, hField, cfg.Epsilon)
	prof.End()
	prof.StepDone()
	prof.EndROI()

	res.Found = sr.Found
	res.Expanded = sr.Expanded
	if sr.Found {
		res.PathCost = sr.Cost
		res.CatchTime = sr.Path[len(sr.Path)-1] / (terrain.W * terrain.H)
	}
	if serr != nil {
		return res, serr
	}
	return res, nil
}

// pursuit is one interception problem: the terrain, the target's route, the
// robot's start cell and the planning horizon.
type pursuit struct {
	cspace     *search.CostGrid2DSpace
	targetPath []int
	period     int
	start      int
	maxTime    int
}

// newPursuit plans the target's route and fixes the horizon. The target
// walks a minimum-cost route along the far side of the map (away from the
// robot's corner), computed on the same terrain, then waits at its
// destination. The robot must chase across the map, so interception effort
// scales with the environment.
func newPursuit(terrain *grid.CostGrid2D, period, maxTime int) (*pursuit, error) {
	if period <= 0 {
		period = 2
	}
	w, h := terrain.W, terrain.H
	cspace := &search.CostGrid2DSpace{C: terrain}
	tStart := passableNear(terrain, w-2, 1)
	tGoal := passableNear(terrain, w-2, h-2)
	tr, err := search.Solve(search.Problem{
		Space: cspace,
		Start: cspace.ID(tStart[0], tStart[1]),
		Goal:  cspace.ID(tGoal[0], tGoal[1]),
	})
	if err != nil {
		return nil, errors.New("movtar: could not build a target trajectory")
	}
	if maxTime <= 0 {
		// The robot is `period`× faster than the target, so chasing it to
		// the end of its route plus a map crossing always suffices.
		maxTime = period*len(tr.Path) + (w + h)
	}
	rs := passableNear(terrain, 1, 1)
	return &pursuit{
		cspace: cspace, targetPath: tr.Path,
		period: period, start: cspace.ID(rs[0], rs[1]), maxTime: maxTime,
	}, nil
}

// heuristic runs the backward Dijkstra pass: the minimum traversal cost from
// every cell to any cell the target ever visits (multi-source). It returns
// the field and the number of cells settled.
func (pu *pursuit) heuristic(ctx context.Context) ([]float64, int, error) {
	cspace := pu.cspace
	hField := make([]float64, cspace.NumStates())
	for i := range hField {
		hField[i] = math.Inf(1)
	}
	open := pq.NewIndexedHeap(cspace.NumStates())
	for _, id := range pu.targetPath {
		hField[id] = 0
		open.Update(id, 0)
	}
	cells := 0
	for open.Len() > 0 {
		if cells%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return hField, cells, err
			}
		}
		id, d := open.Pop()
		cells++
		cspace.Neighbors(id, func(to int, cost float64) {
			if nd := d + cost; nd < hField[to] {
				hField[to] = nd
				open.Update(to, nd)
			}
		})
	}
	return hField, cells, nil
}

// search runs the space-time Weighted A*: state = (x, y, t). The robot moves
// 8-connected or waits; the target advances every `period` steps.
func (pu *pursuit) search(ctx context.Context, hField []float64, eps float64) (search.Result, error) {
	plane := pu.cspace.NumStates()
	targetAt := func(t int) int {
		i := t / pu.period
		if i >= len(pu.targetPath) {
			i = len(pu.targetPath) - 1
		}
		return pu.targetPath[i]
	}
	return search.Solve(search.Problem{
		Space: &pursuitSpace{terrain: pu.cspace.C, maxTime: pu.maxTime},
		Start: pu.start, // t = 0
		IsGoal: func(id int) bool {
			return id%plane == targetAt(id/plane)
		},
		H:      func(id int) float64 { return hField[id%plane] },
		Weight: eps,
		Ctx:    ctx,
	})
}

// pursuitSpace is the space-time graph: id = t*(W*H) + y*W + x.
type pursuitSpace struct {
	terrain *grid.CostGrid2D
	maxTime int
}

// NumStates implements search.Sized: the space-time volume W·H·maxTime.
func (s *pursuitSpace) NumStates() int { return s.terrain.W * s.terrain.H * s.maxTime }

// Neighbors implements search.Space. Waiting costs the cell's own traversal
// cost (time is never free), moves cost step length times the destination
// cell cost.
func (s *pursuitSpace) Neighbors(id int, yield func(to int, cost float64)) {
	w, h := s.terrain.W, s.terrain.H
	plane := w * h
	cell := id % plane
	t := id / plane
	if t+1 >= s.maxTime {
		return
	}
	x, y := cell%w, cell/w
	next := (t + 1) * plane

	// Wait in place.
	yield(next+cell, s.terrain.Cost(x, y))

	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			nx, ny := x+dx, y+dy
			c := s.terrain.Cost(nx, ny)
			if math.IsInf(c, 1) {
				continue
			}
			step := 1.0
			if dx != 0 && dy != 0 {
				step = math.Sqrt2
			}
			yield(next+ny*w+nx, step*c)
		}
	}
}

func passableNear(c *grid.CostGrid2D, x, y int) [2]int {
	for r := 0; r < c.W+c.H; r++ {
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				nx, ny := x+dx, y+dy
				if c.InBounds(nx, ny) && c.Passable(nx, ny) {
					return [2]int{nx, ny}
				}
			}
		}
	}
	panic("movtar: no passable cell")
}
