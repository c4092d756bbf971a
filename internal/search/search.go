// Package search implements the best-first graph search algorithms that
// drive the planning kernels: A* (pp2d, pp3d, prm, symbolic planning),
// Dijkstra, Weighted A* (the moving-target kernel inflates its heuristic by
// ε, per Pohl 1970), and the backward-Dijkstra heuristic field the
// moving-target kernel precomputes "in an environment-aware manner".
//
// The search is generic over a Space whose states are the integer IDs
// [0, NumStates); successors are produced through a callback so that hot
// loops do not allocate. The bookkeeping is one 16-byte pq.Record per state
// the search touches (cost-so-far, parent, open/closed position), kept on
// pages allocated on first touch, so its memory follows the states a search
// reaches rather than the size of the space.
package search

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/pq"
)

// Space is a directed graph over integer state IDs.
type Space interface {
	// Neighbors invokes yield for every successor of id with the edge cost.
	Neighbors(id int, yield func(to int, cost float64))
}

// Sized is implemented by spaces with a known, dense state range [0, n).
// Every search in this package requires it.
type Sized interface {
	NumStates() int
}

// Heuristic estimates cost-to-goal from a state. It must be non-negative;
// admissibility is required only for optimality, not correctness.
type Heuristic func(id int) float64

// Problem describes one search episode.
type Problem struct {
	Space Space
	Start int

	// Goal is the target state used when IsGoal is nil.
	Goal int
	// IsGoal, when non-nil, generalizes the goal test (the moving-target
	// kernel accepts any state that intercepts the target's trajectory).
	IsGoal func(id int) bool

	// H is the heuristic; nil runs Dijkstra.
	H Heuristic
	// Weight inflates the heuristic (Weighted A*). Values <= 1 mean plain
	// A*. The paper's movtar kernel uses ε > 1 to trade path cost for
	// search speed.
	Weight float64

	// MaxExpansions aborts the search after this many expansions
	// (0 = unlimited).
	MaxExpansions int

	// Ctx, when non-nil, cancels the search: Solve polls it every
	// ctxCheckStride expansions and returns the partial Result with
	// Ctx.Err(). A nil Ctx is never polled (no overhead).
	Ctx context.Context
}

// Result reports the outcome of a search.
type Result struct {
	Found    bool
	Path     []int // start..goal, empty when !Found
	Cost     float64
	Expanded int // states popped from the open list
	Genered  int // successor edges generated
}

// ErrNoPath is returned when the goal is unreachable.
var ErrNoPath = errors.New("search: no path to goal")

// MaxStates is the largest state count a search can address: records keep
// parents as 32-bit state IDs.
const MaxStates = pq.MaxUniverse

// ErrTooManyStates is returned for a space with more than MaxStates states.
var ErrTooManyStates = errors.New("search: space too large")

// ctxCheckStride bounds how stale a cancellation can go unnoticed: the
// context is polled once per this many expansions, keeping the check off
// the per-neighbor fast path while still aborting within microseconds.
const ctxCheckStride = 1024

// Solve runs best-first search on p, whose Space must be Sized. It returns
// ErrNoPath when the open list empties (or MaxExpansions is hit) without
// reaching a goal state, and ErrTooManyStates for a space of more than
// MaxStates states.
func Solve(p Problem) (Result, error) {
	open, err := newOpen(p.Space)
	if err != nil {
		return Result{}, err
	}
	isGoal := p.IsGoal
	if isGoal == nil {
		goal := p.Goal
		isGoal = func(id int) bool { return id == goal }
	}
	h := p.H
	if h == nil {
		h = func(int) float64 { return 0 }
	}
	w := p.Weight
	if w < 1 {
		w = 1
	}

	open.Rec(p.Start).Parent = uint32(p.Start) + 1 // the start is its own parent
	open.Push(p.Start, w*h(p.Start))

	var res Result
	// One relax closure for the whole search: a closure built per
	// expansion escapes through the Space interface and allocates.
	var gid float64
	var parent uint32
	relax := func(to int, cost float64) {
		res.Genered++
		if cost < 0 {
			panic("search: negative edge cost")
		}
		t := open.Rec(to)
		if t.Closed() {
			return
		}
		ng := gid + cost
		if t.Parent != 0 && t.G <= ng {
			return
		}
		t.G = ng
		t.Parent = parent
		open.Update(to, ng+w*h(to))
	}
	for open.Len() > 0 {
		if p.Ctx != nil && res.Expanded%ctxCheckStride == 0 {
			if err := p.Ctx.Err(); err != nil {
				return res, err
			}
		}
		// Closed states are never queued again, so every pop is a first
		// expansion.
		id, _ := open.Pop()
		r := open.Rec(id)
		r.Close()
		res.Expanded++

		if isGoal(id) {
			res.Found = true
			res.Cost = r.G
			res.Path = reconstruct(open, p.Start, id)
			return res, nil
		}
		if p.MaxExpansions > 0 && res.Expanded >= p.MaxExpansions {
			break
		}

		gid, parent = r.G, uint32(id)+1
		p.Space.Neighbors(id, relax)
	}
	return res, ErrNoPath
}

// newOpen returns the open list, with one record per state, for a search
// over sp. It panics if sp is not Sized: every space in the suite is.
func newOpen(sp Space) (*pq.IndexedHeap, error) {
	s, ok := sp.(Sized)
	if !ok || s.NumStates() <= 0 {
		panic("search: the search requires a Sized space")
	}
	if n := s.NumStates(); uint64(n) > MaxStates {
		return nil, fmt.Errorf("%w: %d states, at most %d fit a 32-bit parent ID", ErrTooManyStates, n, MaxStates)
	}
	return pq.NewIndexedHeap(s.NumStates()), nil
}

func reconstruct(open *pq.IndexedHeap, start, goal int) []int {
	var rev []int
	for id := goal; ; id = int(open.Rec(id).Parent) - 1 {
		rev = append(rev, id)
		if id == start {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// DijkstraAll computes the cost of the cheapest path from source to every
// reachable state of a sized space. Unreached states report +Inf.
//
// The moving-target kernel runs this backward from the goal region over the
// reversed graph to obtain its environment-aware heuristic field ("before
// starting planning, the backward Dijkstra algorithm is executed to
// calculate the heuristic values").
func DijkstraAll(sp Space, source int) []float64 {
	sized, ok := sp.(Sized)
	if !ok {
		panic("search: DijkstraAll requires a Sized space")
	}
	n := sized.NumStates()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	open := pq.NewIndexedHeap(n)
	dist[source] = 0
	open.Push(source, 0)
	for open.Len() > 0 {
		id, d := open.Pop()
		sp.Neighbors(id, func(to int, cost float64) {
			nd := d + cost
			if nd < dist[to] {
				dist[to] = nd
				open.Update(to, nd)
			}
		})
	}
	return dist
}
