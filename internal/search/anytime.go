package search

import (
	"math"

	"repro/internal/pq"
)

// AnytimeResult is one solution of an anytime search: the path found at a
// particular heuristic inflation, with the expansions spent on that
// improvement round (cumulative work is the sum over rounds).
type AnytimeResult struct {
	Epsilon  float64
	Path     []int
	Cost     float64
	Expanded int
}

// SolveAnytime runs ARA* (Anytime Repairing A*, Likhachev et al.): a
// sequence of Weighted-A* searches with decreasing inflation that reuse
// earlier search effort. The first solution arrives with the largest ε in
// the schedule (fast, suboptimal within ε·C*); each subsequent round
// repairs the solution at a smaller ε instead of searching from scratch —
// locally inconsistent states are carried over rather than re-expanded.
//
// The schedule must be non-increasing and end at the final desired bound
// (1.0 for optimal). The problem's IsGoal must be nil (ARA* needs a
// concrete goal state to track f(goal)).
func SolveAnytime(p Problem, schedule []float64) ([]AnytimeResult, error) {
	if p.IsGoal != nil {
		panic("search: SolveAnytime requires a concrete Goal, not IsGoal")
	}
	open, err := newOpen(p.Space)
	if err != nil {
		return nil, err
	}
	if len(schedule) == 0 {
		schedule = []float64{1}
	}
	h := p.H
	if h == nil {
		h = func(int) float64 { return 0 }
	}

	open.Rec(p.Start).Parent = uint32(p.Start) + 1 // the start is its own parent

	goal := open.Rec(p.Goal)
	gGoal := func() float64 {
		if goal.Parent != 0 {
			return goal.G
		}
		return math.Inf(1)
	}

	var results []AnytimeResult
	// incons collects locally inconsistent states discovered while closed;
	// they re-enter OPEN at the next ε.
	var incons []int
	// closed lists the states closed in the current improvement round; the
	// next round reopens them.
	var closed []int

	// One relax closure for the whole search (see Solve).
	var gid, eps float64
	var parent uint32
	relax := func(to int, cost float64) {
		if cost < 0 {
			panic("search: negative edge cost")
		}
		ng := gid + cost
		t := open.Rec(to)
		if t.Parent != 0 && t.G <= ng {
			return
		}
		t.G = ng
		t.Parent = parent
		if t.Closed() {
			// Locally inconsistent: defer to the next round.
			incons = append(incons, to)
			return
		}
		open.Update(to, ng+eps*h(to))
	}

	open.Push(p.Start, schedule[0]*h(p.Start))

	for _, eps = range schedule {
		for _, id := range closed {
			open.Rec(id).Reopen()
		}
		closed = closed[:0]
		// Re-prioritize OPEN under the new ε and merge INCONS into it.
		for _, id := range incons {
			if !open.Contains(id) {
				open.Push(id, 0) // priority fixed below
			}
		}
		incons = incons[:0]
		reprioritize(open, h, eps)

		expanded := 0
		for open.Len() > 0 {
			if p.Ctx != nil && expanded%ctxCheckStride == 0 {
				if err := p.Ctx.Err(); err != nil {
					return results, err
				}
			}
			// Stop when the incumbent is provably within ε of optimal
			// under the current inflation: f(goal) <= min key.
			_, minKey := open.Peek()
			if gGoal() <= minKey {
				break
			}
			// A state closed this round is never queued again within it,
			// so every pop is the round's first expansion of its state.
			id, _ := open.Pop()
			r := open.Rec(id)
			r.Close()
			closed = append(closed, id)
			expanded++
			gid, parent = r.G, uint32(id)+1
			p.Space.Neighbors(id, relax)
		}

		if math.IsInf(gGoal(), 1) {
			return results, ErrNoPath
		}
		results = append(results, AnytimeResult{
			Epsilon:  eps,
			Path:     reconstruct(open, p.Start, p.Goal),
			Cost:     gGoal(),
			Expanded: expanded,
		})
	}
	return results, nil
}

// reprioritize rebuilds OPEN under a new inflation by draining it and
// re-pushing every state with its new priority. O(n log n), amortized
// against the round's expansions.
func reprioritize(open *pq.IndexedHeap, h Heuristic, eps float64) {
	var ids []int
	for open.Len() > 0 {
		id, _ := open.Pop()
		ids = append(ids, id)
	}
	for _, id := range ids {
		open.Push(id, open.Rec(id).G+eps*h(id))
	}
}
