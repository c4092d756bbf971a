package search

import "math"

// This file freezes the search as it was before records moved onto pages:
// flat per-state arrays for g, parent and the closed flag, and a binary heap
// with a flat position index, sifted by pairwise swaps. It is the oracle the
// paged search must match bit for bit, expansion order and ties included.

// refHeap is the reference indexed min-heap over [0, universe).
type refHeap struct {
	items []int
	prio  []float64
	pos   []int32 // heap slot + 1; 0 = absent
}

func newRefHeap(universe int) *refHeap { return &refHeap{pos: make([]int32, universe)} }

func (h *refHeap) Len() int { return len(h.items) }

func (h *refHeap) Contains(item int) bool { return h.pos[item] != 0 }

func (h *refHeap) Push(item int, priority float64) {
	if h.pos[item] != 0 {
		panic("refHeap: Push of item already in heap")
	}
	h.items = append(h.items, item)
	h.prio = append(h.prio, priority)
	h.pos[item] = int32(len(h.items))
	h.up(len(h.items) - 1)
}

func (h *refHeap) Update(item int, priority float64) {
	if h.pos[item] == 0 {
		h.Push(item, priority)
		return
	}
	i := int(h.pos[item]) - 1
	old := h.prio[i]
	h.prio[i] = priority
	if priority < old {
		h.up(i)
	} else if priority > old {
		h.down(i)
	}
}

func (h *refHeap) Peek() (int, float64) { return h.items[0], h.prio[0] }

func (h *refHeap) Pop() (item int, priority float64) {
	item, priority = h.items[0], h.prio[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	h.prio = h.prio[:last]
	h.pos[item] = 0
	if last > 0 {
		h.down(0)
	}
	return item, priority
}

func (h *refHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
	h.pos[h.items[i]] = int32(i + 1)
	h.pos[h.items[j]] = int32(j + 1)
}

func (h *refHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[parent] <= h.prio[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *refHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.prio[l] < h.prio[smallest] {
			smallest = l
		}
		if r < n && h.prio[r] < h.prio[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// refBook is the reference per-state bookkeeping: par stores parent+1,
// 0 = unvisited, and g is only meaningful where par != 0.
type refBook struct {
	g      []float64
	par    []uint32
	closed []bool
}

func newRefBook(n int) *refBook {
	return &refBook{g: make([]float64, n), par: make([]uint32, n), closed: make([]bool, n)}
}

func (b *refBook) reconstruct(start, goal int) []int {
	var rev []int
	for id := goal; ; id = int(b.par[id]) - 1 {
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

// refSolve is the reference best-first search (Solve's contract).
func refSolve(p Problem) (Result, error) {
	n := p.Space.(Sized).NumStates()
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
	book, open := newRefBook(n), newRefHeap(n)
	book.g[p.Start] = 0
	book.par[p.Start] = uint32(p.Start + 1)
	open.Push(p.Start, w*h(p.Start))

	var res Result
	for open.Len() > 0 {
		id, _ := open.Pop()
		if book.closed[id] {
			continue
		}
		book.closed[id] = true
		res.Expanded++
		if isGoal(id) {
			res.Found = true
			res.Cost = book.g[id]
			res.Path = book.reconstruct(p.Start, id)
			return res, nil
		}
		if p.MaxExpansions > 0 && res.Expanded >= p.MaxExpansions {
			break
		}
		gid := book.g[id]
		p.Space.Neighbors(id, func(to int, cost float64) {
			res.Genered++
			if book.closed[to] {
				return
			}
			ng := gid + cost
			if book.par[to] != 0 && book.g[to] <= ng {
				return
			}
			book.g[to] = ng
			book.par[to] = uint32(id + 1)
			open.Update(to, ng+w*h(to))
		})
	}
	return res, ErrNoPath
}

// refSolveAnytime is the reference ARA* (SolveAnytime's contract).
func refSolveAnytime(p Problem, schedule []float64) ([]AnytimeResult, error) {
	n := p.Space.(Sized).NumStates()
	if len(schedule) == 0 {
		schedule = []float64{1}
	}
	h := p.H
	if h == nil {
		h = func(int) float64 { return 0 }
	}
	book, open := newRefBook(n), newRefHeap(n)
	book.g[p.Start] = 0
	book.par[p.Start] = uint32(p.Start + 1)
	goal := p.Goal
	gGoal := func() float64 {
		if book.par[goal] != 0 {
			return book.g[goal]
		}
		return math.Inf(1)
	}

	var results []AnytimeResult
	var incons []int
	closedRound := map[int]int{}
	round := 0
	open.Push(p.Start, schedule[0]*h(p.Start))
	for _, eps := range schedule {
		round++
		for _, id := range incons {
			if !open.Contains(id) {
				open.Push(id, 0)
			}
		}
		incons = incons[:0]
		var ids []int
		for open.Len() > 0 {
			id, _ := open.Pop()
			ids = append(ids, id)
		}
		for _, id := range ids {
			open.Push(id, book.g[id]+eps*h(id))
		}

		expanded := 0
		for open.Len() > 0 {
			_, minKey := open.Peek()
			if gGoal() <= minKey {
				break
			}
			id, _ := open.Pop()
			if closedRound[id] == round {
				continue
			}
			closedRound[id] = round
			expanded++
			gid := book.g[id]
			p.Space.Neighbors(id, func(to int, cost float64) {
				ng := gid + cost
				if book.par[to] != 0 && book.g[to] <= ng {
					return
				}
				book.g[to] = ng
				book.par[to] = uint32(id + 1)
				if closedRound[to] == round {
					incons = append(incons, to)
					return
				}
				open.Update(to, ng+eps*h(to))
			})
		}
		if math.IsInf(gGoal(), 1) {
			return results, ErrNoPath
		}
		results = append(results, AnytimeResult{
			Epsilon:  eps,
			Path:     book.reconstruct(p.Start, goal),
			Cost:     gGoal(),
			Expanded: expanded,
		})
	}
	return results, nil
}
