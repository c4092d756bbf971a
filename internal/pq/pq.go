// Package pq provides the priority queues behind every graph-search kernel
// in the suite (A*, Dijkstra, Weighted A*, and the backward-Dijkstra
// heuristic of the moving-target planner).
//
// IndexedHeap supports decrease-key over a dense item universe and carries
// each item's search record, so the search substrates keep one record per
// touched state and reorder open nodes in place instead of pushing
// duplicates; Heap is a plain binary min-heap for callers that do not need
// addressability.
package pq

import "math"

// MaxUniverse is the largest item universe an IndexedHeap accepts. Items
// are stored as uint32 and callers keep item+1 in Record.Parent, so the
// largest item must leave room for that.
const MaxUniverse uint64 = math.MaxUint32 - 1

// Records live on pages of 1<<pageBits, allocated the first time an item on
// the page is touched.
const (
	pageBits = 10
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Record is the per-item state an IndexedHeap carries for its caller: 16
// bytes, one per touched item. G and Parent belong to the caller and the
// heap never reads them; the graph searches keep the cost-so-far in G and
// the parent item + 1 in Parent (0 = never reached). pos is the heap's:
// slot + 1 while the item is queued, 0 when it is not, −1 once closed.
type Record struct {
	G      float64
	Parent uint32
	pos    int32
}

// Closed reports whether the record was closed and not reopened since.
func (r *Record) Closed() bool { return r.pos < 0 }

// Close marks a record that is not queued as closed. It panics if the item
// is still in the heap.
func (r *Record) Close() {
	if r.pos > 0 {
		panic("pq: Close of item still in heap")
	}
	r.pos = -1
}

// Reopen clears a record's closed mark.
func (r *Record) Reopen() {
	if r.pos < 0 {
		r.pos = 0
	}
}

type entry struct {
	prio float64
	item uint32
}

// IndexedHeap is a binary min-heap of the items [0, universe) keyed by
// float64 priorities, with O(log n) decrease-key. Each item may appear at
// most once; its heap position lives in its Record, so a queued item costs
// one 16-byte entry plus its record.
//
// Record pages sit under a directory of universe/1024 pointers and are only
// allocated when touched, so the heap's memory follows the items a search
// reaches, not the size of the universe it searches.
type IndexedHeap struct {
	dir  []*[pageSize]Record
	heap []entry
}

// NewIndexedHeap returns an empty heap over the items [0, universe). It
// panics if universe is negative or above MaxUniverse.
func NewIndexedHeap(universe int) *IndexedHeap {
	if universe < 0 || uint64(universe) > MaxUniverse {
		panic("pq: IndexedHeap universe out of range")
	}
	return &IndexedHeap{dir: make([]*[pageSize]Record, (universe+pageMask)>>pageBits)}
}

// Rec returns item's record, allocating its page on first touch. The
// pointer stays valid until Reset.
func (h *IndexedHeap) Rec(item int) *Record {
	p := h.dir[item>>pageBits]
	if p == nil {
		p = new([pageSize]Record)
		h.dir[item>>pageBits] = p
	}
	return &p[item&pageMask]
}

// lookup returns item's record, or nil when its page was never touched.
func (h *IndexedHeap) lookup(item int) *Record {
	if p := h.dir[item>>pageBits]; p != nil {
		return &p[item&pageMask]
	}
	return nil
}

// at returns the record of a queued item, whose page exists.
func (h *IndexedHeap) at(item uint32) *Record {
	return &h.dir[item>>pageBits][item&pageMask]
}

// Len returns the number of items in the heap.
func (h *IndexedHeap) Len() int { return len(h.heap) }

// Reset empties the heap and zeroes every record while keeping the pages
// and the heap's capacity, so a search loop can reuse one heap across
// episodes without reallocating.
func (h *IndexedHeap) Reset() {
	for _, p := range h.dir {
		if p != nil {
			*p = [pageSize]Record{}
		}
	}
	h.heap = h.heap[:0]
}

// Contains reports whether item is in the heap.
func (h *IndexedHeap) Contains(item int) bool {
	r := h.lookup(item)
	return r != nil && r.pos > 0
}

// Priority returns the current priority of item; ok is false if the item is
// absent.
func (h *IndexedHeap) Priority(item int) (p float64, ok bool) {
	r := h.lookup(item)
	if r == nil || r.pos <= 0 {
		return 0, false
	}
	return h.heap[r.pos-1].prio, true
}

// Push inserts item with the given priority; pushing a closed item reopens
// it. If the item is already present it panics; use Update for upserts.
func (h *IndexedHeap) Push(item int, priority float64) {
	r := h.Rec(item)
	if r.pos > 0 {
		panic("pq: Push of item already in heap")
	}
	h.push(r, item, priority)
}

func (h *IndexedHeap) push(r *Record, item int, priority float64) {
	if len(h.heap) >= math.MaxInt32-1 {
		panic("pq: IndexedHeap full")
	}
	h.heap = append(h.heap, entry{priority, uint32(item)})
	r.pos = int32(len(h.heap))
	h.up(len(h.heap) - 1)
}

// Update inserts item or changes its priority (either direction).
func (h *IndexedHeap) Update(item int, priority float64) {
	r := h.Rec(item)
	if r.pos <= 0 {
		h.push(r, item, priority)
		return
	}
	i := int(r.pos - 1)
	old := h.heap[i].prio
	h.heap[i].prio = priority
	if priority < old {
		h.up(i)
	} else if priority > old {
		h.down(i)
	}
}

// Peek returns the minimum item without removing it. It panics on an empty
// heap.
func (h *IndexedHeap) Peek() (item int, priority float64) {
	if len(h.heap) == 0 {
		panic("pq: Peek of empty heap")
	}
	return int(h.heap[0].item), h.heap[0].prio
}

// Pop removes and returns the item with the smallest priority. It panics on
// an empty heap.
func (h *IndexedHeap) Pop() (item int, priority float64) {
	if len(h.heap) == 0 {
		panic("pq: Pop from empty heap")
	}
	top := h.heap[0]
	last := len(h.heap) - 1
	h.at(top.item).pos = 0
	if last > 0 {
		h.heap[0] = h.heap[last]
		h.heap = h.heap[:last]
		h.down(0)
	} else {
		h.heap = h.heap[:0]
	}
	return int(top.item), top.prio
}

// up and down move the entry at slot i by shifting the entries it passes
// instead of swapping pairwise; the comparisons are those of a pairwise
// swap (<= stops up, a strictly smaller child wins in down, the left child
// first), so the heap order, ties included, is that of the classic sift.
func (h *IndexedHeap) up(i int) {
	e := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.heap[parent].prio <= e.prio {
			break
		}
		h.heap[i] = h.heap[parent]
		h.at(h.heap[i].item).pos = int32(i + 1)
		i = parent
	}
	h.heap[i] = e
	h.at(e.item).pos = int32(i + 1)
}

func (h *IndexedHeap) down(i int) {
	n := len(h.heap)
	e := h.heap[i]
	for {
		l, r := 2*i+1, 2*i+2
		smallest, sp := i, e.prio
		if l < n && h.heap[l].prio < sp {
			smallest, sp = l, h.heap[l].prio
		}
		if r < n && h.heap[r].prio < sp {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.heap[i] = h.heap[smallest]
		h.at(h.heap[i].item).pos = int32(i + 1)
		i = smallest
	}
	h.heap[i] = e
	h.at(e.item).pos = int32(i + 1)
}

// Heap is a plain binary min-heap of arbitrary values keyed by float64
// priorities. Duplicate values are allowed.
type Heap[T any] struct {
	vals []T
	prio []float64
}

// NewHeap returns an empty heap with capacity hint n.
func NewHeap[T any](n int) *Heap[T] {
	return &Heap[T]{vals: make([]T, 0, n), prio: make([]float64, 0, n)}
}

// Len returns the number of items in the heap.
func (h *Heap[T]) Len() int { return len(h.vals) }

// Reset empties the heap while retaining its allocated capacity. Values of
// pointer-bearing types stay referenced by the backing array until
// overwritten by later pushes.
func (h *Heap[T]) Reset() {
	h.vals = h.vals[:0]
	h.prio = h.prio[:0]
}

// Push inserts v with the given priority.
func (h *Heap[T]) Push(v T, priority float64) {
	h.vals = append(h.vals, v)
	h.prio = append(h.prio, priority)
	i := len(h.vals) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[parent] <= h.prio[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// Pop removes and returns the value with the smallest priority.
func (h *Heap[T]) Pop() (v T, priority float64) {
	if len(h.vals) == 0 {
		panic("pq: Pop from empty heap")
	}
	v, priority = h.vals[0], h.prio[0]
	last := len(h.vals) - 1
	h.swap(0, last)
	h.vals = h.vals[:last]
	h.prio = h.prio[:last]
	i := 0
	n := last
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
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return v, priority
}

// Peek returns the minimum value without removing it.
func (h *Heap[T]) Peek() (v T, priority float64) {
	if len(h.vals) == 0 {
		panic("pq: Peek of empty heap")
	}
	return h.vals[0], h.prio[0]
}

func (h *Heap[T]) swap(i, j int) {
	h.vals[i], h.vals[j] = h.vals[j], h.vals[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
}
