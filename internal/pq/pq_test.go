package pq

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestIndexedHeapSortsRandomInput(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(200)
		h := NewIndexedHeap(n)
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			p := r.Uniform(-100, 100)
			h.Push(i, p)
			want[i] = p
		}
		sort.Float64s(want)
		for i := 0; i < n; i++ {
			_, p := h.Pop()
			if p != want[i] {
				return false
			}
		}
		return h.Len() == 0
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedHeapDecreaseKey(t *testing.T) {
	h := NewIndexedHeap(4)
	h.Push(1, 10)
	h.Push(2, 20)
	h.Push(3, 30)
	h.Update(3, 1) // decrease
	if item, p := h.Pop(); item != 3 || p != 1 {
		t.Fatalf("Pop = (%d, %v), want (3, 1)", item, p)
	}
	h.Update(1, 25) // increase
	if item, _ := h.Pop(); item != 2 {
		t.Fatalf("Pop = %d, want 2", item)
	}
}

func TestIndexedHeapUpdateInsertsWhenAbsent(t *testing.T) {
	h := NewIndexedHeap(16)
	h.Update(7, 3.5)
	if !h.Contains(7) {
		t.Fatal("Update did not insert")
	}
	if p, ok := h.Priority(7); !ok || p != 3.5 {
		t.Fatalf("Priority = (%v, %v)", p, ok)
	}
	if _, ok := h.Priority(8); ok {
		t.Fatal("Priority reported a missing item")
	}
}

func TestIndexedHeapPushDuplicatePanics(t *testing.T) {
	h := NewIndexedHeap(2)
	h.Push(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Push did not panic")
		}
	}()
	h.Push(1, 2)
}

func TestIndexedHeapPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty heap did not panic")
		}
	}()
	NewIndexedHeap(1).Pop()
}

func TestIndexedHeapMixedOpsProperty(t *testing.T) {
	// Interleave pushes, updates, and pops; the popped sequence must be
	// non-decreasing as long as no later update lowers below a prior pop.
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		h := NewIndexedHeap(500)
		present := map[int]bool{}
		next := 0
		lastPopped := -1e18
		for op := 0; op < 500; op++ {
			switch {
			case h.Len() == 0 || r.Float64() < 0.5:
				// Priorities only ever >= lastPopped keeps the invariant
				// testable.
				h.Push(next, lastPopped+r.Uniform(0, 10))
				present[next] = true
				next++
			case r.Float64() < 0.3:
				// Raise a random present item.
				for id := range present {
					if p, ok := h.Priority(id); ok {
						h.Update(id, p+r.Uniform(0, 5))
					}
					break
				}
			default:
				id, p := h.Pop()
				delete(present, id)
				if p < lastPopped-1e-9 {
					return false
				}
				lastPopped = p
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGenericHeapOrdering(t *testing.T) {
	h := NewHeap[string](4)
	h.Push("c", 3)
	h.Push("a", 1)
	h.Push("b", 2)
	if v, p := h.Peek(); v != "a" || p != 1 {
		t.Fatalf("Peek = (%q, %v)", v, p)
	}
	var got []string
	for h.Len() > 0 {
		v, _ := h.Pop()
		got = append(got, v)
	}
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("order = %v", got)
	}
}

func TestGenericHeapDuplicatesAllowed(t *testing.T) {
	h := NewHeap[int](4)
	h.Push(1, 5)
	h.Push(1, 5)
	h.Push(1, 1)
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	if _, p := h.Pop(); p != 1 {
		t.Fatalf("min priority = %v", p)
	}
}

func TestGenericHeapRandomProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(300)
		h := NewHeap[int](n)
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			p := r.Uniform(0, 1)
			h.Push(i, p)
			want[i] = p
		}
		sort.Float64s(want)
		for i := 0; i < n; i++ {
			if _, p := h.Pop(); p != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedHeapReset(t *testing.T) {
	// Items on three pages, so Reset must clear every touched page.
	const n = 3 * pageSize
	h := NewIndexedHeap(n)
	items := []int{0, 5, pageSize - 1, pageSize, 2*pageSize + 7, n - 1}
	for i, it := range items {
		h.Push(it, float64(len(items)-i))
		h.Rec(it).G = 1
		h.Rec(it).Parent = 9
	}
	h.Pop()
	h.Rec(n - 1).Close()
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
	for _, it := range items {
		if h.Contains(it) {
			t.Fatalf("item %d still present after Reset", it)
		}
		if r := h.Rec(it); *r != (Record{}) {
			t.Fatalf("item %d record %+v survived Reset", it, *r)
		}
	}
	// The heap must be fully usable again, including re-pushing the
	// same items, and stay allocation-free within retained capacity and
	// touched pages.
	if allocs := testing.AllocsPerRun(100, func() {
		for _, it := range items {
			h.Push(it, float64(it%7))
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}); allocs != 0 {
		t.Errorf("reused heap allocates %v per episode", allocs)
	}
	h.Push(3, 1.5)
	h.Push(1, 0.5)
	if item, _ := h.Pop(); item != 1 {
		t.Fatalf("Pop after Reset = %d, want 1", item)
	}
}

func TestIndexedHeapPageBoundaries(t *testing.T) {
	// Items straddling page edges, the last item of a universe that ends
	// mid-page, and a universe of exactly one page all keep their own
	// records and come out in priority order.
	for _, n := range []int{1, pageSize, pageSize + 1, 3*pageSize - 5} {
		h := NewIndexedHeap(n)
		var items []int
		for _, it := range []int{0, pageSize - 1, pageSize, 2*pageSize - 1, 2 * pageSize, n - 1} {
			if it < n && !h.Contains(it) {
				h.Push(it, float64(n-it))
				h.Rec(it).G = float64(it)
				items = append(items, it)
			}
		}
		for i := len(items) - 1; i >= 0; i-- {
			it, p := h.Pop()
			if it != items[i] || p != float64(n-it) {
				t.Fatalf("n=%d: Pop = (%d, %v), want item %d", n, it, p, items[i])
			}
			if h.Rec(it).G != float64(it) {
				t.Fatalf("n=%d: item %d record G = %v", n, it, h.Rec(it).G)
			}
		}
		if h.Contains(n-1) || h.Len() != 0 {
			t.Fatalf("n=%d: heap not empty after draining", n)
		}
	}
}

func TestIndexedHeapUntouchedPagesStayUnallocated(t *testing.T) {
	h := NewIndexedHeap(64 * pageSize)
	if h.Contains(40*pageSize) || h.lookup(40*pageSize) != nil {
		t.Fatal("querying an item allocated its page")
	}
	h.Update(40*pageSize+3, 1)
	pages := 0
	for _, p := range h.dir {
		if p != nil {
			pages++
		}
	}
	if pages != 1 {
		t.Fatalf("one touched item allocated %d pages, want 1", pages)
	}
}

func TestIndexedHeapClosedRecords(t *testing.T) {
	h := NewIndexedHeap(8)
	h.Push(2, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Close of a queued item did not panic")
			}
		}()
		h.Rec(2).Close()
	}()
	h.Pop()
	r := h.Rec(2)
	r.Close()
	if !r.Closed() || h.Contains(2) {
		t.Fatal("popped and closed item not reported closed")
	}
	r.Reopen()
	if r.Closed() {
		t.Fatal("Reopen left the item closed")
	}
	r.Close()
	h.Update(2, 4) // pushing a closed item reopens it
	if r.Closed() || !h.Contains(2) {
		t.Fatal("Update did not requeue a closed item")
	}
	if p, ok := h.Priority(2); !ok || p != 4 {
		t.Fatalf("Priority = (%v, %v), want (4, true)", p, ok)
	}
}

func TestIndexedHeapUniverseBounds(t *testing.T) {
	for _, n := range []int{-1, int(MaxUniverse + 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewIndexedHeap(%d) did not panic", n)
				}
			}()
			NewIndexedHeap(n)
		}()
	}
}

func TestGenericHeapReset(t *testing.T) {
	h := NewHeap[string](4)
	h.Push("b", 2)
	h.Push("a", 1)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
	h.Push("z", 3)
	h.Push("y", 1)
	if v, _ := h.Pop(); v != "y" {
		t.Fatalf("Pop after Reset = %q, want %q", v, "y")
	}
}
