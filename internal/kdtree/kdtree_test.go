package kdtree

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func randomPoints(r *rng.RNG, n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for d := range p {
			p[d] = r.Uniform(-10, 10)
		}
		pts[i] = p
	}
	return pts
}

func TestEmptyTree(t *testing.T) {
	tr := New(3, nil)
	if _, _, ok := tr.Nearest([]float64{0, 0, 0}); ok {
		t.Fatal("Nearest on empty tree reported a result")
	}
	if got := tr.Radius([]float64{0, 0, 0}, 1); len(got) != 0 {
		t.Fatal("Radius on empty tree returned points")
	}
	if got := tr.KNearest([]float64{0, 0, 0}, 3); len(got) != 0 {
		t.Fatal("KNearest on empty tree returned points")
	}
}

func TestNearestSinglePoint(t *testing.T) {
	tr := New(2, nil)
	tr.Insert([]float64{1, 2}, 42)
	id, d2, ok := tr.Nearest([]float64{4, 6})
	if !ok || id != 42 || math.Abs(d2-25) > 1e-12 {
		t.Fatalf("Nearest = (%d, %v, %v)", id, d2, ok)
	}
}

func TestNearestMatchesLinearOracle(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		dim := 1 + r.Intn(5)
		n := 1 + r.Intn(200)
		pts := randomPoints(r, n, dim)
		tr := New(dim, nil)
		lin := NewLinear(dim, nil)
		for i, p := range pts {
			tr.Insert(p, i)
			lin.Insert(p, i)
		}
		for q := 0; q < 20; q++ {
			query := randomPoints(r, 1, dim)[0]
			_, d1, ok1 := tr.Nearest(query)
			_, d2, ok2 := lin.Nearest(query)
			if ok1 != ok2 || math.Abs(d1-d2) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRadiusMatchesLinearOracle(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		dim := 1 + r.Intn(4)
		n := 1 + r.Intn(150)
		pts := randomPoints(r, n, dim)
		tr := New(dim, nil)
		lin := NewLinear(dim, nil)
		for i, p := range pts {
			tr.Insert(p, i)
			lin.Insert(p, i)
		}
		query := randomPoints(r, 1, dim)[0]
		r2 := r.Uniform(1, 50)
		a := tr.Radius(query, r2)
		b := lin.Radius(query, r2)
		sort.Ints(a)
		sort.Ints(b)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKNearestOrderedAndCorrect(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		dim := 1 + r.Intn(3)
		n := 5 + r.Intn(100)
		pts := randomPoints(r, n, dim)
		tr := New(dim, nil)
		for i, p := range pts {
			tr.Insert(p, i)
		}
		query := randomPoints(r, 1, dim)[0]
		k := 1 + r.Intn(10)
		got := tr.KNearest(query, k)

		// Oracle: sort all points by distance.
		type pd struct {
			id int
			d  float64
		}
		all := make([]pd, n)
		for i, p := range pts {
			all[i] = pd{i, SqEuclidean(p, query)}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })

		wantLen := k
		if n < k {
			wantLen = n
		}
		if len(got) != wantLen {
			return false
		}
		// Compare by distance (ties make ID comparison fragile).
		for i, id := range got {
			if math.Abs(SqEuclidean(pts[id], query)-all[i].d) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKNearestDegenerateK(t *testing.T) {
	tr := New(2, nil)
	tr.Insert([]float64{0, 0}, 0)
	if got := tr.KNearest([]float64{1, 1}, 0); got != nil {
		t.Fatal("k=0 returned points")
	}
	if got := tr.KNearest([]float64{1, 1}, 5); len(got) != 1 {
		t.Fatalf("k>n returned %d points", len(got))
	}
}

func TestCustomMetric(t *testing.T) {
	// Manhattan-squared-ish metric: just |dx| + |dy| (still valid for
	// nearest as long as both structures share it).
	manhattan := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s
	}
	// NOTE: k-d pruning assumes the metric dominates per-axis squared
	// distance; Manhattan >= per-axis |d| >= d² is not generally true, so
	// only exercise the Linear index with custom metrics.
	lin := NewLinear(2, manhattan)
	lin.Insert([]float64{0, 0}, 0)
	lin.Insert([]float64{3, 0}, 1)
	id, d, ok := lin.Nearest([]float64{2, 0})
	if !ok || id != 1 || d != 1 {
		t.Fatalf("Nearest = (%d, %v, %v)", id, d, ok)
	}
}

func TestInsertDimensionMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	New(3, nil).Insert([]float64{1, 2}, 0)
}

func TestInsertCopiesPoint(t *testing.T) {
	tr := New(2, nil)
	p := []float64{1, 1}
	tr.Insert(p, 0)
	p[0] = 99 // mutate caller's slice
	_, d2, _ := tr.Nearest([]float64{1, 1})
	if d2 != 0 {
		t.Fatal("tree aliased the caller's point slice")
	}
}

func TestDistCallsCounted(t *testing.T) {
	r := rng.New(4)
	tr := New(3, nil)
	for i, p := range randomPoints(r, 100, 3) {
		tr.Insert(p, i)
	}
	before := tr.DistCalls
	tr.Nearest([]float64{0, 0, 0})
	if tr.DistCalls <= before {
		t.Fatal("DistCalls not incremented")
	}
	// The k-d tree should prune: far fewer than n distance calls on
	// clustered queries (statistical, generous bound).
	calls := tr.DistCalls - before
	if calls > 100 {
		t.Fatalf("nearest visited %d nodes out of 100 — no pruning?", calls)
	}
}

func TestLen(t *testing.T) {
	tr := New(2, nil)
	lin := NewLinear(2, nil)
	for i := 0; i < 10; i++ {
		tr.Insert([]float64{float64(i), 0}, i)
		lin.Insert([]float64{float64(i), 0}, i)
	}
	if tr.Len() != 10 || lin.Len() != 10 {
		t.Fatalf("Len = %d / %d", tr.Len(), lin.Len())
	}
}

// TestCloneIndependent pins the Clone contract: identical query results,
// independent counters and scratch, and no structural sharing that would let
// an insert into one tree corrupt the other.
func TestCloneIndependent(t *testing.T) {
	r := rng.New(5)
	tr := New(3, nil)
	pts := randomPoints(r, 200, 3)
	for i, p := range pts {
		tr.Insert(p, i)
	}
	c := tr.Clone()
	if c.Len() != tr.Len() {
		t.Fatalf("clone has %d points, original %d", c.Len(), tr.Len())
	}
	for _, q := range randomPoints(r, 50, 3) {
		wantID, wantD, _ := tr.Nearest(q)
		gotID, gotD, _ := c.Nearest(q)
		if wantID != gotID || wantD != gotD {
			t.Fatalf("clone Nearest (%d, %v) != original (%d, %v)", gotID, gotD, wantID, wantD)
		}
		wantK := tr.KNearest(q, 7)
		gotK := c.KNearest(q, 7)
		for i := range wantK {
			if wantK[i] != gotK[i] {
				t.Fatalf("clone KNearest %v != original %v", gotK, wantK)
			}
		}
	}
	if c.DistCalls == 0 || c.DistCalls != tr.DistCalls {
		t.Fatalf("counters diverged unexpectedly: clone %d, original %d", c.DistCalls, tr.DistCalls)
	}
	// Inserting into the original must not reach the clone (and vice versa).
	tr.Insert([]float64{0.5, 0.5, 0.5}, 999)
	if c.Len() == tr.Len() {
		t.Fatal("insert into original grew the clone")
	}
	before := tr.DistCalls
	c.Nearest(pts[0])
	if tr.DistCalls != before {
		t.Fatal("clone query incremented the original's DistCalls")
	}
}

// TestBuildShape pins Build's layout contract on raster-ordered input (the
// worst case for Insert): nodes are in preorder (a left child is the next
// node), every payload appears once at its own coordinates, the split
// invariant holds, and the tree is a pure function of its input. With
// distinct coordinates the depth is at most floor(log2 n)+1; heavy ties may
// deepen the tree, since a tie with a split always goes right.
func TestBuildShape(t *testing.T) {
	const side = 37
	n := side * side
	for _, tc := range []struct {
		name     string
		at       func(x, y int) []float64
		balanced bool
	}{
		{"distinct", func(x, y int) []float64 { return []float64{float64(x) + 0.01*float64(y), float64(y) + 0.01*float64(x)} }, true},
		{"ties", func(x, y int) []float64 { return []float64{float64(x), float64(y % 5)} }, false},
	} {
		var coords []float64
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				coords = append(coords, tc.at(x, y)...)
			}
		}
		tr := Build(2, coords, nil)
		if tr.Len() != n || tr.root != 0 {
			t.Fatalf("%s: Len = %d, root = %d; want %d, 0", tc.name, tr.Len(), tr.root, n)
		}
		depth := checkBuilt(t, tr, coords)
		if limit := int(math.Log2(float64(n))) + 1; tc.balanced && depth > limit {
			t.Fatalf("%s: depth %d > %d for %d points", tc.name, depth, limit, n)
		}
		again := Build(2, append([]float64(nil), coords...), nil)
		for i := range tr.nodes {
			if tr.nodes[i] != again.nodes[i] {
				t.Fatalf("%s: rebuild differs at node %d: %+v vs %+v", tc.name, i, tr.nodes[i], again.nodes[i])
			}
		}
	}
}

// checkBuilt walks a tree built from coords, checking the contract
// TestBuildShape states, and returns its depth.
func checkBuilt(t *testing.T, tr *Tree, coords []float64) int {
	t.Helper()
	dim := tr.dim
	seen := make([]bool, tr.Len())
	var walk func(idx, depth int, lo, hi []float64) int
	walk = func(idx, depth int, lo, hi []float64) int {
		if idx == -1 {
			return depth
		}
		nd := tr.nodes[idx]
		p := tr.pt(idx)
		if seen[nd.payload] {
			t.Fatalf("payload %d appears twice", nd.payload)
		}
		seen[nd.payload] = true
		for d := range p {
			if p[d] != coords[nd.payload*dim+d] {
				t.Fatalf("node %d holds %v, not payload %d's point", idx, p, nd.payload)
			}
			if p[d] < lo[d] || p[d] >= hi[d] {
				t.Fatalf("node %d at %v outside its cell [%v, %v)", idx, p, lo, hi)
			}
		}
		if nd.left != -1 && nd.left != idx+1 {
			t.Fatalf("node %d: left child %d is not the next node", idx, nd.left)
		}
		a := nd.axis
		lhi := append([]float64(nil), hi...)
		lhi[a] = p[a]
		rlo := append([]float64(nil), lo...)
		rlo[a] = p[a]
		return max(walk(nd.left, depth+1, lo, lhi), walk(nd.right, depth+1, rlo, hi))
	}
	lo, hi := make([]float64, dim), make([]float64, dim)
	for d := range lo {
		lo[d], hi[d] = math.Inf(-1), math.Inf(1)
	}
	return walk(tr.root, 0, lo, hi)
}

func TestBuildEdgeCases(t *testing.T) {
	empty := Build(3, nil, nil)
	if _, _, ok := empty.Nearest([]float64{0, 0, 0}); ok || empty.Len() != 0 {
		t.Fatal("Build of no points is not an empty tree")
	}
	coords := []float64{1, 2, 3, 4}
	tr := Build(2, coords, nil)
	coords[0] = 99 // Build copies
	if id, d2, _ := tr.Nearest([]float64{1, 2}); id != 0 || d2 != 0 {
		t.Fatalf("Nearest = (%d, %v), want (0, 0)", id, d2)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("coordinate count not a multiple of dim did not panic")
		}
	}()
	Build(2, []float64{1, 2, 3}, nil)
}
