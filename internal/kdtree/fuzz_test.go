package kdtree

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// buildPair inserts the same pseudo-random point set into a Tree and a
// Linear oracle. Coordinates are drawn from a small lattice so exact ties
// and duplicate points occur often — the cases where a traversal bug is
// easiest to hide.
func buildPair(seed int64, dim, n int) (*Tree, *Linear, [][]float64) {
	r := rng.New(seed)
	tr := New(dim, nil)
	ln := NewLinear(dim, nil)
	pts := make([][]float64, n)
	p := make([]float64, dim)
	for i := 0; i < n; i++ {
		for d := range p {
			p[d] = math.Floor(r.Uniform(-4, 4)*2) / 2 // lattice step 0.5
		}
		tr.Insert(p, i)
		ln.Insert(p, i)
		pts[i] = append([]float64(nil), p...)
	}
	return tr, ln, pts
}

// FuzzKDTreeNearest differentially checks Tree against the brute-force
// Linear oracle, for a tree grown by Insert, for the same points indexed by
// Build, and for that built tree after one more Insert: nearest distances
// must match exactly (payloads may differ only on exact ties), Radius must
// return the same payload set, and KNearest distances must match the sorted
// brute-force distance list. scripts/ci.sh runs this fuzz target briefly
// under -race as a smoke test.
func FuzzKDTreeNearest(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(16))
	f.Add(int64(42), uint8(1), uint8(3))
	f.Add(int64(7), uint8(4), uint8(64))
	f.Add(int64(99), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, dimB, nB uint8) {
		dim := int(dimB)%4 + 1
		n := int(nB)%64 + 1
		tr, ln, pts := buildPair(seed, dim, n)
		checkAgainstLinear(t, "inserted", tr, ln, pts, seed)

		var coords []float64
		for _, p := range pts {
			coords = append(coords, p...)
		}
		built := Build(dim, coords, nil)
		checkAgainstLinear(t, "built", built, ln, pts, seed)

		// A later Insert must respect the built tree's split invariant. The
		// extra point is drawn from the same lattice, so it often ties.
		extra := append([]float64(nil), pts[int(uint64(seed)%uint64(n))]...)
		extra[0] += 0.5
		built.Insert(extra, n)
		ln.Insert(extra, n)
		pts = append(pts, extra)
		checkAgainstLinear(t, "built+insert", built, ln, pts, seed)
	})
}

// checkAgainstLinear runs 8 queries derived from seed against tr and the
// oracle ln over the same points pts (payload = index into pts).
func checkAgainstLinear(t *testing.T, label string, tr *Tree, ln *Linear, pts [][]float64, seed int64) {
	t.Helper()
	dim := len(pts[0])
	r := rng.New(seed ^ 0x5eed)
	q := make([]float64, dim)
	for trial := 0; trial < 8; trial++ {
		if trial < len(pts) {
			copy(q, pts[trial]) // exact hits: distance 0, forced ties
		} else {
			for d := range q {
				q[d] = r.Uniform(-5, 5)
			}
		}

		// Nearest: the squared distance is uniquely defined even when
		// the argmin is not.
		tp, td, tok := tr.Nearest(q)
		lp, ld, lok := ln.Nearest(q)
		if tok != lok {
			t.Fatalf("%s: Nearest ok mismatch: tree %v, linear %v", label, tok, lok)
		}
		if td != ld {
			t.Fatalf("%s: Nearest distance mismatch: tree %v (payload %d), linear %v (payload %d)", label, td, tp, ld, lp)
		}
		if SqEuclidean(pts[tp], q) != td {
			t.Fatalf("%s: Nearest payload %d does not realize reported distance %v", label, tp, td)
		}

		// Radius: identical payload sets.
		r2 := r.Uniform(0, 30)
		got := append([]int(nil), tr.RadiusAppend(q, r2, nil)...)
		want := ln.Radius(q, r2)
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("%s: Radius size mismatch: tree %d, linear %d", label, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: Radius payload sets differ at %d: tree %v, linear %v", label, i, got, want)
			}
		}

		// KNearest: the sorted distance lists must agree with brute
		// force even when tie-broken payloads differ.
		k := int(r.Uniform(1, 9))
		kn := tr.KNearestAppend(q, k, nil)
		brute := make([]float64, len(pts))
		for i, p := range pts {
			brute[i] = SqEuclidean(p, q)
		}
		sort.Float64s(brute)
		wantLen := k
		if wantLen > len(pts) {
			wantLen = len(pts)
		}
		if len(kn) != wantLen {
			t.Fatalf("%s: KNearest returned %d payloads, want %d", label, len(kn), wantLen)
		}
		prev := math.Inf(-1)
		for i, p := range kn {
			d := SqEuclidean(pts[p], q)
			if d < prev {
				t.Fatalf("%s: KNearest not sorted: distance %v after %v", label, d, prev)
			}
			prev = d
			if d != brute[i] {
				t.Fatalf("%s: KNearest rank %d distance %v, brute force %v", label, i, d, brute[i])
			}
		}
	}
}

// TestAppendFormsReuseBuffer pins the allocation contract of the *Append
// query forms: with a warm caller-owned buffer (and a warm internal
// candidate heap), steady-state queries do not allocate.
func TestAppendFormsReuseBuffer(t *testing.T) {
	tr, _, pts := buildPair(3, 3, 200)
	q := []float64{0.1, -0.2, 0.3}

	nbr := make([]int, 0, len(pts))
	tr.KNearestAppend(q, 8, nbr[:0]) // warm the internal heap
	if allocs := testing.AllocsPerRun(100, func() {
		nbr = tr.RadiusAppend(q, 4.0, nbr[:0])
	}); allocs != 0 {
		t.Errorf("RadiusAppend allocates %v per warm query", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		nbr = tr.KNearestAppend(q, 8, nbr[:0])
	}); allocs != 0 {
		t.Errorf("KNearestAppend allocates %v per warm query", allocs)
	}

	// The Append forms must agree with the allocating ones.
	a := tr.Radius(q, 4.0)
	b := tr.RadiusAppend(q, 4.0, nil)
	if len(a) != len(b) {
		t.Fatalf("Radius/RadiusAppend length mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Radius/RadiusAppend differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := tr.KNearest(q, 8)
	d := tr.KNearestAppend(q, 8, nil)
	if len(c) != len(d) {
		t.Fatalf("KNearest/KNearestAppend length mismatch: %d vs %d", len(c), len(d))
	}
	for i := range c {
		if c[i] != d[i] {
			t.Fatalf("KNearest/KNearestAppend differ at %d: %d vs %d", i, c[i], d[i])
		}
	}
}
