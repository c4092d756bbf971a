// Package kdtree implements a k-d tree over n-dimensional float64 points.
// It is the nearest-neighbor substrate behind the sampling-based planners
// (RRT, RRT*, PRM connect nearby configuration-space samples) and ICP's
// correspondence search in scene reconstruction — the operations the paper
// identifies as taking up to 31% (rrt) and 49% (rrtstar) of execution time.
//
// A linear-scan fallback (Linear) with the same interface exists both as a
// correctness oracle for the property tests and as the ablation baseline for
// the nearest-neighbor benchmarks.
package kdtree

import (
	"math"
	"sort"
)

// Metric computes the squared distance between two points of equal
// dimension. Planners over angular configuration spaces may substitute a
// wrap-around metric.
type Metric func(a, b []float64) float64

// SqEuclidean is the default squared L2 metric.
func SqEuclidean(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Tree is a k-d tree, grown one point at a time by Insert or built balanced
// over a static point set by Build. Points are referenced by an integer
// payload (typically a node index in the planner's own storage); the tree
// keeps its own copy of coordinates in a flat arena (one []float64 for all
// points, indexed by node), so inserting amortizes to zero small-object
// allocations and point access is cache-friendly during traversal.
//
// Every node splits on one axis with left < split <= right: a point goes
// left exactly when its coordinate on the node's axis is below the node's.
// Insert and Build both keep that invariant, so the queries, Clone and a
// later Insert work the same on either kind of tree.
type Tree struct {
	dim    int
	metric Metric
	nodes  []node
	pts    []float64 // arena: node i's point is pts[i*dim : (i+1)*dim]
	root   int
	knnH   maxHeap // scratch for KNearestAppend; makes it non-reentrant
	// DistCalls counts metric evaluations; the benchmark harness reads it
	// to report nearest-neighbor work the way the paper's profiles do.
	DistCalls int64
}

type node struct {
	payload     int
	axis        int
	left, right int // -1 = none
}

// New returns an empty tree over points of the given dimension. A nil metric
// defaults to squared Euclidean distance.
func New(dim int, metric Metric) *Tree {
	if dim <= 0 {
		panic("kdtree: non-positive dimension")
	}
	if metric == nil {
		metric = SqEuclidean
	}
	return &Tree{dim: dim, metric: metric, root: -1}
}

// Build returns a balanced tree over a static point set. coords is a flat
// arena of len(coords)/dim points; point i gets payload i. Each node splits
// its subset at the median on the axis of largest spread, with ties in
// coordinate broken by point index, so the tree is a pure function of its
// input. Nodes and arena are laid out in preorder (a node's left child is
// the next node). The coordinates are copied. A nil metric defaults to
// squared Euclidean distance.
//
// With distinct coordinates the depth is at most floor(log2 n)+1 whatever
// the input order, whereas Insert of a raster-ordered depth scan grows long
// chains that every query must walk.
func Build(dim int, coords []float64, metric Metric) *Tree {
	t := New(dim, metric)
	if len(coords)%dim != 0 {
		panic("kdtree: coordinate count is not a multiple of the dimension")
	}
	n := len(coords) / dim
	if n == 0 {
		return t
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	t.nodes = make([]node, 0, n)
	t.pts = make([]float64, 0, len(coords))
	b := buildState{t: t, coords: coords}
	t.root = b.build(perm)
	return t
}

// buildState holds the input arena while Build lays out the tree.
type buildState struct {
	t      *Tree
	coords []float64
}

func (b *buildState) at(i, axis int) float64 { return b.coords[i*b.t.dim+axis] }

// less orders points by coordinate on axis, then by index: a strict total
// order, so the median of a subset is unique.
func (b *buildState) less(i, j, axis int) bool {
	ci, cj := b.at(i, axis), b.at(j, axis)
	return ci < cj || (ci == cj && i < j)
}

// build appends the subtree over the points in perm to the tree in preorder
// and returns its root node, or -1 for an empty subset. It reorders perm.
func (b *buildState) build(perm []int) int {
	if len(perm) == 0 {
		return -1
	}
	axis := b.widestAxis(perm)
	m := len(perm) / 2
	b.selectNth(perm, m, axis)
	// perm[:m] now precede the median. Those that tie it in coordinate must
	// go right (left < split <= right), so the split point becomes the
	// lowest-index point with the median coordinate.
	split := b.at(perm[m], axis)
	j := 0
	for i := 0; i < m; i++ {
		if b.at(perm[i], axis) < split {
			perm[i], perm[j] = perm[j], perm[i]
			j++
		}
	}
	for i := j + 1; i <= m; i++ {
		if perm[i] < perm[j] {
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	t := b.t
	p := perm[j]
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{payload: p, axis: axis})
	t.pts = append(t.pts, b.coords[p*t.dim:(p+1)*t.dim]...)
	left := b.build(perm[:j])
	right := b.build(perm[j+1:])
	t.nodes[idx].left, t.nodes[idx].right = left, right
	return idx
}

// widestAxis returns the axis along which the points in perm spread the
// most, the lowest such axis on a tie.
func (b *buildState) widestAxis(perm []int) int {
	best, bestSpread := 0, -1.0
	for axis := 0; axis < b.t.dim; axis++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range perm {
			v := b.at(i, axis)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if spread := hi - lo; spread > bestSpread {
			best, bestSpread = axis, spread
		}
	}
	return best
}

// selectNth reorders perm so that perm[k] is the point of rank k under less,
// with lower-ranked points before it and higher-ranked ones after it
// (quickselect, median-of-three pivot).
func (b *buildState) selectNth(perm []int, k, axis int) {
	lo, hi := 0, len(perm)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if b.less(perm[mid], perm[lo], axis) {
			perm[mid], perm[lo] = perm[lo], perm[mid]
		}
		if b.less(perm[hi], perm[lo], axis) {
			perm[hi], perm[lo] = perm[lo], perm[hi]
		}
		if b.less(perm[mid], perm[hi], axis) {
			perm[mid], perm[hi] = perm[hi], perm[mid]
		}
		pivot, s := perm[hi], lo
		for i := lo; i < hi; i++ {
			if b.less(perm[i], pivot, axis) {
				perm[i], perm[s] = perm[s], perm[i]
				s++
			}
		}
		perm[s], perm[hi] = perm[hi], perm[s]
		switch {
		case k < s:
			hi = s - 1
		case k > s:
			lo = s + 1
		default:
			return
		}
	}
}

// Len returns the number of points in the tree.
func (t *Tree) Len() int { return len(t.nodes) }

// Clone returns an independent copy of the tree: same points, same shape,
// same payloads, but fresh query scratch and a zeroed DistCalls counter.
// KNearestAppend's candidate heap makes a Tree non-reentrant, so parallel
// searchers take one clone per worker; two slice copies make that cheap.
func (t *Tree) Clone() *Tree {
	c := &Tree{dim: t.dim, metric: t.metric, root: t.root}
	c.nodes = append([]node(nil), t.nodes...)
	c.pts = append([]float64(nil), t.pts...)
	return c
}

// pt returns node i's point, a view into the arena.
func (t *Tree) pt(i int) []float64 {
	return t.pts[i*t.dim : (i+1)*t.dim]
}

// Insert adds a point with the given payload. The point's coordinates are
// copied into the tree's arena.
func (t *Tree) Insert(point []float64, payload int) {
	if len(point) != t.dim {
		panic("kdtree: dimension mismatch")
	}
	idx := len(t.nodes)
	t.pts = append(t.pts, point...)
	t.nodes = append(t.nodes, node{payload: payload, left: -1, right: -1})
	p := t.pt(idx)
	if t.root == -1 {
		t.root = idx
		return
	}
	cur := t.root
	for {
		n := &t.nodes[cur]
		axis := n.axis
		if p[axis] < t.pt(cur)[axis] {
			if n.left == -1 {
				n.left = idx
				t.nodes[idx].axis = (axis + 1) % t.dim
				return
			}
			cur = n.left
		} else {
			if n.right == -1 {
				n.right = idx
				t.nodes[idx].axis = (axis + 1) % t.dim
				return
			}
			cur = n.right
		}
	}
}

// Nearest returns the payload and squared distance of the point closest to
// q. ok is false when the tree is empty.
func (t *Tree) Nearest(q []float64) (payload int, sqDist float64, ok bool) {
	if t.root == -1 {
		return 0, 0, false
	}
	best := -1
	bestD := math.Inf(1)
	t.nearest(t.root, q, &best, &bestD)
	return t.nodes[best].payload, bestD, true
}

func (t *Tree) nearest(idx int, q []float64, best *int, bestD *float64) {
	n := &t.nodes[idx]
	p := t.pt(idx)
	t.DistCalls++
	if d := t.metric(p, q); d < *bestD {
		*bestD = d
		*best = idx
	}
	axis := n.axis
	diff := q[axis] - p[axis]
	near, far := n.left, n.right
	if diff >= 0 {
		near, far = n.right, n.left
	}
	if near != -1 {
		t.nearest(near, q, best, bestD)
	}
	// The far subtree can only contain a closer point if the splitting
	// hyperplane is within the current best radius.
	if far != -1 && diff*diff < *bestD {
		t.nearest(far, q, best, bestD)
	}
}

// Radius returns the payloads of all points within squared distance r2 of q,
// in arbitrary order. RRT* uses it to collect the rewiring neighborhood.
func (t *Tree) Radius(q []float64, r2 float64) []int {
	return t.RadiusAppend(q, r2, nil)
}

// RadiusAppend appends the payloads of all points within squared distance r2
// of q to out (typically buf[:0] of a caller-owned buffer) and returns the
// extended slice — the allocation-free form the planners' steady-state loops
// use.
func (t *Tree) RadiusAppend(q []float64, r2 float64, out []int) []int {
	if t.root == -1 {
		return out
	}
	t.radius(t.root, q, r2, &out)
	return out
}

func (t *Tree) radius(idx int, q []float64, r2 float64, out *[]int) {
	n := &t.nodes[idx]
	p := t.pt(idx)
	t.DistCalls++
	if t.metric(p, q) <= r2 {
		*out = append(*out, n.payload)
	}
	axis := n.axis
	diff := q[axis] - p[axis]
	if n.left != -1 && (diff < 0 || diff*diff <= r2) {
		t.radius(n.left, q, r2, out)
	}
	if n.right != -1 && (diff >= 0 || diff*diff <= r2) {
		t.radius(n.right, q, r2, out)
	}
}

// KNearest returns the payloads of the k points closest to q, ordered by
// increasing distance. Fewer than k results are returned when the tree is
// smaller than k.
func (t *Tree) KNearest(q []float64, k int) []int {
	return t.KNearestAppend(q, k, nil)
}

// KNearestAppend appends the payloads of the k points closest to q to out
// (typically buf[:0] of a caller-owned buffer), ordered by increasing
// distance, and returns the extended slice. The candidate heap lives in the
// tree, so concurrent KNearestAppend calls on one tree are not safe.
func (t *Tree) KNearestAppend(q []float64, k int, out []int) []int {
	if k <= 0 || t.root == -1 {
		return out
	}
	h := &t.knnH
	h.items = h.items[:0]
	t.kNearest(t.root, q, k, h)
	sort.Sort(h) // heap order is arbitrary; present nearest-first
	for _, it := range h.items {
		out = append(out, t.nodes[it.idx].payload)
	}
	return out
}

func (t *Tree) kNearest(idx int, q []float64, k int, h *maxHeap) {
	n := &t.nodes[idx]
	p := t.pt(idx)
	t.DistCalls++
	d := t.metric(p, q)
	if h.Len() < k {
		h.push(item{idx: idx, d: d})
	} else if d < h.items[0].d {
		h.items[0] = item{idx: idx, d: d}
		h.down(0)
	}
	axis := n.axis
	diff := q[axis] - p[axis]
	near, far := n.left, n.right
	if diff >= 0 {
		near, far = n.right, n.left
	}
	if near != -1 {
		t.kNearest(near, q, k, h)
	}
	if far != -1 && (h.Len() < k || diff*diff < h.items[0].d) {
		t.kNearest(far, q, k, h)
	}
}

type item struct {
	idx int
	d   float64
}

// maxHeap is a fixed-size max-heap on distance, keeping the k best seen.
type maxHeap struct{ items []item }

func (h *maxHeap) Len() int           { return len(h.items) }
func (h *maxHeap) Less(i, j int) bool { return h.items[i].d < h.items[j].d }
func (h *maxHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *maxHeap) push(it item) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].d >= h.items[i].d {
			break
		}
		h.Swap(i, p)
		i = p
	}
}

func (h *maxHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.items[l].d > h.items[largest].d {
			largest = l
		}
		if r < n && h.items[r].d > h.items[largest].d {
			largest = r
		}
		if largest == i {
			return
		}
		h.Swap(i, largest)
		i = largest
	}
}

// Linear is a brute-force nearest-neighbor index with the same operations as
// Tree. It serves as the correctness oracle in tests and as the ablation
// baseline in the nearest-neighbor benchmarks. Like Tree, it stores point
// coordinates in a flat insertion-order arena.
type Linear struct {
	dim       int
	metric    Metric
	pts       []float64 // arena: point i is pts[i*dim : (i+1)*dim]
	payloads  []int
	DistCalls int64
}

// NewLinear returns an empty linear index.
func NewLinear(dim int, metric Metric) *Linear {
	if metric == nil {
		metric = SqEuclidean
	}
	return &Linear{dim: dim, metric: metric}
}

// Len returns the number of points in the index.
func (l *Linear) Len() int { return len(l.payloads) }

func (l *Linear) pt(i int) []float64 {
	return l.pts[i*l.dim : (i+1)*l.dim]
}

// Insert adds a point with the given payload. The coordinates are copied
// into the index's arena.
func (l *Linear) Insert(point []float64, payload int) {
	if len(point) != l.dim {
		panic("kdtree: dimension mismatch")
	}
	l.pts = append(l.pts, point...)
	l.payloads = append(l.payloads, payload)
}

// Nearest returns the payload and squared distance of the closest point.
func (l *Linear) Nearest(q []float64) (payload int, sqDist float64, ok bool) {
	if len(l.payloads) == 0 {
		return 0, 0, false
	}
	best := 0
	bestD := math.Inf(1)
	for i := range l.payloads {
		l.DistCalls++
		if d := l.metric(l.pt(i), q); d < bestD {
			bestD, best = d, i
		}
	}
	return l.payloads[best], bestD, true
}

// Radius returns payloads of all points within squared distance r2 of q.
func (l *Linear) Radius(q []float64, r2 float64) []int {
	var out []int
	for i := range l.payloads {
		l.DistCalls++
		if l.metric(l.pt(i), q) <= r2 {
			out = append(out, l.payloads[i])
		}
	}
	return out
}
