package srec

import (
	"testing"

	"repro/internal/kdtree"
	"repro/internal/pointcloud"
)

// BenchmarkICPCorrespondence prices the substrate under srec's dominant
// phase: one correspondence pass (a nearest-neighbor query per source
// point) of the default source cloud, at the true alignment ICP converges
// to, over the k-d tree Run builds on the default target cloud. Next to
// ns/op it
// reports ns/query and dist/query (distance evaluations per query). The
// pass must not allocate.
func BenchmarkICPCorrespondence(b *testing.B) {
	benchCorrespondence(b, func(target *pointcloud.Cloud) *kdtree.Tree {
		return kdtree.Build(3, target.Coords(), nil)
	})
}

// BenchmarkICPCorrespondenceInserted is the kd-tree ablation: the same pass
// over a tree grown by Insert in the scan's raster order.
func BenchmarkICPCorrespondenceInserted(b *testing.B) {
	benchCorrespondence(b, func(target *pointcloud.Cloud) *kdtree.Tree {
		tree := kdtree.New(3, nil)
		for i, p := range target.Points {
			tree.Insert([]float64{p.X, p.Y, p.Z}, i)
		}
		return tree
	})
}

func benchCorrespondence(b *testing.B, index func(target *pointcloud.Cloud) *kdtree.Tree) {
	cfg := DefaultConfig()
	target, source, _, err := scans(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tree := index(target)
	maxD2 := cfg.MaxPairDist * cfg.MaxPairDist
	q := make([]float64, 3)
	pairs := make([]pair, 0, source.Len())
	pass := func() { pairs, _ = correspond(tree, source, maxD2, q, pairs[:0]) }
	if allocs := testing.AllocsPerRun(2, pass); allocs != 0 {
		b.Fatalf("correspondence pass allocates: %v allocs/op", allocs)
	}
	tree.DistCalls = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	queries := float64(b.N) * float64(source.Len())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/queries, "ns/query")
	b.ReportMetric(float64(tree.DistCalls)/queries, "dist/query")
}
