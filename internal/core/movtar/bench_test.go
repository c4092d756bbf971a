package movtar

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/maps"
)

// BenchmarkSpaceTimeSearch prices the search substrate under movtar's
// dominant phase: one space-time Weighted A* at the default ε over the
// SizeSmall terrain (96², the size the daemon and the CI sweeps run), from
// a heuristic field built once outside the timer. Next to ns/op it reports
// ns/expansion and B/expansion, the bytes the search's bookkeeping and open
// list allocate per expanded state. It does not report allocs/op: the
// runtime adds a few allocations of its own per garbage collection, and a
// search that allocates megabytes runs several, so the count is not
// reproducible the way the zero-alloc benchmarks' is.
func BenchmarkSpaceTimeSearch(b *testing.B) {
	cfg := DefaultConfig()
	pu, err := newPursuit(maps.MovtarTerrain(96, 96, cfg.Seed), cfg.TargetPeriod, 0)
	if err != nil {
		b.Fatal(err)
	}
	hField, _, err := pu.heuristic(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	expanded := 0
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := pu.search(context.Background(), hField, cfg.Epsilon)
		if err != nil || !sr.Found {
			b.Fatalf("search failed: %v", err)
		}
		expanded += sr.Expanded
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(expanded), "ns/expansion")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(expanded), "B/expansion")
}
