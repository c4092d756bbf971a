package srec

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/kdtree"
	"repro/internal/profile"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Cols, cfg.Rows = 60, 45
	cfg.Iterations = 30
	return cfg
}

func TestICPRecoversAlignment(t *testing.T) {
	res, err := Run(context.Background(), smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The true alignment is the identity; after ICP the residual transform
	// must be small despite the deliberately wrong initial guess.
	if res.RotationError > 0.05 {
		t.Fatalf("rotation residual %.4f rad", res.RotationError)
	}
	if res.TranslationError > 0.12 {
		t.Fatalf("translation residual %.4f m", res.TranslationError)
	}
	if res.RMSE > 0.1 {
		t.Fatalf("RMSE %.4f m", res.RMSE)
	}
}

func TestWorsensWithoutIterations(t *testing.T) {
	one := smallConfig()
	one.Iterations = 1
	many := smallConfig()
	a, err1 := Run(context.Background(), one, nil)
	b, err2 := Run(context.Background(), many, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if b.TranslationError >= a.TranslationError {
		t.Fatalf("more iterations did not improve alignment: %v -> %v",
			a.TranslationError, b.TranslationError)
	}
}

func TestCorrespondenceDominates(t *testing.T) {
	p := profile.New()
	if _, err := Run(context.Background(), smallConfig(), p); err != nil {
		t.Fatal(err)
	}
	rep := p.Snapshot()
	if rep.Dominant() != "correspondence" {
		t.Fatalf("dominant = %q, want correspondence (point-cloud ops)", rep.Dominant())
	}
}

func TestVoxelDownsampleReducesWork(t *testing.T) {
	full := smallConfig()
	down := smallConfig()
	down.VoxelSize = 0.1
	a, err1 := Run(context.Background(), full, nil)
	b, err2 := Run(context.Background(), down, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if b.SourcePoints >= a.SourcePoints {
		t.Fatalf("downsampling did not shrink the cloud: %d -> %d",
			a.SourcePoints, b.SourcePoints)
	}
	if b.NNQueries >= a.NNQueries {
		t.Fatal("downsampling did not reduce NN queries")
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Run(context.Background(), smallConfig(), nil)
	b, _ := Run(context.Background(), smallConfig(), nil)
	if a.RMSE != b.RMSE || a.NNQueries != b.NNQueries {
		t.Fatal("same seed diverged")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Iterations = 0
	if _, err := Run(context.Background(), cfg, nil); err == nil {
		t.Fatal("zero iterations accepted")
	}
	cfg = DefaultConfig()
	cfg.Cols = 1
	if _, err := Run(context.Background(), cfg, nil); err == nil {
		t.Fatal("degenerate camera accepted")
	}
}

func TestPointToPlaneConvergesFasterAndTighter(t *testing.T) {
	pt := smallConfig()
	pt.Method = PointToPoint
	pl := smallConfig()
	pl.Method = PointToPlane
	a, err1 := Run(context.Background(), pt, nil)
	b, err2 := Run(context.Background(), pl, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	// The plane metric is the KinectFusion-style pipeline's choice exactly
	// because it converges in fewer iterations on structured scenes.
	if b.Iterations >= a.Iterations {
		t.Fatalf("plane iterations %d !< point iterations %d", b.Iterations, a.Iterations)
	}
	if b.TranslationError >= a.TranslationError {
		t.Fatalf("plane residual %.4f !< point residual %.4f",
			b.TranslationError, a.TranslationError)
	}
}

func TestNormalsOnRoomWalls(t *testing.T) {
	// Scan a wall-dominated scene and check the normals are unit length.
	cfg := smallConfig()
	cfg.Method = PointToPlane
	if _, err := Run(context.Background(), cfg, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConvergenceStopsEarly(t *testing.T) {
	cfg := smallConfig()
	cfg.Iterations = 500
	cfg.ConvergeTol = 1e-3
	res, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 500 {
		t.Fatalf("never converged in %d iterations", res.Iterations)
	}
}

// crossCheck answers correspondence queries from a Build-built tree and
// checks each one against an Insert-built tree of the same target cloud.
type crossCheck struct {
	built, inserted *kdtree.Tree
	queries         int
	mismatches      int
	first           string
}

func (c *crossCheck) Nearest(q []float64) (int, float64, bool) {
	p, d2, ok := c.built.Nearest(q)
	ip, id2, iok := c.inserted.Nearest(q)
	c.queries++
	if p != ip || d2 != id2 || ok != iok {
		if c.mismatches == 0 {
			c.first = fmt.Sprintf("query %d at %v: built (%d, %v, %v), inserted (%d, %v, %v)",
				c.queries, q, p, d2, ok, ip, id2, iok)
		}
		c.mismatches++
	}
	return p, d2, ok
}

// TestBuiltIndexMatchesInserted: the digest depends on every correspondence,
// so over a full SizeDefault seed-1 registration the balanced tree must
// return exactly the (payload, d²) the point-by-point insertion tree does —
// and Run, which uses the balanced tree, must land on the pinned result.
func TestBuiltIndexMatchesInserted(t *testing.T) {
	cfg := DefaultConfig()
	target, source, _, err := scans(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inserted := kdtree.New(3, nil)
	for i, p := range target.Points {
		inserted.Insert([]float64{p.X, p.Y, p.Z}, i)
	}
	cc := &crossCheck{built: kdtree.Build(3, target.Coords(), nil), inserted: inserted}
	var got Result
	if err := align(context.Background(), cfg, nil, cc, target, source, nil, &got); err != nil {
		t.Fatal(err)
	}
	if cc.mismatches != 0 {
		t.Fatalf("%d of %d correspondence queries differ; first: %s", cc.mismatches, cc.queries, cc.first)
	}
	if int64(cc.queries) != got.NNQueries {
		t.Fatalf("cross-checked %d queries, registration counted %d", cc.queries, got.NNQueries)
	}
	perQuery := func(tr *kdtree.Tree) float64 { return float64(tr.DistCalls) / float64(cc.queries) }
	t.Logf("distance evaluations per query: built %.1f, inserted %.1f", perQuery(cc.built), perQuery(inserted))
	if perQuery(cc.built) > 80 {
		t.Errorf("built tree evaluates %.1f distances per query, want <= 80", perQuery(cc.built))
	}

	res, err := Run(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{
		RMSE: 0.027967908612138853, RotationError: 0.012959558218326839,
		TranslationError: 0.047216382321103936, Iterations: 30, NNQueries: 576000,
	}
	for _, r := range []Result{got, res} {
		if r.RMSE != want.RMSE || r.RotationError != want.RotationError ||
			r.TranslationError != want.TranslationError ||
			r.Iterations != want.Iterations || r.NNQueries != want.NNQueries {
			t.Fatalf("registration = rmse %v rot %v trans %v iters %d queries %d, want %+v",
				r.RMSE, r.RotationError, r.TranslationError, r.Iterations, r.NNQueries, want)
		}
	}
	if res.DistCalls != cc.built.DistCalls {
		t.Fatalf("Run reports %d distance evaluations, the built tree took %d", res.DistCalls, cc.built.DistCalls)
	}
}
