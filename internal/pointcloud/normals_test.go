package pointcloud

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/rng"
)

// planeCloud samples points on the plane z = 0 in [0,1]².
func planeCloud(n int, seed int64) *Cloud {
	r := rng.New(seed)
	c := New(n)
	for i := 0; i < n; i++ {
		c.Points = append(c.Points, geom.Vec3{X: r.Float64(), Y: r.Float64(), Z: 0})
	}
	return c
}

func TestNormalsOnPlane(t *testing.T) {
	c := planeCloud(300, 1)
	viewpoint := geom.Vec3{Z: 5} // looking down from above
	normals := c.EstimateNormals(10, viewpoint)
	if len(normals) != c.Len() {
		t.Fatalf("%d normals for %d points", len(normals), c.Len())
	}
	for i, n := range normals {
		if math.Abs(n.Norm()-1) > 1e-9 {
			t.Fatalf("normal %d not unit: %v", i, n.Norm())
		}
		// The plane's normal is ±Z; viewpoint orientation makes it +Z.
		if n.Z < 0.99 {
			t.Fatalf("normal %d = %+v, want ~+Z", i, n)
		}
	}
}

func TestNormalsOrientationFollowsViewpoint(t *testing.T) {
	c := planeCloud(200, 2)
	below := c.EstimateNormals(10, geom.Vec3{Z: -5})
	for i, n := range below {
		if n.Z > -0.99 {
			t.Fatalf("normal %d = %+v, want ~-Z when viewed from below", i, n)
		}
	}
}

func TestNormalsOnSphere(t *testing.T) {
	// Points on a unit sphere: the outward normal at p is p itself.
	r := rng.New(3)
	c := New(400)
	for i := 0; i < 400; i++ {
		v := geom.Vec3{X: r.StdNormal(), Y: r.StdNormal(), Z: r.StdNormal()}
		c.Points = append(c.Points, v.Normalize())
	}
	// A distant external viewpoint orients most normals outward only on the
	// visible hemisphere; instead orient from the center outward by using a
	// huge viewpoint along each axis — simplest robust check: estimate with
	// center as viewpoint and expect INWARD normals.
	normals := c.EstimateNormals(12, geom.Vec3{})
	agree := 0
	for i, n := range normals {
		if n.Dot(c.Points[i]) < 0 {
			agree++ // oriented toward the center as requested
		}
	}
	if agree < 380 {
		t.Fatalf("only %d/400 normals point toward the viewpoint", agree)
	}
}

func TestNormalsDegenerateClouds(t *testing.T) {
	empty := New(0)
	if got := empty.EstimateNormals(8, geom.Vec3{}); len(got) != 0 {
		t.Fatal("empty cloud produced normals")
	}
	tiny := New(2)
	tiny.Points = append(tiny.Points, geom.Vec3{}, geom.Vec3{X: 1})
	normals := tiny.EstimateNormals(8, geom.Vec3{Z: 1})
	for _, n := range normals {
		if math.Abs(n.Norm()-1) > 1e-9 {
			t.Fatal("degenerate cloud normal not unit")
		}
	}
}

// TestNormalsBuiltIndexMatchesInserted: EstimateNormals indexes the cloud
// with kdtree.Build; on the srec kernel's default target scan (room seed 1,
// 160×120, 5 mm noise) its normals must be bit-identical to those from a
// tree grown by Insert in scan order.
func TestNormalsBuiltIndexMatchesInserted(t *testing.T) {
	room := NewRoom(6, 5, 2.8, 8, 1)
	cam := Camera{
		Pose: FromEuler(0.6, 0, 0, geom.Vec3{X: 0.5, Y: 0.5, Z: 1.4}),
		HFov: 1.2, VFov: 0.9,
		Cols: 160, Rows: 120,
		MaxRange: 10,
	}
	c := room.Scan(cam)
	c.AddNoise(rng.New(1), 0.005)

	inserted := kdtree.New(3, nil)
	for i, p := range c.Points {
		inserted.Insert([]float64{p.X, p.Y, p.Z}, i)
	}
	want := c.normalsFrom(inserted, 12, cam.Pose.T)
	got := c.EstimateNormals(12, cam.Pose.T)
	if len(got) != len(want) || len(got) != c.Len() {
		t.Fatalf("%d normals from Build, %d from Insert, %d points", len(got), len(want), c.Len())
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("normal %d: built index %+v, inserted index %+v", i, got[i], want[i])
		}
	}
}
