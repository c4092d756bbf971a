// Package pointcloud provides the point-cloud substrate of the scene
// reconstruction kernel: cloud storage, rigid transforms, centroids, voxel
// downsampling, and a synthetic depth-camera scanner that replaces the
// ICL-NUIM living_room dataset (see DESIGN.md's substitution table).
package pointcloud

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Cloud is an ordered set of 3D points.
type Cloud struct {
	Points []geom.Vec3
}

// New returns an empty cloud with capacity hint n.
func New(n int) *Cloud { return &Cloud{Points: make([]geom.Vec3, 0, n)} }

// Len returns the number of points.
func (c *Cloud) Len() int { return len(c.Points) }

// Clone returns a deep copy of the cloud.
func (c *Cloud) Clone() *Cloud {
	out := &Cloud{Points: make([]geom.Vec3, len(c.Points))}
	copy(out.Points, c.Points)
	return out
}

// Coords returns the points as a flat x, y, z arena, the layout
// kdtree.Build takes.
func (c *Cloud) Coords() []float64 {
	out := make([]float64, 0, 3*len(c.Points))
	for _, p := range c.Points {
		out = append(out, p.X, p.Y, p.Z)
	}
	return out
}

// Centroid returns the arithmetic mean of the points. The zero vector is
// returned for an empty cloud.
func (c *Cloud) Centroid() geom.Vec3 {
	if len(c.Points) == 0 {
		return geom.Vec3{}
	}
	var s geom.Vec3
	for _, p := range c.Points {
		s = s.Add(p)
	}
	return s.Scale(1 / float64(len(c.Points)))
}

// Rigid is a rigid-body transform: rotation (row-major 3×3) then translation.
type Rigid struct {
	R [9]float64
	T geom.Vec3
}

// IdentityRigid returns the identity transform.
func IdentityRigid() Rigid {
	return Rigid{R: [9]float64{1, 0, 0, 0, 1, 0, 0, 0, 1}}
}

// Apply maps point p through the transform.
func (t Rigid) Apply(p geom.Vec3) geom.Vec3 {
	return geom.Vec3{
		X: t.R[0]*p.X + t.R[1]*p.Y + t.R[2]*p.Z + t.T.X,
		Y: t.R[3]*p.X + t.R[4]*p.Y + t.R[5]*p.Z + t.T.Y,
		Z: t.R[6]*p.X + t.R[7]*p.Y + t.R[8]*p.Z + t.T.Z,
	}
}

// Compose returns the transform equivalent to applying u first, then t.
func (t Rigid) Compose(u Rigid) Rigid {
	var out Rigid
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += t.R[3*i+k] * u.R[3*k+j]
			}
			out.R[3*i+j] = s
		}
	}
	out.T = t.Apply(u.T)
	return out
}

// FromEuler builds a rotation from Z-Y-X Euler angles (yaw, pitch, roll)
// plus a translation.
func FromEuler(yaw, pitch, roll float64, t geom.Vec3) Rigid {
	sy, cy := math.Sincos(yaw)
	sp, cp := math.Sincos(pitch)
	sr, cr := math.Sincos(roll)
	return Rigid{
		R: [9]float64{
			cy * cp, cy*sp*sr - sy*cr, cy*sp*cr + sy*sr,
			sy * cp, sy*sp*sr + cy*cr, sy*sp*cr - cy*sr,
			-sp, cp * sr, cp * cr,
		},
		T: t,
	}
}

// Transform returns a new cloud with every point mapped through t.
func (c *Cloud) Transform(t Rigid) *Cloud {
	out := &Cloud{Points: make([]geom.Vec3, len(c.Points))}
	for i, p := range c.Points {
		out.Points[i] = t.Apply(p)
	}
	return out
}

// TransformInPlace maps every point of the cloud through t.
func (c *Cloud) TransformInPlace(t Rigid) {
	for i, p := range c.Points {
		c.Points[i] = t.Apply(p)
	}
}

// AddNoise perturbs every point with isotropic Gaussian noise of the given
// standard deviation, modeling depth-sensor error.
func (c *Cloud) AddNoise(r *rng.RNG, sigma float64) {
	for i := range c.Points {
		c.Points[i].X += r.Normal(0, sigma)
		c.Points[i].Y += r.Normal(0, sigma)
		c.Points[i].Z += r.Normal(0, sigma)
	}
}

// VoxelDownsample returns a cloud with at most one point (the centroid of
// the bucket) per voxel of the given size. ICP pipelines downsample to bound
// correspondence-search cost.
func (c *Cloud) VoxelDownsample(voxel float64) *Cloud {
	if voxel <= 0 {
		return c.Clone()
	}
	type acc struct {
		sum geom.Vec3
		n   int
	}
	buckets := make(map[[3]int32]*acc, len(c.Points)/4+1)
	for _, p := range c.Points {
		key := [3]int32{
			int32(math.Floor(p.X / voxel)),
			int32(math.Floor(p.Y / voxel)),
			int32(math.Floor(p.Z / voxel)),
		}
		a := buckets[key]
		if a == nil {
			a = &acc{}
			buckets[key] = a
		}
		a.sum = a.sum.Add(p)
		a.n++
	}
	out := New(len(buckets))
	for _, a := range buckets {
		out.Points = append(out.Points, a.sum.Scale(1/float64(a.n)))
	}
	return out
}

// RoomModel is a procedural "living room": an axis-aligned room shell with
// boxes (furniture) inside. It substitutes for the ICL-NUIM living_room
// scene: what drives ICP cost is surface area, overlap, and clutter, all of
// which the model controls.
type RoomModel struct {
	W, D, H float64 // room extents (x, y, z)
	Boxes   []Box
}

// Box is an axis-aligned box obstacle inside the room.
type Box struct {
	Min, Max geom.Vec3
}

// NewRoom builds a room of the given extents with n furniture boxes placed
// deterministically from seed.
func NewRoom(w, d, h float64, n int, seed int64) *RoomModel {
	r := rng.New(seed)
	room := &RoomModel{W: w, D: d, H: h}
	for i := 0; i < n; i++ {
		bw := r.Uniform(0.3, w/4)
		bd := r.Uniform(0.3, d/4)
		bh := r.Uniform(0.3, h/2)
		x := r.Uniform(0.2, w-bw-0.2)
		y := r.Uniform(0.2, d-bd-0.2)
		room.Boxes = append(room.Boxes, Box{
			Min: geom.Vec3{X: x, Y: y, Z: 0},
			Max: geom.Vec3{X: x + bw, Y: y + bd, Z: bh},
		})
	}
	return room
}

// rayHit returns the distance along direction dir from origin o to the
// nearest surface of the room shell or a furniture box, or +Inf.
func (m *RoomModel) rayHit(o, dir geom.Vec3) float64 {
	best := math.Inf(1)
	// Room shell: the ray exits the room at the nearest wall plane.
	for axis := 0; axis < 3; axis++ {
		oc, dc, lim := component(o, dir, axis, m)
		if dc > 0 {
			if t := (lim - oc) / dc; t > 1e-9 && t < best {
				best = t
			}
		} else if dc < 0 {
			if t := -oc / dc; t > 1e-9 && t < best {
				best = t
			}
		}
	}
	// Furniture boxes (slab test).
	for _, b := range m.Boxes {
		if t, hit := rayBox(o, dir, b); hit && t < best {
			best = t
		}
	}
	return best
}

func component(o, d geom.Vec3, axis int, m *RoomModel) (oc, dc, lim float64) {
	switch axis {
	case 0:
		return o.X, d.X, m.W
	case 1:
		return o.Y, d.Y, m.D
	default:
		return o.Z, d.Z, m.H
	}
}

func rayBox(o, d geom.Vec3, b Box) (float64, bool) {
	tmin, tmax := 0.0, math.Inf(1)
	for axis := 0; axis < 3; axis++ {
		var oc, dc, lo, hi float64
		switch axis {
		case 0:
			oc, dc, lo, hi = o.X, d.X, b.Min.X, b.Max.X
		case 1:
			oc, dc, lo, hi = o.Y, d.Y, b.Min.Y, b.Max.Y
		default:
			oc, dc, lo, hi = o.Z, d.Z, b.Min.Z, b.Max.Z
		}
		if dc == 0 {
			if oc < lo || oc > hi {
				return 0, false
			}
			continue
		}
		t1 := (lo - oc) / dc
		t2 := (hi - oc) / dc
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		if t1 > tmin {
			tmin = t1
		}
		if t2 < tmax {
			tmax = t2
		}
		if tmin > tmax {
			return 0, false
		}
	}
	if tmin <= 1e-9 {
		return 0, false
	}
	return tmin, true
}

// Camera describes a pinhole depth camera for the synthetic scanner.
type Camera struct {
	Pose       Rigid   // camera-to-world
	HFov, VFov float64 // field of view, radians
	Cols, Rows int     // image resolution
	MaxRange   float64
}

// Scan renders a depth image of the room from the camera and returns the
// back-projected point cloud in world coordinates. Points at max range
// (no hit) are dropped, as a real depth camera would.
func (m *RoomModel) Scan(cam Camera) *Cloud {
	out := New(cam.Cols * cam.Rows)
	for r := 0; r < cam.Rows; r++ {
		v := (float64(r)/float64(cam.Rows-1) - 0.5) * cam.VFov
		for c := 0; c < cam.Cols; c++ {
			u := (float64(c)/float64(cam.Cols-1) - 0.5) * cam.HFov
			// Camera frame: +X forward, +Y left, +Z up.
			dir := geom.Vec3{X: math.Cos(v) * math.Cos(u), Y: math.Cos(v) * math.Sin(u), Z: math.Sin(v)}
			worldDir := cam.Pose.Apply(dir).Sub(cam.Pose.T) // rotate only
			origin := cam.Pose.T
			t := m.rayHit(origin, worldDir)
			if math.IsInf(t, 1) || t > cam.MaxRange {
				continue
			}
			out.Points = append(out.Points, origin.Add(worldDir.Scale(t)))
		}
	}
	return out
}
