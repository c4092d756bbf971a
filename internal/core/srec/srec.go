// Package srec implements kernel 03.srec: 3D scene reconstruction by
// registering point clouds with the iterative closest point (ICP) algorithm
// (paper §V.3, after Keller et al.'s real-time point-based fusion).
//
// Two depth-camera scans of the same scene, taken from different poses, are
// reconciled: ICP alternates a correspondence search (nearest neighbor per
// source point — the irregular-memory-access phase the paper identifies as
// the dominant bottleneck) with a rigid-transform estimate from the matched
// pairs (cross-covariance accumulation and Horn's quaternion eigenproblem —
// the "massive matrix operations" secondary bottleneck).
package srec

import (
	"context"
	"errors"
	"math"

	"repro/internal/check"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/mat"
	"repro/internal/pointcloud"
	"repro/internal/profile"
	"repro/internal/rng"
)

// Method selects the ICP error metric.
type Method string

// The two ICP variants. PointToPoint is the classic Besl-McKay form;
// PointToPlane is the metric used by the KinectFusion-style pipeline the
// paper's srec kernel follows (Keller et al. 2013), which converges in
// fewer iterations on structured indoor scenes.
const (
	PointToPoint Method = "point"
	PointToPlane Method = "plane"
)

// Config parameterizes a reconstruction run.
type Config struct {
	// Room is the synthetic scene; nil builds the default living-room
	// substitute for ICL-NUIM (see DESIGN.md).
	Room *pointcloud.RoomModel
	// Method selects the ICP error metric; empty means PointToPoint.
	Method Method
	// Cols/Rows set the depth-camera resolution per scan.
	Cols, Rows int
	// SensorNoise is the per-point Gaussian noise, meters.
	SensorNoise float64
	// InitYaw/InitTrans perturb the second scan's initial guess; ICP must
	// recover them.
	InitYaw   float64
	InitTrans geom.Vec3
	// Iterations caps ICP iterations.
	Iterations int
	// ConvergeTol stops early when the mean correspondence distance
	// improves by less than this fraction between iterations.
	ConvergeTol float64
	// VoxelSize downsamples both clouds before ICP; 0 disables.
	VoxelSize float64
	// MaxPairDist rejects correspondences farther than this, meters.
	MaxPairDist float64
	Seed        int64
}

// Validate reports every dimension, bound, and finiteness violation in the
// config.
func (c Config) Validate() error {
	f := check.New("srec")
	if c.Cols <= 1 {
		f.Addf("Cols must be > 1 (got %d)", c.Cols)
	}
	if c.Rows <= 1 {
		f.Addf("Rows must be > 1 (got %d)", c.Rows)
	}
	f.PositiveInt("Iterations", c.Iterations)
	f.NonNegative("SensorNoise", c.SensorNoise)
	f.Finite("InitYaw", c.InitYaw)
	f.Finite("InitTrans.X", c.InitTrans.X)
	f.Finite("InitTrans.Y", c.InitTrans.Y)
	f.Finite("InitTrans.Z", c.InitTrans.Z)
	f.NonNegative("ConvergeTol", c.ConvergeTol)
	f.NonNegative("VoxelSize", c.VoxelSize)
	f.NonNegative("MaxPairDist", c.MaxPairDist)
	return f.Err()
}

// DefaultConfig returns the paper-style configuration: two dense indoor
// scans, 30 ICP iterations.
func DefaultConfig() Config {
	return Config{
		Cols: 160, Rows: 120,
		SensorNoise: 0.005,
		InitYaw:     0.12,
		InitTrans:   geom.Vec3{X: 0.15, Y: -0.10, Z: 0.02},
		Iterations:  30,
		ConvergeTol: 1e-4,
		VoxelSize:   0,
		MaxPairDist: 1.0,
		Seed:        1,
	}
}

// Result reports reconstruction quality and workload statistics.
type Result struct {
	// RMSE is the final root-mean-square correspondence distance, meters.
	RMSE float64
	// RotationError is the residual rotation angle after alignment, radians.
	RotationError float64
	// TranslationError is the residual translation after alignment, meters.
	TranslationError float64
	// Iterations actually executed.
	Iterations int
	// SourcePoints and TargetPoints are the cloud sizes after downsampling.
	SourcePoints, TargetPoints int
	// NNQueries counts nearest-neighbor searches.
	NNQueries int64
	// DistCalls counts point-distance evaluations inside the k-d tree (the
	// irregular-access work unit).
	DistCalls int64
}

// Run executes the kernel. Harness phases: "correspondence" (building the
// k-d tree over the target cloud and nearest-neighbor matching), "matrix"
// (target normals for point-to-plane, cross-covariance, the 4×4
// eigenproblem, and transform composition), "apply" (transforming the
// source cloud).
func Run(ctx context.Context, cfg Config, prof *profile.Profile) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	target, source, view, err := scans(cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{SourcePoints: source.Len(), TargetPoints: target.Len()}

	prof.BeginROI()

	// Build the target index once; ICP queries it every iteration.
	prof.Begin("correspondence")
	tree := kdtree.Build(3, target.Coords(), nil)
	prof.End()

	// Point-to-plane needs target surface normals (oriented toward the
	// first camera).
	var normals []geom.Vec3
	if cfg.Method == PointToPlane {
		prof.Begin("matrix")
		normals = target.EstimateNormals(12, view)
		prof.End()
	}

	err = align(ctx, cfg, prof, tree, target, source, normals, &res)
	prof.EndROI()
	res.DistCalls = tree.DistCalls
	return res, err
}

// scans renders the kernel's two noisy depth scans of the room: the target
// and the source to register onto it, both in world coordinates. view is
// the target camera's position.
func scans(cfg Config) (target, source *pointcloud.Cloud, view geom.Vec3, err error) {
	room := cfg.Room
	if room == nil {
		room = pointcloud.NewRoom(6, 5, 2.8, 8, cfg.Seed)
	}
	r := rng.New(cfg.Seed)

	// Scan 1 (target): camera in one corner looking into the room.
	camA := pointcloud.Camera{
		Pose: pointcloud.FromEuler(0.6, 0, 0, geom.Vec3{X: 0.5, Y: 0.5, Z: 1.4}),
		HFov: 1.2, VFov: 0.9,
		Cols: cfg.Cols, Rows: cfg.Rows,
		MaxRange: 10,
	}
	// Scan 2 (source): the camera moved and rotated — this is the true
	// relative transform ICP must recover.
	camB := pointcloud.Camera{
		Pose: pointcloud.FromEuler(0.6+cfg.InitYaw, 0, 0, geom.Vec3{X: 0.5 + cfg.InitTrans.X, Y: 0.5 + cfg.InitTrans.Y, Z: 1.4 + cfg.InitTrans.Z}),
		HFov: 1.2, VFov: 0.9,
		Cols: cfg.Cols, Rows: cfg.Rows,
		MaxRange: 10,
	}

	target = room.Scan(camA)
	source = room.Scan(camB)
	target.AddNoise(r, cfg.SensorNoise)
	source.AddNoise(r, cfg.SensorNoise)
	if cfg.VoxelSize > 0 {
		target = target.VoxelDownsample(cfg.VoxelSize)
		source = source.VoxelDownsample(cfg.VoxelSize)
	}
	if source.Len() == 0 || target.Len() == 0 {
		return nil, nil, geom.Vec3{}, errors.New("srec: empty scan; camera saw nothing")
	}
	return target, source, camA.Pose.T, nil
}

// nearester is the correspondence search over the target cloud, payload =
// target point index: a *kdtree.Tree in Run; a test substitutes one that
// cross-checks every query.
type nearester interface {
	Nearest(q []float64) (payload int, sqDist float64, ok bool)
}

// align runs the ICP iterations, registering source onto target through
// idx, and records the outcome in res.
func align(ctx context.Context, cfg Config, prof *profile.Profile, idx nearester,
	target, source *pointcloud.Cloud, normals []geom.Vec3, res *Result) error {
	// Both clouds are in world coordinates, so the true alignment is the
	// identity; ICP starts from a deliberately wrong initial guess and must
	// iterate back. Accumulate the total correction in `total`.
	moving := source.Clone()
	initGuess := pointcloud.FromEuler(-2*cfg.InitYaw, 0, 0, cfg.InitTrans.Scale(-2))
	prof.Begin("apply")
	moving.TransformInPlace(initGuess)
	prof.End()
	total := initGuess

	maxD2 := cfg.MaxPairDist * cfg.MaxPairDist
	prevErr := math.Inf(1)
	q := make([]float64, 3)
	pairs := make([]pair, 0, moving.Len())
	for iter := 0; iter < cfg.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		res.Iterations = iter + 1

		// Trimmed ICP: once the alignment tightens, shrink the
		// correspondence gate toward 3x the current RMS error so
		// non-overlapping regions stop biasing the transform estimate.
		if !math.IsInf(prevErr, 1) {
			gate := 9 * prevErr // (3*rms)^2
			if floor := 0.05 * 0.05; gate < floor {
				gate = floor
			}
			if gate < maxD2 {
				maxD2 = gate
			}
		}

		// -- Correspondence: nearest target point per source point.
		prof.Begin("correspondence")
		var errSum float64
		pairs, errSum = correspond(idx, moving, maxD2, q, pairs[:0])
		res.NNQueries += int64(moving.Len())
		prof.End()
		if len(pairs) < 3 {
			break
		}
		meanErr := errSum / float64(len(pairs))

		// -- Transform estimation.
		prof.Begin("matrix")
		var step pointcloud.Rigid
		if cfg.Method == PointToPlane {
			var perr error
			step, perr = planeStep(moving, target, normals, pairs)
			if perr != nil {
				// Degenerate normal system; fall back to point-to-point
				// for this iteration.
				step = pointStep(moving, target, pairs)
			}
		} else {
			step = pointStep(moving, target, pairs)
		}
		total = step.Compose(total)
		prof.End()

		// -- Apply the incremental transform to the moving cloud.
		prof.Begin("apply")
		moving.TransformInPlace(step)
		prof.End()
		prof.StepDone()

		if prevErr-meanErr < cfg.ConvergeTol*prevErr {
			prevErr = meanErr
			break
		}
		prevErr = meanErr
	}

	res.RMSE = math.Sqrt(math.Max(prevErr, 0))
	// The true alignment is identity, so `total` should be ≈ identity.
	res.RotationError = rotationAngle(total.R)
	res.TranslationError = total.T.Norm()
	return nil
}

// correspond matches every moving point to its nearest target point and
// appends the matches within squared distance maxD2 to pairs, returning
// them with the sum of their squared distances. q is 3-float query scratch;
// with pairs' capacity reused, a pass allocates nothing.
func correspond(idx nearester, moving *pointcloud.Cloud, maxD2 float64, q []float64, pairs []pair) ([]pair, float64) {
	var errSum float64
	for i, p := range moving.Points {
		q[0], q[1], q[2] = p.X, p.Y, p.Z
		t, d2, ok := idx.Nearest(q)
		if !ok || d2 > maxD2 {
			continue
		}
		pairs = append(pairs, pair{i, t})
		errSum += d2
	}
	return pairs, errSum
}

// pair links a source (moving) point index to its matched target index.
type pair struct{ s, t int }

// pointStep computes the optimal rigid step for the matched pairs under the
// point-to-point metric via Horn's closed-form quaternion solution.
func pointStep(moving, target *pointcloud.Cloud, pairs []pair) pointcloud.Rigid {
	var cs, ct geom.Vec3
	for _, pr := range pairs {
		cs = cs.Add(moving.Points[pr.s])
		ct = ct.Add(target.Points[pr.t])
	}
	inv := 1 / float64(len(pairs))
	cs = cs.Scale(inv)
	ct = ct.Scale(inv)

	var s [9]float64 // cross-covariance Σ (p-cp)(q-cq)ᵀ
	for _, pr := range pairs {
		p := moving.Points[pr.s].Sub(cs)
		t := target.Points[pr.t].Sub(ct)
		s[0] += p.X * t.X
		s[1] += p.X * t.Y
		s[2] += p.X * t.Z
		s[3] += p.Y * t.X
		s[4] += p.Y * t.Y
		s[5] += p.Y * t.Z
		s[6] += p.Z * t.X
		s[7] += p.Z * t.Y
		s[8] += p.Z * t.Z
	}
	rot := hornRotation(s)
	trans := ct.Sub(applyR(rot, cs))
	return pointcloud.Rigid{R: rot, T: trans}
}

// planeStep computes the rigid step minimizing the point-to-plane error
// Σ((Rp + t − q)·n)² in its standard small-angle linearization: the unknown
// is x = (α, β, γ, tx, ty, tz) and each pair contributes the row
// [p×n ; n]·x = (q−p)·n to the 6×6 normal equations.
func planeStep(moving, target *pointcloud.Cloud, normals []geom.Vec3, pairs []pair) (pointcloud.Rigid, error) {
	ata := mat.New(6, 6)
	atb := make([]float64, 6)
	row := make([]float64, 6)
	for _, pr := range pairs {
		p := moving.Points[pr.s]
		q := target.Points[pr.t]
		n := normals[pr.t]
		c := p.Cross(n)
		row[0], row[1], row[2] = c.X, c.Y, c.Z
		row[3], row[4], row[5] = n.X, n.Y, n.Z
		b := q.Sub(p).Dot(n)
		for i := 0; i < 6; i++ {
			for j := i; j < 6; j++ {
				ata.Set(i, j, ata.At(i, j)+row[i]*row[j])
			}
			atb[i] += row[i] * b
		}
	}
	for i := 1; i < 6; i++ {
		for j := 0; j < i; j++ {
			ata.Set(i, j, ata.At(j, i))
		}
	}
	x, err := mat.Solve(ata, atb)
	if err != nil {
		return pointcloud.Rigid{}, err
	}
	// Rebuild a proper rotation from the small angles via Z-Y-X Euler
	// composition (valid in the small-angle regime the linearization
	// assumes).
	step := pointcloud.FromEuler(x[2], x[1], x[0], geom.Vec3{X: x[3], Y: x[4], Z: x[5]})
	return step, nil
}

// hornRotation returns the rotation maximizing alignment for the given
// cross-covariance (row-major), via the max eigenvector of Horn's 4×4
// symmetric matrix.
func hornRotation(s [9]float64) [9]float64 {
	sxx, sxy, sxz := s[0], s[1], s[2]
	syx, syy, syz := s[3], s[4], s[5]
	szx, szy, szz := s[6], s[7], s[8]
	n := mat.FromRows([][]float64{
		{sxx + syy + szz, syz - szy, szx - sxz, sxy - syx},
		{syz - szy, sxx - syy - szz, sxy + syx, szx + sxz},
		{szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy},
		{sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz},
	})
	qv := mat.MaxEigenVector(n)
	w, x, y, z := qv[0], qv[1], qv[2], qv[3]
	// Normalize defensively.
	nq := math.Sqrt(w*w + x*x + y*y + z*z)
	if nq == 0 {
		return [9]float64{1, 0, 0, 0, 1, 0, 0, 0, 1}
	}
	w, x, y, z = w/nq, x/nq, y/nq, z/nq
	return [9]float64{
		1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y),
		2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x),
		2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y),
	}
}

func applyR(r [9]float64, v geom.Vec3) geom.Vec3 {
	return geom.Vec3{
		X: r[0]*v.X + r[1]*v.Y + r[2]*v.Z,
		Y: r[3]*v.X + r[4]*v.Y + r[5]*v.Z,
		Z: r[6]*v.X + r[7]*v.Y + r[8]*v.Z,
	}
}

// rotationAngle returns the angle of a rotation matrix, radians.
func rotationAngle(r [9]float64) float64 {
	tr := r[0] + r[4] + r[8]
	c := (tr - 1) / 2
	return math.Acos(geom.Clamp(c, -1, 1))
}
