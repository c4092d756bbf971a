// Package ekfslam implements kernel 02.ekfslam: simultaneous localization
// and mapping with an Extended Kalman Filter (paper §V.2).
//
// The robot drives a circuit through an environment with point landmarks,
// observing noisy range and bearing to each visible landmark. The EKF
// maintains a joint Gaussian over the robot pose and all landmark positions;
// each motion prediction and each measurement update is dominated by dense
// matrix multiplications and a matrix inversion — the operations the paper
// measures at more than 85% of execution time and that this implementation
// wraps in the "matrix" harness phase.
package ekfslam

import (
	"context"
	"math"

	"repro/internal/check"
	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/sensor"
)

// Config parameterizes a SLAM run.
type Config struct {
	Landmarks []sensor.Landmark // nil builds the default 6-landmark ring (paper's Fig. 3 setup)
	Steps     int
	Dt        float64 // seconds per step
	V         float64 // commanded forward velocity, m/s
	Omega     float64 // commanded angular velocity, rad/s
	Sensor    sensor.RangeBearingSensor
	// MotionNoise are the standard deviations of the executed (true) motion:
	// translational (m per step) and rotational (rad per step).
	MotionNoiseTrans float64
	MotionNoiseRot   float64
	// UnknownAssociation drops the sensor's landmark identities: the filter
	// must associate each observation itself by Mahalanobis gating —
	// matching it to the landmark with the smallest normalized innovation,
	// initializing a new landmark when nothing gates in. This is the
	// realistic SLAM setting; the default (known correspondences) matches
	// the paper's synthetic six-landmark setup.
	UnknownAssociation bool
	// GateAccept and GateNew are the Mahalanobis-distance² thresholds for
	// accepting an association (default: χ²₂ at 95% = 5.99) and for
	// declaring a new landmark (default 25, deliberately above the χ² 99%
	// point — see Run). Observations falling between the two are ambiguous
	// and discarded.
	GateAccept, GateNew float64
	Seed                int64
}

// DefaultConfig returns the paper-style setup: six landmarks, a circular
// drive, Gaussian noise on every range/bearing measurement.
func DefaultConfig() Config {
	return Config{
		Steps: 500,
		Dt:    0.1,
		V:     1.0,
		Omega: 0.15,
		Sensor: sensor.RangeBearingSensor{
			MaxRange:   20,
			SigmaRange: 0.10,
			SigmaBear:  0.01,
		},
		MotionNoiseTrans: 0.005,
		MotionNoiseRot:   0.002,
		Seed:             1,
	}
}

// Validate reports every dimension, bound, and finiteness violation in the
// config.
func (c Config) Validate() error {
	f := check.New("ekfslam")
	f.PositiveInt("Steps", c.Steps)
	f.Positive("Dt", c.Dt)
	f.Finite("V", c.V)
	f.Finite("Omega", c.Omega)
	f.NonNegative("Sensor.MaxRange", c.Sensor.MaxRange)
	f.NonNegative("Sensor.SigmaRange", c.Sensor.SigmaRange)
	f.NonNegative("Sensor.SigmaBear", c.Sensor.SigmaBear)
	f.NonNegative("MotionNoiseTrans", c.MotionNoiseTrans)
	f.NonNegative("MotionNoiseRot", c.MotionNoiseRot)
	f.NonNegative("GateAccept", c.GateAccept)
	f.NonNegative("GateNew", c.GateNew)
	for i, lm := range c.Landmarks {
		if !finite(lm.P.X) || !finite(lm.P.Y) {
			f.Addf("Landmarks[%d] has non-finite position (%v, %v)", i, lm.P.X, lm.P.Y)
		}
	}
	return f.Err()
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// DefaultLandmarks returns six landmarks spread around the robot's circuit,
// mirroring the paper's synthetic setting with six landmarks.
func DefaultLandmarks() []sensor.Landmark {
	// The default circuit is a circle of radius V/Omega ≈ 6.7 m centered at
	// (0, R); landmarks ring that circle.
	return []sensor.Landmark{
		{ID: 0, P: geom.Vec2{X: 10, Y: 0}},
		{ID: 1, P: geom.Vec2{X: 12, Y: 10}},
		{ID: 2, P: geom.Vec2{X: 5, Y: 16}},
		{ID: 3, P: geom.Vec2{X: -6, Y: 14}},
		{ID: 4, P: geom.Vec2{X: -10, Y: 4}},
		{ID: 5, P: geom.Vec2{X: -2, Y: -5}},
	}
}

// Result reports estimation quality and workload statistics.
type Result struct {
	// PoseError is the final Euclidean error of the robot position estimate.
	PoseError float64
	// MeanLandmarkError averages the Euclidean estimation error over
	// landmarks that were observed at least once.
	MeanLandmarkError float64
	// LandmarksSeen counts landmarks initialized in the state.
	LandmarksSeen int
	// Updates counts measurement updates performed.
	Updates int64
	// Discarded counts observations dropped as ambiguous by the
	// data-association gate (unknown-association mode only).
	Discarded int64
	// Rejected counts observations rejected by the finite-value guard
	// (NaN/Inf range or bearing, as fault injection produces). A corrupted
	// measurement must never reach the covariance update: one NaN in the
	// innovation poisons the whole joint state irreversibly.
	Rejected int64
	// EstimatedPath holds the filter's pose estimate at every step (for the
	// examples' Fig. 3-style output).
	EstimatedPath []geom.Pose2
	// TruePath holds the simulated true poses.
	TruePath []geom.Pose2
	// Uncertainty is the trace of the final covariance, an overall
	// confidence measure.
	Uncertainty float64
}

// filter carries the joint EKF state plus the preallocated scratch the
// predict/update cycle writes into. After newFilter (and once every landmark
// has been observed, so the observation buffer has reached capacity) a step
// performs no heap allocation — the property BenchmarkEKFSLAMStep pins and
// scripts/ci.sh gates. See DESIGN.md "Scratch-buffer ownership" for the
// aliasing rules.
type filter struct {
	cfg                 Config
	lms                 []sensor.Landmark
	dim                 int
	capSlots            int
	gateAccept, gateNew float64
	qr, qb              float64
	r                   *rng.RNG
	mu                  []float64
	sigma               *mat.Matrix
	seen                []bool
	slots               int // initialized landmark slots (unknown-association mode)
	truth               geom.Pose2
	obsBuf              []sensor.RangeBearing
	sc                  scratch
	res                 *Result
}

// scratch holds every intermediate matrix and vector of one EKF step, sized
// once at construction. The filter owns these buffers exclusively; no callee
// retains a reference past its return.
type scratch struct {
	g        *mat.Matrix // dim×dim motion Jacobian (identity + two entries)
	gt       *mat.Matrix // dim×dim gᵀ
	gs       *mat.Matrix // dim×dim g·Σ in predict; (I−KH) in update
	newSigma *mat.Matrix // dim×dim next covariance before commit
	h        *mat.Matrix // 2×dim measurement Jacobian
	ht       *mat.Matrix // dim×2 hᵀ
	hs       *mat.Matrix // 2×dim h·Σ (association gating)
	sht      *mat.Matrix // dim×2 Σ·hᵀ
	s        *mat.Matrix // 2×2 innovation covariance
	sInv     *mat.Matrix // 2×2
	k        *mat.Matrix // dim×2 Kalman gain
	kh       *mat.Matrix // dim×dim K·H
	lu       *mat.LU     // 2×2 factorization workspace
	innov    []float64   // 2
	dmu      []float64   // dim
}

func newScratch(dim int) scratch {
	sc := scratch{
		g:        mat.Identity(dim),
		gt:       mat.New(dim, dim),
		gs:       mat.New(dim, dim),
		newSigma: mat.New(dim, dim),
		h:        mat.New(2, dim),
		ht:       mat.New(dim, 2),
		hs:       mat.New(2, dim),
		sht:      mat.New(dim, 2),
		s:        mat.New(2, 2),
		sInv:     mat.New(2, 2),
		k:        mat.New(dim, 2),
		kh:       mat.New(dim, dim),
		lu:       mat.NewLU(2),
		innov:    make([]float64, 2),
		dmu:      make([]float64, dim),
	}
	return sc
}

// newFilter validates cfg and builds the filter state: pose + landmark
// positions, with covariance near-certain for the pose and "unknown" (huge
// variance) for landmarks.
func newFilter(cfg Config, res *Result) (*filter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lms := cfg.Landmarks
	if lms == nil {
		lms = DefaultLandmarks()
	}
	nL := len(lms)
	// With unknown association the filter may transiently create spurious
	// landmarks, so the state reserves extra slots.
	capSlots := nL
	if cfg.UnknownAssociation {
		capSlots = 2 * nL
	}
	dim := 3 + 2*capSlots
	gateAccept := cfg.GateAccept
	if gateAccept <= 0 {
		gateAccept = 5.99 // χ²(2) at 95%
	}
	gateNew := cfg.GateNew
	if gateNew <= 0 {
		// Conservative: a textbook χ²(2)-99% gate (9.21) still spawns
		// duplicate landmarks during the early, high-covariance steps;
		// requiring a much larger surprise before declaring a new landmark
		// recovers the true landmark count on the default scenario.
		gateNew = 25
	}
	f := &filter{
		cfg:        cfg,
		lms:        lms,
		dim:        dim,
		capSlots:   capSlots,
		gateAccept: gateAccept,
		gateNew:    gateNew,
		qr:         cfg.Sensor.SigmaRange * cfg.Sensor.SigmaRange,
		qb:         cfg.Sensor.SigmaBear * cfg.Sensor.SigmaBear,
		r:          rng.New(cfg.Seed),
		mu:         make([]float64, dim),
		sigma:      mat.New(dim, dim),
		seen:       make([]bool, capSlots),
		obsBuf:     make([]sensor.RangeBearing, 0, nL),
		sc:         newScratch(dim),
		res:        res,
	}
	const unseenVar = 1e6
	for i := 3; i < dim; i++ {
		f.sigma.Set(i, i, unseenVar)
	}
	if f.qr == 0 {
		f.qr = 1e-6
	}
	if f.qb == 0 {
		f.qb = 1e-6
	}
	return f, nil
}

// step advances the world simulation by one control cycle and folds the
// resulting observation batch into the EKF.
func (f *filter) step(prof *profile.Profile) {
	cfg := &f.cfg
	// --- Simulate the world: true motion with execution noise, then a
	// noisy observation batch.
	prof.Begin("sensor")
	v := cfg.V + f.r.Normal(0, cfg.MotionNoiseTrans/cfg.Dt)
	w := cfg.Omega + f.r.Normal(0, cfg.MotionNoiseRot/cfg.Dt)
	f.truth = integrate(f.truth, v, w, cfg.Dt)
	f.obsBuf = cfg.Sensor.ObserveInto(f.obsBuf[:0], f.r, f.truth, f.lms)
	prof.End()

	// --- EKF predict with the commanded control.
	f.predict(prof)

	// --- EKF update per observation: either trusting the sensor's
	// identities, or associating by Mahalanobis gating.
	for _, z := range f.obsBuf {
		if !finite(z.Range) || !finite(z.Bearing) || z.Range < 0 {
			f.res.Rejected++
			continue
		}
		if !cfg.UnknownAssociation {
			f.update(z.ID, z, prof)
			f.res.Updates++
			continue
		}
		prof.Begin("associate")
		best, bestD2 := -1, math.Inf(1)
		for j := 0; j < f.slots; j++ {
			if d2, ok := f.mahalanobis(j, z); ok && d2 < bestD2 {
				best, bestD2 = j, d2
			}
		}
		prof.End()
		switch {
		case best >= 0 && bestD2 < f.gateAccept:
			f.update(best, z, prof)
			f.res.Updates++
		case bestD2 > f.gateNew && f.slots < f.capSlots:
			f.update(f.slots, z, prof)
			f.slots++
			f.res.Updates++
		default:
			f.res.Discarded++ // ambiguous observation
		}
	}
}

// finalize computes the estimation-quality summary into the result.
func (f *filter) finalize() {
	res := f.res
	mu := f.mu
	res.PoseError = math.Hypot(mu[0]-f.truth.X, mu[1]-f.truth.Y)
	var errSum float64
	var matched int
	if f.cfg.UnknownAssociation {
		// The filter's landmark indices are its own; score each true
		// landmark against the nearest estimate. The nearest match is found
		// on squared distances — one sqrt per landmark at the end instead of
		// a hypot per candidate.
		res.LandmarksSeen = f.slots
		for _, lm := range f.lms {
			best := math.Inf(1)
			for j := 0; j < f.slots; j++ {
				ex := mu[3+2*j] - lm.P.X
				ey := mu[3+2*j+1] - lm.P.Y
				if d2 := ex*ex + ey*ey; d2 < best {
					best = d2
				}
			}
			if !math.IsInf(best, 1) {
				errSum += math.Sqrt(best)
				matched++
			}
		}
	} else {
		for i, lm := range f.lms {
			if !f.seen[i] {
				continue
			}
			res.LandmarksSeen++
			matched++
			errSum += math.Hypot(mu[3+2*i]-lm.P.X, mu[3+2*i+1]-lm.P.Y)
		}
	}
	if matched > 0 {
		res.MeanLandmarkError = errSum / float64(matched)
	}
	for i := 0; i < f.dim; i++ {
		res.Uncertainty += f.sigma.At(i, i)
	}
}

// Run executes the kernel. Harness phases: "matrix" (matrix multiplications
// and the innovation-covariance inversion), "jacobian" (building the sparse
// Jacobians), "sensor" (simulating measurements, outside the estimation
// work).
func Run(ctx context.Context, cfg Config, prof *profile.Profile) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := Result{}
	f, err := newFilter(cfg, &res)
	if err != nil {
		return Result{}, err
	}
	res.TruePath = make([]geom.Pose2, 0, cfg.Steps)
	res.EstimatedPath = make([]geom.Pose2, 0, cfg.Steps)

	prof.BeginROI()
	for step := 0; step < cfg.Steps; step++ {
		if err := ctx.Err(); err != nil {
			prof.EndROI()
			return res, err
		}
		f.step(prof)
		res.TruePath = append(res.TruePath, f.truth)
		res.EstimatedPath = append(res.EstimatedPath, geom.Pose2{X: f.mu[0], Y: f.mu[1], Theta: f.mu[2]})
		prof.StepDone()
	}
	prof.EndROI()

	f.finalize()
	return res, nil
}

func integrate(p geom.Pose2, v, w, dt float64) geom.Pose2 {
	if math.Abs(w) < 1e-9 {
		return geom.Pose2{
			X:     p.X + v*dt*math.Cos(p.Theta),
			Y:     p.Y + v*dt*math.Sin(p.Theta),
			Theta: p.Theta,
		}
	}
	return geom.Pose2{
		X:     p.X + v/w*(math.Sin(p.Theta+w*dt)-math.Sin(p.Theta)),
		Y:     p.Y + v/w*(math.Cos(p.Theta)-math.Cos(p.Theta+w*dt)),
		Theta: geom.NormalizeAngle(p.Theta + w*dt),
	}
}

// predict applies the motion model to the mean and propagates the full joint
// covariance: Σ ← G Σ Gᵀ + R, with dense (3+2N)² multiplications.
func (f *filter) predict(prof *profile.Profile) {
	cfg := &f.cfg
	mu, sigma, sc := f.mu, f.sigma, &f.sc
	v, w, dt := cfg.V, cfg.Omega, cfg.Dt

	prof.Begin("jacobian")
	theta := mu[2]
	// sc.g stays the identity between calls; only the two motion-Jacobian
	// entries change, and both are overwritten every call.
	g := sc.g
	var dx, dy float64
	if math.Abs(w) < 1e-9 {
		dx = v * dt * math.Cos(theta)
		dy = v * dt * math.Sin(theta)
		g.Set(0, 2, -v*dt*math.Sin(theta))
		g.Set(1, 2, v*dt*math.Cos(theta))
	} else {
		dx = v / w * (math.Sin(theta+w*dt) - math.Sin(theta))
		dy = v / w * (math.Cos(theta) - math.Cos(theta+w*dt))
		g.Set(0, 2, v/w*(math.Cos(theta+w*dt)-math.Cos(theta)))
		g.Set(1, 2, v/w*(math.Sin(theta+w*dt)-math.Sin(theta)))
	}
	prof.End()

	mu[0] += dx
	mu[1] += dy
	mu[2] = geom.NormalizeAngle(mu[2] + w*dt)

	prof.Begin("matrix")
	mat.MulInto(sc.gs, g, sigma)
	mat.TransposeInto(sc.gt, g)
	newSigma := mat.MulInto(sc.newSigma, sc.gs, sc.gt)
	// Process noise enters only the pose block.
	nt := cfg.MotionNoiseTrans * cfg.MotionNoiseTrans
	nr := cfg.MotionNoiseRot * cfg.MotionNoiseRot
	newSigma.Set(0, 0, newSigma.At(0, 0)+nt)
	newSigma.Set(1, 1, newSigma.At(1, 1)+nt)
	newSigma.Set(2, 2, newSigma.At(2, 2)+nr)
	sigma.CopyFrom(newSigma)
	prof.End()
}

// fillH writes the sparse 2×dim range-bearing measurement Jacobian for a
// landmark at state offset li into sc.h (zeroing it first).
func (sc *scratch) fillH(li int, dx, dy, q, sq float64) *mat.Matrix {
	h := sc.h
	h.Zero()
	h.Set(0, 0, -dx/sq)
	h.Set(0, 1, -dy/sq)
	h.Set(1, 0, dy/q)
	h.Set(1, 1, -dx/q)
	h.Set(1, 2, -1)
	h.Set(0, li, dx/sq)
	h.Set(0, li+1, dy/sq)
	h.Set(1, li, -dy/q)
	h.Set(1, li+1, dx/q)
	return h
}

// invertS adds the measurement noise to the 2×2 innovation covariance sc.s
// and inverts it into sc.sInv through the reusable LU workspace. ok is false
// when the covariance is numerically singular.
func (f *filter) invertS() bool {
	sc := &f.sc
	sc.s.Set(0, 0, sc.s.At(0, 0)+f.qr)
	sc.s.Set(1, 1, sc.s.At(1, 1)+f.qb)
	sc.lu.Refactor(sc.s)
	return sc.lu.InverseInto(sc.sInv) == nil
}

// mahalanobis returns the squared normalized innovation distance of
// observation z against landmark slot j — the association statistic of
// gated nearest-neighbor data association. ok is false for degenerate
// geometry.
func (f *filter) mahalanobis(j int, z sensor.RangeBearing) (float64, bool) {
	mu, sc := f.mu, &f.sc
	li := 3 + 2*j
	dx := mu[li] - mu[0]
	dy := mu[li+1] - mu[1]
	q := dx*dx + dy*dy
	if q < 1e-12 {
		return 0, false
	}
	sq := math.Sqrt(q)
	nuR := z.Range - sq
	nuB := geom.NormalizeAngle(z.Bearing - geom.NormalizeAngle(math.Atan2(dy, dx)-mu[2]))

	// 2×2 innovation covariance from the pose+landmark sub-blocks (the
	// cross terms with other landmarks do not affect this 2×2 within
	// numerical noise for gating purposes, and the full product is built
	// during the actual update).
	h := sc.fillH(li, dx, dy, q, sq)
	mat.MulInto(sc.hs, h, f.sigma)
	mat.TransposeInto(sc.ht, h)
	mat.MulInto(sc.s, sc.hs, sc.ht)
	if !f.invertS() {
		return 0, false
	}
	// νᵀ S⁻¹ ν, unrolled for the 2×2 case.
	si := sc.sInv
	return nuR*(si.At(0, 0)*nuR+si.At(0, 1)*nuB) +
		nuB*(si.At(1, 0)*nuR+si.At(1, 1)*nuB), true
}

// update folds one range-bearing observation into landmark slot j.
func (f *filter) update(j int, z sensor.RangeBearing, prof *profile.Profile) {
	mu, sigma, sc := f.mu, f.sigma, &f.sc
	dim := f.dim
	li := 3 + 2*j

	if !f.seen[j] {
		// Initialize the landmark from the observation.
		mu[li] = mu[0] + z.Range*math.Cos(z.Bearing+mu[2])
		mu[li+1] = mu[1] + z.Range*math.Sin(z.Bearing+mu[2])
		f.seen[j] = true
	}

	prof.Begin("jacobian")
	dx := mu[li] - mu[0]
	dy := mu[li+1] - mu[1]
	q := dx*dx + dy*dy
	if q < 1e-12 {
		prof.End()
		return
	}
	sq := math.Sqrt(q)
	zhatR := sq
	zhatB := geom.NormalizeAngle(math.Atan2(dy, dx) - mu[2])

	// Dense 2×dim measurement Jacobian (sparse in theory; the paper's
	// kernel performs the full-width matrix products, which is exactly what
	// makes matrix ops dominate).
	h := sc.fillH(li, dx, dy, q, sq)
	prof.End()

	prof.Begin("matrix")
	mat.TransposeInto(sc.ht, h)
	sht := mat.MulInto(sc.sht, sigma, sc.ht) // dim×2
	mat.MulInto(sc.s, h, sht)                // 2×2 innovation covariance
	if !f.invertS() {
		prof.End()
		return // numerically degenerate observation; skip
	}
	k := mat.MulInto(sc.k, sht, sc.sInv) // dim×2 Kalman gain

	sc.innov[0] = z.Range - zhatR
	sc.innov[1] = geom.NormalizeAngle(z.Bearing - zhatB)
	mat.MulVecInto(sc.dmu, k, sc.innov)
	for i := 0; i < dim; i++ {
		mu[i] += sc.dmu[i]
	}
	mu[2] = geom.NormalizeAngle(mu[2])

	kh := mat.MulInto(sc.kh, k, h) // dim×dim
	// ikh = I − KH, built in place in the gs scratch (idle outside predict).
	ikh := sc.gs
	for i := range ikh.Data {
		ikh.Data[i] = -kh.Data[i]
	}
	for i := 0; i < dim; i++ {
		ikh.Data[i*dim+i] += 1
	}
	newSigma := mat.MulInto(sc.newSigma, ikh, sigma)
	// The (I−KH)Σ form loses symmetry to floating-point error a little more
	// each update, and asymmetry corrupts the Mahalanobis gating; re-impose
	// Σ ← (Σ + Σᵀ)/2 before committing.
	symmetrize(newSigma)
	sigma.CopyFrom(newSigma)
	prof.End()
}

// symmetrize overwrites m with (m + mᵀ)/2.
func symmetrize(m *mat.Matrix) {
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}
