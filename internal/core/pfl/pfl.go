// Package pfl implements kernel 01.pfl: particle filter localization
// (Monte Carlo localization) of a mobile robot with an odometer and a laser
// rangefinder on a known occupancy map (paper §V.1).
//
// The filter maintains a population of pose hypotheses (particles), updates
// them with sampled odometry, weighs them by matching simulated laser
// ray-casts against the sensed ranges, and resamples when the effective
// sample size drops. Ray-casting — every particle traversing the map along
// every beam direction — is the kernel's dominant phase; the paper measures
// 67-78% of execution time there, and the harness regions in this
// implementation reproduce that breakdown.
//
// Two initialization modes exist, both present in the MCL literature:
// global (uniform over free space, the paper's Fig. 2 setting — the initial
// population is over-provisioned so the narrow true-pose basin gets seeded)
// and tracking (Gaussian around a prior pose, the common deployed setting).
// Global localization of a 1000 m² building is a genuinely hard inference
// problem: production systems throw 10^5 particles at it, and some seeds
// still converge to an aliased room. EXPERIMENTS.md reports the measured
// convergence rate.
package pfl

import (
	"context"
	"errors"
	"math"
	"sync"

	"repro/internal/check"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/maps"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/sensor"
)

// Config parameterizes one localization run. All fields have sensible
// defaults via DefaultConfig; every one is settable from cmd/rtrbench flags,
// matching the paper's "completely flexible" CLI contract.
type Config struct {
	Map    *grid.Grid2D // known environment; nil builds the default indoor map
	Region int          // which of the 5 building parts to start in (paper evaluates five)
	// Start overrides the robot's true starting pose (default: the center
	// of the selected Region).
	Start     *geom.Pose2
	Particles int // steady-state particle population size
	Steps     int // motion/measurement cycles
	Laser     sensor.Laser
	Odom      sensor.OdometryModel
	StepLen   float64 // commanded forward motion per step, meters

	// ModelSigma is the sensor-model range standard deviation used for
	// weighting (deliberately larger than the laser's true noise: global
	// localization needs a forgiving likelihood so partially matching
	// particles survive early resampling rounds).
	ModelSigma float64
	// ZHit and ZRand mix the Gaussian hit model with a uniform floor, the
	// standard beam mixture model.
	ZHit, ZRand float64
	// AnnealFrom and AnnealDecay control likelihood annealing: beam
	// log-likelihood increments are divided by a temperature that starts at
	// AnnealFrom and decays toward 1. A smooth early likelihood keeps broad
	// hypotheses alive until the population has found the right basin.
	AnnealFrom, AnnealDecay float64
	// InitFactor over-provisions the initial uniform draw by this factor;
	// the population returns to Particles at the first resampling. Global
	// localization needs the initial draw to seed the (tiny) true-pose
	// basin at least once.
	InitFactor int
	// InjectRate is the fraction of particles replaced by fresh uniform
	// samples at each resampling (augmented MCL), enabling recovery from a
	// wrong converged hypothesis.
	InjectRate float64

	// Workers shards the per-particle hot loops — the motion update and the
	// ray-casting measurement update — across up to this many goroutines.
	// 0 (the default) runs the legacy serial algorithm. Any Workers >= 1
	// selects the deterministic parallel algorithm: the motion update draws
	// one tick base from the main RNG and gives particle i the sub-stream
	// seeded by base+i, so results are bit-identical for every worker count
	// (1 worker and 64 workers digest the same); the weigh fan-out is pure
	// and needs no sub-streams. See DESIGN.md "Intra-kernel parallelism".
	Workers int

	// LikelihoodField replaces the beam ray-cast model with AMCL's
	// likelihood-field model: each measured beam endpoint is scored by its
	// distance to the nearest obstacle (a precomputed distance transform).
	// This is the ablation that removes the paper's ray-casting bottleneck
	// entirely — the reason Intel's ray-casting accelerator (§V.1) targets
	// the beam model.
	LikelihoodField bool

	// TrackingPrior, when non-nil, switches to tracking mode: particles
	// initialize from a Gaussian around this pose instead of uniformly.
	TrackingPrior *geom.Pose2
	// TrackingSpread is the positional std-dev (meters) of the tracking
	// prior; the heading spread is TrackingSpread/2 radians.
	TrackingSpread float64

	Seed int64
}

// Validate reports every dimension, bound, and finiteness violation in the
// config.
func (c Config) Validate() error {
	f := check.New("pfl")
	f.PositiveInt("Particles", c.Particles)
	f.PositiveInt("Steps", c.Steps)
	f.NonNegative("StepLen", c.StepLen)
	f.NonNegative("ModelSigma", c.ModelSigma)
	f.NonNegative("ZHit", c.ZHit)
	f.NonNegative("ZRand", c.ZRand)
	f.Finite("AnnealFrom", c.AnnealFrom)
	f.Finite("AnnealDecay", c.AnnealDecay)
	f.Prob("InjectRate", c.InjectRate)
	f.NonNegativeInt("InitFactor", c.InitFactor)
	f.NonNegativeInt("Workers", c.Workers)
	// The laser feeds two divisions: a zero MaxRange turns the uniform
	// mixture floor into +Inf, and a zero NumBeams allocates an empty scan.
	f.PositiveInt("Laser.NumBeams", c.Laser.NumBeams)
	f.Positive("Laser.MaxRange", c.Laser.MaxRange)
	f.NonNegative("TrackingSpread", c.TrackingSpread)
	if c.Start != nil {
		f.Finite("Start.X", c.Start.X)
		f.Finite("Start.Y", c.Start.Y)
		f.Finite("Start.Theta", c.Start.Theta)
	}
	return f.Err()
}

// DefaultConfig returns the "typical, realistic configuration" used in the
// paper-style evaluation: an indoor building map, 2000 particles, global
// initialization.
func DefaultConfig() Config {
	return Config{
		Region:      0,
		Particles:   2000,
		Steps:       100,
		Laser:       sensor.DefaultLaser(),
		Odom:        sensor.DefaultOdometryModel(),
		StepLen:     0.2,
		ModelSigma:  0.4,
		ZHit:        0.9,
		ZRand:       0.1,
		AnnealFrom:  16,
		AnnealDecay: 0.85,
		InitFactor:  25,
		InjectRate:  0.005,
		Seed:        1,
	}
}

// DefaultMap builds the synthetic indoor building (Wean Hall substitute)
// used when Config.Map is nil.
func DefaultMap(seed int64) *grid.Grid2D {
	g := maps.IndoorMap(192, 96, seed)
	g.Resolution = 0.25 // 48 m x 24 m floor
	return g
}

// Result reports the outcome of a localization run.
type Result struct {
	// Estimate is the filter's mode estimate after the final update.
	Estimate geom.Pose2
	// Truth is the robot's true final pose.
	Truth geom.Pose2
	// PositionError is the Euclidean distance between estimate and truth.
	PositionError float64
	// HeadingError is the absolute heading difference, radians.
	HeadingError float64
	// Raycasts counts individual ray-cast operations performed.
	Raycasts int64
	// CellsVisited counts occupancy cells touched by ray casting (the
	// spatial-locality work unit the paper highlights).
	CellsVisited int64
	// Resamples counts resampling events (ESS-triggered).
	Resamples int
	// EffectiveSampleSize is the final-step ESS, a filter health measure.
	EffectiveSampleSize float64
}

type particle struct {
	pose geom.Pose2
	logw float64
}

// wshard is one worker's measurement-update contribution.
type wshard struct {
	raycasts, cells int64
}

// state carries the particle population and every buffer the filter step
// reuses. The particle slices are double-buffered across resampling steps
// and the scan/weight buffers are caller-owned, so a steady-state step
// performs no heap allocation (the property BenchmarkPFLStep pins and
// scripts/ci.sh gates). See DESIGN.md "Scratch-buffer ownership" for the
// aliasing rules.
type state struct {
	cfg   Config
	g     *grid.Grid2D
	r     *rng.RNG
	truth geom.Pose2
	// parts is the live population; spare is the inactive half of the
	// resampling double buffer (cap >= cfg.Particles). lowVarianceResample
	// writes into spare, then the two swap.
	parts, spare []particle
	weights      []float64
	scan         []float64
	distField    []float64
	shards       []wshard
	// beamOff holds each beam's robot-frame angle (Laser.BeamAngle).
	beamOff []float64

	sigma2, zHit, randFloor float64
	// cutoff and logFloor are the exact far-tail shortcut of beamLogLik.
	cutoff, logFloor float64
	temper, decay    float64

	res *Result
}

// newState validates cfg, resolves defaults, and draws the initial particle
// population (global uniform or tracking prior).
func newState(cfg Config, res *Result) (*state, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := cfg.Map
	if g == nil {
		g = DefaultMap(cfg.Seed)
	}
	r := rng.New(cfg.Seed)

	// Ground-truth robot starting pose: explicit, or the center of the
	// requested building region.
	var truth geom.Pose2
	if cfg.Start != nil {
		truth = *cfg.Start
		if g.OccupiedWorld(truth.X, truth.Y) {
			return nil, errors.New("pfl: start pose is inside an obstacle")
		}
	} else {
		sx, sy := maps.IndoorRegion(g, cfg.Region)
		wx, wy := g.CellToWorld(sx, sy)
		truth = geom.Pose2{X: wx, Y: wy, Theta: 0}
	}

	// Sensor-model parameters with defaults.
	sigma := cfg.ModelSigma
	if sigma <= 0 {
		sigma = 0.4
	}
	zHit, zRand := cfg.ZHit, cfg.ZRand
	if zHit <= 0 {
		zHit = 0.9
	}
	if zRand <= 0 {
		zRand = 0.1
	}
	temper := cfg.AnnealFrom
	if temper < 1 {
		temper = 1
	}
	decay := cfg.AnnealDecay
	if decay <= 0 || decay >= 1 {
		decay = 0.85
	}

	// Initial population.
	var parts []particle
	if cfg.TrackingPrior != nil {
		spread := cfg.TrackingSpread
		if spread <= 0 {
			spread = 1.0
		}
		parts = make([]particle, cfg.Particles)
		for i := range parts {
			parts[i] = particle{pose: samplePriorPose(r, g, *cfg.TrackingPrior, spread)}
		}
	} else {
		initFactor := cfg.InitFactor
		if initFactor < 1 {
			initFactor = 1
		}
		parts = make([]particle, cfg.Particles*initFactor)
		for i := range parts {
			parts[i] = particle{pose: sampleFreePose(r, g)}
		}
	}
	beamOff := make([]float64, cfg.Laser.NumBeams)
	for b := range beamOff {
		beamOff[b] = cfg.Laser.BeamAngle(b)
	}
	randFloor := zRand / cfg.Laser.MaxRange
	// The far-tail cutoff (see beamLogLik). The half ulp is taken below
	// randFloor, which is never larger than the one above it: a
	// conservative bound that stays finite for every finite randFloor.
	halfULP := (randFloor - math.Nextafter(randFloor, 0)) / 2
	s := &state{
		cfg:       cfg,
		g:         g,
		r:         r,
		truth:     truth,
		parts:     parts,
		spare:     make([]particle, cfg.Particles),
		weights:   make([]float64, len(parts)),
		scan:      make([]float64, cfg.Laser.NumBeams),
		beamOff:   beamOff,
		sigma2:    sigma * sigma,
		zHit:      zHit,
		randFloor: randFloor,
		cutoff:    math.Log(halfULP/zHit) - 1,
		logFloor:  math.Log(randFloor),
		temper:    temper,
		decay:     decay,
		res:       res,
	}
	if cfg.Workers > 0 {
		s.shards = make([]wshard, cfg.Workers)
	}
	return s, nil
}

// weigh ray-casts every beam for every particle in parts and accumulates the
// annealed log-likelihood. Ray-casting here is the paper's notion —
// traversing the map per beam and matching the traverse distance with the
// sensed data — and dominates execution. It is deterministic, so the
// parallel path (Workers > 0) produces bit-identical results for every
// worker count. weigh only reads shared state (scan, map, config), so
// shards may run it concurrently on disjoint sub-slices.
//
// The whole call is one profile phase ("raycast", or "weight" for the
// likelihood-field ablation), not one per particle: a phase costs two clock
// reads and a map lookup, and the per-beam likelihood is part of matching
// the traverse against the scan.
func (s *state) weigh(parts []particle, prof *profile.Profile) (raycasts, cells int64) {
	cfg, g, scan := &s.cfg, s.g, s.scan
	maxRange := cfg.Laser.MaxRange
	if cfg.LikelihoodField {
		// Ablation: score measured endpoints against the distance
		// field — no map traversal at all.
		prof.Begin("weight")
		for i := range parts {
			p := &parts[i]
			if g.OccupiedWorld(p.pose.X, p.pose.Y) {
				p.logw = math.Inf(-1)
				continue
			}
			logw := 0.0
			for b, off := range s.beamOff {
				if scan[b] >= maxRange-1e-9 {
					continue // max-range readings carry no endpoint
				}
				sin, cos := math.Sincos(p.pose.Theta + off)
				cx, cy := g.WorldToCell(p.pose.X+scan[b]*cos, p.pose.Y+scan[b]*sin)
				d := maxRange
				if g.InBounds(cx, cy) {
					d = s.distField[cy*g.W+cx] * g.Resolution
				}
				logw += s.beamLogLik(-d * d / (2 * s.sigma2))
			}
			p.logw += logw / s.temper
		}
		prof.End()
		return 0, 0
	}
	prof.Begin("raycast")
	for i := range parts {
		p := &parts[i]
		if g.OccupiedWorld(p.pose.X, p.pose.Y) {
			p.logw = math.Inf(-1)
			continue
		}
		logw := 0.0
		for b, off := range s.beamOff {
			expected, n := g.RaycastCells(p.pose.X, p.pose.Y, p.pose.Theta+off, maxRange)
			cells += int64(n)
			d := scan[b] - expected
			logw += s.beamLogLik(-d * d / (2 * s.sigma2))
		}
		raycasts += int64(len(s.beamOff))
		p.logw += logw / s.temper
	}
	prof.End()
	return raycasts, cells
}

// beamLogLik returns the beam mixture log-likelihood
// log(zHit·exp(e) + randFloor) for the Gaussian exponent e = −d²/(2σ²).
//
// Far in the tail it returns logFloor = log(randFloor) without evaluating
// exp and log, and the shortcut is exact. Let h be half an ulp of randFloor
// and cutoff = log(h/zHit) − 1. For e < cutoff the exact zHit·exp(e) is
// below h/ℯ ≈ 0.37h; exp's error (under one ulp) and the product's rounding
// change that by a relative 2⁻⁵¹ at most, so the computed addend is still
// below h. An addend below half an ulp rounds away: zHit·exp(e) + randFloor
// == randFloor bitwise, and its log is logFloor. A NaN exponent fails the
// comparison and takes the full path.
func (s *state) beamLogLik(e float64) float64 {
	if e < s.cutoff {
		return s.logFloor
	}
	return s.mixLogLik(e)
}

// mixLogLik is the full mixture log-likelihood, kept out of line so that
// beamLogLik's far-tail shortcut inlines into the beam loop.
func (s *state) mixLogLik(e float64) float64 {
	return math.Log(s.zHit*math.Exp(e) + s.randFloor)
}

// step advances the simulation and the filter by one motion/measurement
// cycle. The phase breakdown matches the paper: "motion", "raycast",
// "weight", "resample".
func (s *state) step(prof *profile.Profile) {
	cfg, g, r := &s.cfg, s.g, s.r
	// -- Simulate the world (outside any kernel phase): move the robot
	// and take a scan. The commanded motion turns away from obstacles.
	odo := commandMotion(g, s.truth, cfg.StepLen)
	s.truth = odo.Apply(s.truth)
	cfg.Laser.ScanInto(s.scan, r, g, s.truth)
	for i, d := range s.scan {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			// A real driver discards unparseable returns; score them as
			// max-range misses so corrupted beams (fault injection)
			// cannot poison the particle weights with NaN.
			s.scan[i] = cfg.Laser.MaxRange
		}
	}

	// -- Motion update: sample the odometry model per particle.
	prof.Begin("motion")
	if cfg.Workers > 0 {
		// Deterministic parallel motion: one base value is drawn serially
		// from the main RNG, and particle i samples from the sub-stream
		// seeded by base+i. The population after the update is a pure
		// function of (base, i) — independent of the worker count and of
		// goroutine scheduling — so any Workers >= 1 is bit-identical.
		tickBase := int64(r.Uint64())
		workers := cfg.Workers
		if workers > len(s.parts) {
			workers = len(s.parts)
		}
		chunk := (len(s.parts) + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if lo >= len(s.parts) {
				break
			}
			if hi > len(s.parts) {
				hi = len(s.parts)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				var pr rng.RNG // stack-allocated: the fan-out stays alloc-light
				for i := lo; i < hi; i++ {
					pr.Seed(tickBase + int64(i))
					noisy := cfg.Odom.Sample(&pr, odo)
					s.parts[i].pose = noisy.Apply(s.parts[i].pose)
				}
			}(lo, hi)
		}
		wg.Wait()
	} else {
		for i := range s.parts {
			noisy := cfg.Odom.Sample(r, odo)
			s.parts[i].pose = noisy.Apply(s.parts[i].pose)
		}
	}
	prof.End()

	// -- Measurement update.
	if cfg.Workers > 0 {
		// Wall time of the whole fan-out is attributed to weigh's phase
		// ("raycast", or "weight" for the likelihood-field ablation) on
		// the main profile (per-worker phase times would sum past the
		// ROI); workers run with profiling off.
		workers := cfg.Workers
		var wg sync.WaitGroup
		chunk := (len(s.parts) + workers - 1) / workers
		// Zero every shard before the fan-out: after the over-provisioned
		// initial population shrinks at the first resample, high-indexed
		// workers have no slice to weigh and never overwrite their shard,
		// so a stale previous-tick shard would be re-accumulated into the
		// counters every remaining tick.
		for i := range s.shards {
			s.shards[i] = wshard{}
		}
		if cfg.LikelihoodField {
			prof.Begin("weight")
		} else {
			prof.Begin("raycast")
		}
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if lo >= len(s.parts) {
				break
			}
			if hi > len(s.parts) {
				hi = len(s.parts)
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				rc, cl := s.weigh(s.parts[lo:hi], profile.Disabled())
				s.shards[w] = wshard{raycasts: rc, cells: cl}
			}(w, lo, hi)
		}
		wg.Wait()
		prof.End()
		for _, sh := range s.shards {
			s.res.Raycasts += sh.raycasts
			s.res.CellsVisited += sh.cells
		}
	} else {
		rc, cl := s.weigh(s.parts, prof)
		s.res.Raycasts += rc
		s.res.CellsVisited += cl
	}

	// -- Normalize and resample when the effective sample size drops
	// (or the over-provisioned initial population must shrink).
	prof.Begin("weight")
	ess, ok := normalize(s.parts, s.weights)
	s.res.EffectiveSampleSize = ess
	prof.End()

	prof.Begin("resample")
	if !ok {
		// Degenerate weights: re-seed uniformly; the filter recovers
		// on later updates.
		for i := range s.parts {
			s.parts[i] = particle{pose: sampleFreePose(r, g)}
		}
	} else if ess < float64(cfg.Particles)/2 || len(s.parts) > cfg.Particles {
		// Resample into the spare half of the double buffer, then swap —
		// no per-resample allocation.
		next := s.spare[:cfg.Particles]
		lowVarianceResample(r, s.parts, s.weights[:len(s.parts)], next)
		// Augmented MCL: a few fresh uniform samples enable recovery.
		for i := range next {
			if r.Float64() < cfg.InjectRate {
				next[i] = particle{pose: sampleFreePose(r, g)}
			}
		}
		s.parts, s.spare = next, s.parts
		s.res.Resamples++
	}
	prof.End()

	// Anneal the likelihood temperature toward 1.
	s.temper = 1 + (s.temper-1)*s.decay
}

// Run executes the kernel. The profile (may be nil) receives the ROI and the
// phase breakdown: "raycast", "motion", "weight", "resample". A cancelled
// ctx aborts between filter steps, returning ctx.Err().
func Run(ctx context.Context, cfg Config, prof *profile.Profile) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := Result{}
	s, err := newState(cfg, &res)
	if err != nil {
		return Result{}, err
	}

	prof.BeginROI()
	// The likelihood-field ablation precomputes the obstacle distance
	// field once (inside the ROI: it replaces per-step ray casting).
	if cfg.LikelihoodField {
		prof.Begin("distfield")
		s.distField = s.g.DistanceTransform()
		prof.End()
	}
	for step := 0; step < cfg.Steps; step++ {
		if err := ctx.Err(); err != nil {
			prof.EndROI()
			return res, err
		}
		s.step(prof)
		prof.StepDone()
	}
	prof.EndROI()

	normalize(s.parts, s.weights)
	res.Estimate = modeEstimate(s.parts, s.weights)
	res.Truth = s.truth
	res.PositionError = math.Hypot(res.Estimate.X-s.truth.X, res.Estimate.Y-s.truth.Y)
	res.HeadingError = math.Abs(geom.AngleDiff(res.Estimate.Theta, s.truth.Theta))
	return res, nil
}

// normalize converts cumulative log-weights into normalized linear weights
// (into the weights buffer) and returns the effective sample size. ok is
// false when every particle has zero likelihood.
func normalize(parts []particle, weights []float64) (ess float64, ok bool) {
	maxLW := math.Inf(-1)
	for i := range parts {
		if parts[i].logw > maxLW {
			maxLW = parts[i].logw
		}
	}
	if math.IsInf(maxLW, -1) {
		return 0, false
	}
	var sum float64
	for i := range parts {
		w := math.Exp(parts[i].logw - maxLW)
		weights[i] = w
		sum += w
	}
	if sum <= 0 {
		return 0, false
	}
	var sum2 float64
	for i := range parts {
		weights[i] /= sum
		sum2 += weights[i] * weights[i]
	}
	return 1 / sum2, true
}

// modeEstimate returns the weighted mean of the particles within 2 m of the
// highest-weight particle (a single-cluster mode estimator; the posterior
// can be multi-modal in aliased buildings, where a global mean is
// meaningless).
func modeEstimate(parts []particle, weights []float64) geom.Pose2 {
	best := 0
	for i := range parts {
		if weights[i] > weights[best] {
			best = i
		}
	}
	center := parts[best].pose
	const radius = 2.0
	var wsum, ex, ey, sc, ss float64
	for i, p := range parts {
		dx := p.pose.X - center.X
		dy := p.pose.Y - center.Y
		if dx*dx+dy*dy > radius*radius {
			continue
		}
		w := weights[i]
		wsum += w
		ex += w * p.pose.X
		ey += w * p.pose.Y
		sc += w * math.Cos(p.pose.Theta)
		ss += w * math.Sin(p.pose.Theta)
	}
	if wsum == 0 {
		return center
	}
	return geom.Pose2{X: ex / wsum, Y: ey / wsum, Theta: math.Atan2(ss/wsum, sc/wsum)}
}

// sampleAttempts bounds rejection sampling of free poses.
const sampleAttempts = 100000

func sampleFreePose(r *rng.RNG, g *grid.Grid2D) geom.Pose2 {
	w := float64(g.W) * g.Resolution
	h := float64(g.H) * g.Resolution
	for i := 0; i < sampleAttempts; i++ {
		x := r.Uniform(0, w)
		y := r.Uniform(0, h)
		if !g.OccupiedWorld(x, y) {
			return geom.Pose2{X: x, Y: y, Theta: r.Uniform(-math.Pi, math.Pi)}
		}
	}
	panic("pfl: could not sample a free pose; map has no free space")
}

func samplePriorPose(r *rng.RNG, g *grid.Grid2D, prior geom.Pose2, spread float64) geom.Pose2 {
	for i := 0; i < sampleAttempts; i++ {
		p := geom.Pose2{
			X:     prior.X + r.Normal(0, spread),
			Y:     prior.Y + r.Normal(0, spread),
			Theta: geom.NormalizeAngle(prior.Theta + r.Normal(0, spread/2)),
		}
		if !g.OccupiedWorld(p.X, p.Y) {
			return p
		}
	}
	return prior
}

// commandMotion produces the robot's commanded odometry for one step:
// forward motion, turning when the path ahead is blocked.
func commandMotion(g *grid.Grid2D, pose geom.Pose2, stepLen float64) sensor.Odometry {
	ahead := g.Raycast(pose.X, pose.Y, pose.Theta, 3*stepLen)
	if ahead < 2*stepLen {
		// Blocked: rotate in place toward the more open side.
		left := g.Raycast(pose.X, pose.Y, pose.Theta+math.Pi/2, 5*stepLen)
		right := g.Raycast(pose.X, pose.Y, pose.Theta-math.Pi/2, 5*stepLen)
		turn := math.Pi / 6
		if right > left {
			turn = -turn
		}
		return sensor.Odometry{DeltaRot1: turn}
	}
	return sensor.Odometry{DeltaTrans: stepLen}
}

// lowVarianceResample draws len(dst) particles from src (with normalized
// weights ws) using the standard low-variance (systematic) resampler.
// Resampled particles restart weight accumulation from zero log-weight.
func lowVarianceResample(r *rng.RNG, src []particle, ws []float64, dst []particle) {
	m := len(dst)
	step := 1 / float64(m)
	u := r.Uniform(0, step)
	c := ws[0]
	i := 0
	for k := 0; k < m; k++ {
		for u > c && i < len(src)-1 {
			i++
			c += ws[i]
		}
		dst[k] = particle{pose: src[i].pose}
		u += step
	}
}
