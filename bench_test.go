// Benchmark harness regenerating the paper's evaluation (see DESIGN.md §3
// for the experiment index). One benchmark (or benchmark family) exists per
// table and figure:
//
//	BenchmarkTable1_*       Table I — per-kernel execution; the accompanying
//	                        phase fractions print via -v through b.ReportMetric.
//	BenchmarkFig21/*        Fig. 21 — optimized vs P-Rob/C-Rob-style A* across
//	                        map scale factors.
//	BenchmarkMovtarSize/*   §V.6 — heuristic share vs environment size.
//	BenchmarkRRTFamily/*    §V.8-10 — RRT vs RRT* vs RRT-PP time and cost.
//	BenchmarkSymDomains/*   §V.11-12 — the two symbolic planning domains.
//	BenchmarkCEMvsBO/*      §V.15-16 — learning-kernel compute comparison.
//	BenchmarkAblation*      design-choice ablations called out in DESIGN.md.
//
// Run everything:  go test -bench=. -benchmem .
package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/arm"
	"repro/internal/core/ekfslam"
	"repro/internal/core/movtar"
	"repro/internal/core/pfl"
	"repro/internal/core/pp2d"
	"repro/internal/core/prm"
	"repro/internal/core/rrt"
	"repro/internal/core/srec"
	"repro/internal/core/sym"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/maps"
	"repro/internal/naive"
	"repro/internal/pq"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sensor"
	"repro/internal/symbolic"
	"repro/rtrbench"
)

// --- Table I: one benchmark per kernel. The dominant-phase fraction is
// attached as a custom metric so `go test -bench Table1` reproduces the
// characterization columns, not just wall time.

func benchKernel(b *testing.B, name string) {
	b.Helper()
	var lastDominant float64
	for i := 0; i < b.N; i++ {
		res, err := rtrbench.Run(name, rtrbench.Options{Size: rtrbench.SizeSmall, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		lastDominant = res.Fraction(res.Dominant())
	}
	b.ReportMetric(100*lastDominant, "dominant-%")
}

func BenchmarkTable1_01_pfl(b *testing.B)     { benchKernel(b, "pfl") }
func BenchmarkTable1_02_ekfslam(b *testing.B) { benchKernel(b, "ekfslam") }
func BenchmarkTable1_03_srec(b *testing.B)    { benchKernel(b, "srec") }
func BenchmarkTable1_04_pp2d(b *testing.B)    { benchKernel(b, "pp2d") }
func BenchmarkTable1_05_pp3d(b *testing.B)    { benchKernel(b, "pp3d") }
func BenchmarkTable1_06_movtar(b *testing.B)  { benchKernel(b, "movtar") }
func BenchmarkTable1_07_prm(b *testing.B)     { benchKernel(b, "prm") }
func BenchmarkTable1_08_rrt(b *testing.B)     { benchKernel(b, "rrt") }
func BenchmarkTable1_09_rrtstar(b *testing.B) { benchKernel(b, "rrtstar") }
func BenchmarkTable1_10_rrtpp(b *testing.B)   { benchKernel(b, "rrtpp") }
func BenchmarkTable1_11_symblkw(b *testing.B) { benchKernel(b, "sym-blkw") }
func BenchmarkTable1_12_symfext(b *testing.B) { benchKernel(b, "sym-fext") }
func BenchmarkTable1_13_dmp(b *testing.B)     { benchKernel(b, "dmp") }
func BenchmarkTable1_14_mpc(b *testing.B)     { benchKernel(b, "mpc") }
func BenchmarkTable1_15_cem(b *testing.B)     { benchKernel(b, "cem") }
func BenchmarkTable1_16_bo(b *testing.B)      { benchKernel(b, "bo") }

// --- Fig. 21: the library comparison. Three implementations of the same
// point-robot A* on the PythonRobotics demo map, scaled.

func BenchmarkFig21(b *testing.B) {
	for _, scale := range []int{1, 2, 4} {
		g := maps.PRobMap().Scale(scale)
		sx, sy, gx, gy := maps.PRobStartGoal(scale)

		b.Run(fmt.Sprintf("rtrbench/x%d", scale), func(b *testing.B) {
			cfg := pp2d.DefaultConfig()
			cfg.Map = g
			cfg.CarLength = g.Resolution * 0.5
			cfg.CarWidth = g.Resolution * 0.5
			cfg.StartX, cfg.StartY, cfg.GoalX, cfg.GoalY = sx, sy, gx, gy
			for i := 0; i < b.N; i++ {
				if _, err := pp2d.Run(context.Background(), cfg, profile.Disabled()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("prob-style/x%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := naive.Interp(g, sx, sy, gx, gy); !res.Found {
					b.Fatal("no path")
				}
			}
		})
		b.Run(fmt.Sprintf("crob-style/x%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := naive.Copy(g, sx, sy, gx, gy); !res.Found {
					b.Fatal("no path")
				}
			}
		})
	}
}

// --- §V.6: movtar across environment sizes; the heuristic share is
// attached as a metric so the crossover direction is visible in the output.

func BenchmarkMovtarSize(b *testing.B) {
	for _, size := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			var heurPct float64
			for i := 0; i < b.N; i++ {
				cfg := movtar.DefaultConfig()
				cfg.Size = size
				p := profile.New()
				if _, err := movtar.Run(context.Background(), cfg, p); err != nil {
					b.Fatal(err)
				}
				heurPct = 100 * p.Snapshot().Fraction("heuristic")
			}
			b.ReportMetric(heurPct, "heuristic-%")
		})
	}
}

// --- §V.8-10: the RRT family on Map-C. Path cost is attached as a metric;
// the per-op times reproduce the paper's slowdown factor.

func BenchmarkRRTFamily(b *testing.B) {
	variants := []struct {
		name string
		run  func(context.Context, rrt.Config, *profile.Profile) (rrt.Result, error)
	}{
		{"rrt", rrt.Run},
		{"rrtpp", rrt.RunPP},
		{"rrtstar", rrt.RunStar},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var cost float64
			n := 0
			for i := 0; i < b.N; i++ {
				cfg := rrt.DefaultConfig()
				cfg.MaxSamples = 10000
				cfg.Seed = int64(i%5) + 1
				res, err := v.run(context.Background(), cfg, profile.Disabled())
				if err != nil {
					continue // some seeds exhaust the budget; skip
				}
				cost += res.PathCost
				n++
			}
			if n > 0 {
				b.ReportMetric(cost/float64(n), "pathcost")
			}
		})
	}
}

// --- §V.11-12: the symbolic planner on both domains, with the branching
// factor (the paper's parallelism measure) as a metric.

func BenchmarkSymDomains(b *testing.B) {
	for _, domain := range []sym.Domain{sym.BlocksWorld, sym.Firefighter} {
		b.Run(string(domain), func(b *testing.B) {
			var branching float64
			for i := 0; i < b.N; i++ {
				res, err := sym.Run(context.Background(), sym.DefaultConfig(domain), profile.Disabled())
				if err != nil {
					b.Fatal(err)
				}
				branching = res.Stats.AvgBranching()
			}
			b.ReportMetric(branching, "branching")
		})
	}
}

// --- §V.15-16: cem vs bo learning compute (Figs. 18-19 come from the
// reward series; here the per-op time ratio reproduces the "computationally
// more intensive" comparison).

func BenchmarkCEMvsBO(b *testing.B) {
	b.Run("cem", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rtrbench.Run("cem", rtrbench.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rtrbench.Run("bo", rtrbench.Options{Size: rtrbench.SizeSmall, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations (DESIGN.md §4.6): the data-structure choices the paper's
// bottleneck analysis rests on.

// BenchmarkAblationNN compares the k-d tree against the brute-force scan
// for the nearest-neighbor workload of the sampling planners (5-D configs).
func BenchmarkAblationNN(b *testing.B) {
	r := rng.New(1)
	const n = 5000
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, 5)
		for d := range p {
			p[d] = r.Uniform(-3, 3)
		}
		points[i] = p
	}
	queries := make([][]float64, 256)
	for i := range queries {
		p := make([]float64, 5)
		for d := range p {
			p[d] = r.Uniform(-3, 3)
		}
		queries[i] = p
	}

	b.Run("kdtree", func(b *testing.B) {
		t := kdtree.New(5, nil)
		for i, p := range points {
			t.Insert(p, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Nearest(queries[i%len(queries)])
		}
	})
	b.Run("linear", func(b *testing.B) {
		l := kdtree.NewLinear(5, nil)
		for i, p := range points {
			l.Insert(p, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Nearest(queries[i%len(queries)])
		}
	})
}

// BenchmarkAblationHeap compares the indexed heap's decrease-key against
// the push-duplicates strategy on a grid Dijkstra workload.
func BenchmarkAblationHeap(b *testing.B) {
	g := maps.CityMap(128, 128, 1)
	sp := &search.Grid2DSpace{G: g}
	sx, sy := maps.FreeCellNear(g, 8, 8)
	gx, gy := maps.FreeCellNear(g, 120, 120)

	b.Run("indexed-decrease-key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := search.Solve(search.Problem{
				Space: sp, Start: sp.ID(sx, sy), Goal: sp.ID(gx, gy),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("push-duplicates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !dijkstraPushDup(g, sx, sy, gx, gy) {
				b.Fatal("no path")
			}
		}
	})
}

// dijkstraPushDup is the ablation baseline: a Dijkstra that re-pushes nodes
// instead of decreasing keys.
func dijkstraPushDup(g *grid.Grid2D, sx, sy, gx, gy int) bool {
	w := g.W
	dist := make([]float64, g.W*g.H)
	for i := range dist {
		dist[i] = 1e18
	}
	h := pq.NewHeap[int](1024)
	start, goal := sy*w+sx, gy*w+gx
	dist[start] = 0
	h.Push(start, 0)
	sp := &search.Grid2DSpace{G: g}
	for h.Len() > 0 {
		id, d := h.Pop()
		if d > dist[id] {
			continue
		}
		if id == goal {
			return true
		}
		sp.Neighbors(id, func(to int, cost float64) {
			if nd := d + cost; nd < dist[to] {
				dist[to] = nd
				h.Push(to, nd)
			}
		})
	}
	return false
}

// BenchmarkAblationRaycastBeams measures how pfl's ray-casting cost scales
// with beam count — the knob the paper's per-kernel CLI exposes.
func BenchmarkAblationRaycastBeams(b *testing.B) {
	g := maps.IndoorMap(192, 96, 1)
	g.Resolution = 0.25
	for _, beams := range []int{9, 37, 73} {
		b.Run(fmt.Sprintf("beams%d", beams), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for bb := 0; bb < beams; bb++ {
					theta := -2.35 + 4.7*float64(bb)/float64(beams-1)
					g.Raycast(24, 12, theta, 25)
				}
			}
		})
	}
}

// BenchmarkAblationFootprint measures footprint collision checking against
// the inflation shortcut (inflate once, then point checks) — the trade the
// paper's collision-acceleration citations attack in hardware.
func BenchmarkAblationFootprint(b *testing.B) {
	g := pp2d.DefaultMap(256, 1)
	b.Run("footprint-per-check", func(b *testing.B) {
		cfg := pp2d.DefaultConfig()
		cfg.Map = g
		for i := 0; i < b.N; i++ {
			if _, err := pp2d.Run(context.Background(), cfg, profile.Disabled()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inflate-then-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Inflate by the car's half-width (1.8 m / 2 at 0.5 m cells).
			// This under-approximates the true footprint (the length is
			// unaccounted for), which is exactly the fidelity loss this
			// ablation trades for speed.
			inflated := g.Inflate(2)
			sp := &search.Grid2DSpace{G: inflated}
			sx, sy := maps.FreeCellNear(inflated, 16, 16)
			gx, gy := maps.FreeCellNear(inflated, 240, 240)
			_, err := search.Solve(search.Problem{
				Space: sp, Start: sp.ID(sx, sy), Goal: sp.ID(gx, gy),
				H: sp.OctileHeuristic(gx, gy),
			})
			if err != nil {
				b.Skip("inflation disconnected this map")
			}
		}
	})
}

// BenchmarkAblationArmDoF measures how RRT cost scales with the arm's
// degrees of freedom (the dimensionality argument of §V.7).
func BenchmarkAblationArmDoF(b *testing.B) {
	for _, dof := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("dof%d", dof), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := rrt.DefaultConfig()
				cfg.Arm = armWithDoF(dof)
				cfg.Workspace = arm.MapC()
				cfg.Start = arm.DefaultStart(dof)
				cfg.Goal = arm.DefaultGoal(dof)
				cfg.Seed = int64(i%3) + 1
				rrt.Run(context.Background(), cfg, profile.Disabled()) //nolint:errcheck // budget exhaustion is data here
			}
		})
	}
}

// BenchmarkAblationEKFLandmarks measures how the EKF's matrix-dominated
// update scales with landmark count — the state dimension grows as 3+2N,
// making the covariance products O(N²)-O(N³) (the paper's footnote: matrix
// sizes are "proportionate to the number of different measurement types").
func BenchmarkAblationEKFLandmarks(b *testing.B) {
	for _, nl := range []int{6, 12, 24} {
		b.Run(fmt.Sprintf("landmarks%d", nl), func(b *testing.B) {
			lms := make([]sensor.Landmark, nl)
			r := rng.New(1)
			for i := range lms {
				lms[i] = sensor.Landmark{ID: i, P: geom.Vec2{X: r.Uniform(-12, 14), Y: r.Uniform(-6, 18)}}
			}
			cfg := ekfslam.DefaultConfig()
			cfg.Landmarks = lms
			cfg.Steps = 100
			for i := 0; i < b.N; i++ {
				if _, err := ekfslam.Run(context.Background(), cfg, profile.Disabled()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPFLWorkers measures the ray-casting fan-out speedup —
// the "fine-grained parallelism" the paper calls a perfect fit for
// hardware acceleration.
func BenchmarkAblationPFLWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			cfg := pfl.DefaultConfig()
			cfg.Particles = 1000
			cfg.Steps = 10
			cfg.InitFactor = 1
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := pfl.Run(context.Background(), cfg, profile.Disabled()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSensorModel compares the beam (ray-casting) sensor model
// against the likelihood-field model that removes the map traversal — the
// software equivalent of the ray-casting accelerator the paper cites.
func BenchmarkAblationSensorModel(b *testing.B) {
	for _, lf := range []bool{false, true} {
		name := "beam-raycast"
		if lf {
			name = "likelihood-field"
		}
		b.Run(name, func(b *testing.B) {
			cfg := pfl.DefaultConfig()
			cfg.Particles = 500
			cfg.Steps = 10
			cfg.InitFactor = 1
			cfg.LikelihoodField = lf
			for i := 0; i < b.N; i++ {
				if _, err := pfl.Run(context.Background(), cfg, profile.Disabled()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLazyPRM compares eager and lazy roadmap construction
// (Lazy PRM defers edge collision checks to query time).
func BenchmarkAblationLazyPRM(b *testing.B) {
	for _, lazy := range []bool{false, true} {
		name := "eager"
		if lazy {
			name = "lazy"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := prm.DefaultConfig()
				cfg.Samples = 1000
				cfg.Lazy = lazy
				cfg.Seed = int64(i%3) + 1
				if _, err := prm.Run(context.Background(), cfg, profile.Disabled()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSymHeuristic compares the goal-count and additive
// heuristics on random blocks-world instances.
func BenchmarkAblationSymHeuristic(b *testing.B) {
	probs := make([]*symbolic.Problem, 5)
	for i := range probs {
		probs[i] = symbolic.BlocksWorldRandom(8, int64(i)+1)
	}
	for _, h := range []struct {
		name string
		kind symbolic.HeuristicKind
	}{{"goalcount", symbolic.GoalCount}, {"hadd", symbolic.Additive}} {
		b.Run(h.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if symbolic.SolveWith(probs[i%len(probs)], symbolic.SolveOptions{Heuristic: h.kind}) == nil {
					b.Fatal("no plan")
				}
			}
		})
	}
}

// BenchmarkAblationICPMethod compares point-to-point and point-to-plane
// ICP on the same scans.
func BenchmarkAblationICPMethod(b *testing.B) {
	for _, m := range []srec.Method{srec.PointToPoint, srec.PointToPlane} {
		b.Run(string(m), func(b *testing.B) {
			cfg := srec.DefaultConfig()
			cfg.Cols, cfg.Rows = 60, 45
			cfg.Method = m
			for i := 0; i < b.N; i++ {
				if _, err := srec.Run(context.Background(), cfg, profile.Disabled()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRRTConnect compares plain RRT against the bidirectional
// RRT-Connect extension.
func BenchmarkAblationRRTConnect(b *testing.B) {
	for _, v := range []struct {
		name string
		run  func(context.Context, rrt.Config, *profile.Profile) (rrt.Result, error)
	}{{"rrt", rrt.Run}, {"rrtconnect", rrt.RunConnect}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := rrt.DefaultConfig()
				cfg.Seed = int64(i%5) + 1
				v.run(context.Background(), cfg, profile.Disabled()) //nolint:errcheck // failures are data
			}
		})
	}
}

func armWithDoF(dof int) *arm.Arm {
	links := make([]float64, dof)
	for i := range links {
		links[i] = 0.26 / float64(dof)
	}
	return arm.New(geom.Vec2{}, links...)
}

// BenchmarkProfileDisabledOverhead measures the disabled-Profile fast path
// — the paper's "virtually zero effect on performance" hook contract. The
// benchmark body exercises every hot-path entry point (ROI, nested phases,
// counters, steps) and asserts the whole sequence stays allocation-free;
// a regression here would tax every uninstrumented kernel run.
func BenchmarkProfileDisabledOverhead(b *testing.B) {
	p := profile.Disabled()
	fn := func() {} // pre-built so Span's closure isn't counted
	if allocs := testing.AllocsPerRun(100, func() {
		p.BeginROI()
		p.Begin("outer")
		p.Begin("inner")
		p.Count("ops", 1)
		p.StepDone()
		p.End()
		p.End()
		p.Span("span", fn)
		p.EndROI()
	}); allocs != 0 {
		b.Fatalf("disabled profile allocates: %v allocs/op", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BeginROI()
		p.Begin("outer")
		p.Begin("inner")
		p.Count("ops", 1)
		p.StepDone()
		p.End()
		p.End()
		p.Span("span", fn)
		p.EndROI()
	}
}

// BenchmarkWorkers measures the intra-kernel parallelism curve of the
// kernels honoring Options.Workers (pfl and prm; the others ignore it, so
// their rows would only time the serial kernel again). w0 is each kernel's
// serial algorithm; w1/w2/w4/w8 run the deterministic parallel algorithm
// with an increasing goroutine budget (the results are identical across
// w1-w8 by contract, so the per-op times isolate pure scheduling effect).
// On a single-core host the w1-w8 curve is flat and the numbers record the
// mechanism's overhead rather than a speedup.
func BenchmarkWorkers(b *testing.B) {
	for _, kernel := range []string{"pfl", "prm"} {
		for _, w := range []int{0, 1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/w%d", kernel, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := rtrbench.Run(kernel, rtrbench.Options{
						Size: rtrbench.SizeSmall, Seed: 1, Workers: w,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSuite runs the full 16-kernel SizeSmall sweep through the
// parallel execution engine, sequentially and on all cores. On a >= 4-core
// machine the parallel run should come in at well under 1/1.5 of the
// sequential wall-clock (compare the per-op times of the two sub-benches).
func BenchmarkSuite(b *testing.B) {
	for _, par := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := rtrbench.Suite(context.Background(), rtrbench.SuiteOptions{
					Options:  rtrbench.Options{Size: rtrbench.SizeSmall, Seed: 1},
					Parallel: par,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := res.FirstError(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
