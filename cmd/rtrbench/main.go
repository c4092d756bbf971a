// Command rtrbench runs one RTRBench-Go kernel with a fully flag-settable
// configuration, mirroring the original suite's per-kernel binaries
// (paper §VI, Fig. 20: "all of the configuration/execution parameters can
// be set/changed from the command line", with proper defaults).
//
// Usage:
//
//	rtrbench <kernel> [flags]
//	rtrbench suite [flags]
//	rtrbench stream [flags]
//	rtrbench verify [flags]
//	rtrbench list
//	rtrbench <kernel> --help
//
// Examples:
//
//	rtrbench rrt --samples 30000 --bias 0.1 --radius 0.9 --map mapc
//	rtrbench pfl --particles 5000 --steps 200 --region 3
//	rtrbench movtar --size 384 --epsilon 3
//	rtrbench suite --trials 5 --warmup 1 --parallel 8 --timeout 60s
//	rtrbench stream -kernel pfl -period 2ms -deadline 2ms -duration 1s
//
// Every kernel additionally accepts the shared observability flags:
//
//	--format text|json|csv|trace   report format (trace loads in Perfetto)
//	--out FILE                     write the report to a file
//	--deadline DUR                 per-step real-time deadline, e.g. 10ms
//	--timeout DUR                  abort the run after this wall-clock budget
//	--steplat                      step-latency histogram without a deadline
//	--cpuprofile FILE              Go CPU profile of the run
//	--memprofile FILE              heap profile at exit
//	--httpdebug ADDR               live net/http/pprof + /metrics server
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/arm"
	"repro/internal/core/bo"
	"repro/internal/core/cem"
	"repro/internal/core/dmp"
	"repro/internal/core/ekfslam"
	"repro/internal/core/movtar"
	"repro/internal/core/mpc"
	"repro/internal/core/pfl"
	"repro/internal/core/pp2d"
	"repro/internal/core/pp3d"
	"repro/internal/core/prm"
	"repro/internal/core/rrt"
	"repro/internal/core/srec"
	"repro/internal/core/sym"
	"repro/internal/grid"
	"repro/internal/profile"
	"repro/internal/search"
	"repro/rtrbench"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	kernel := os.Args[1]
	args := os.Args[2:]

	switch kernel {
	case "list":
		listKernels()
		return
	case "suite":
		if err := runSuite(args); err != nil {
			fmt.Fprintf(os.Stderr, "rtrbench suite: %v\n", err)
			os.Exit(1)
		}
		return
	case "stream":
		if err := runStream(args); err != nil {
			fmt.Fprintf(os.Stderr, "rtrbench stream: %v\n", err)
			os.Exit(1)
		}
		return
	case "verify":
		if err := runVerify(args); err != nil {
			fmt.Fprintf(os.Stderr, "rtrbench verify: %v\n", err)
			os.Exit(1)
		}
		return
	case "-h", "--help", "help":
		usage()
		return
	}

	runner, ok := runners[kernel]
	if !ok {
		fmt.Fprintf(os.Stderr, "rtrbench: unknown kernel %q\n\n", kernel)
		usage()
		os.Exit(2)
	}
	if err := runner(args); err != nil {
		fmt.Fprintf(os.Stderr, "rtrbench %s: %v\n", kernel, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Println("USAGE:\n  rtrbench <kernel> [OPTIONS]\n  rtrbench suite [OPTIONS]\n  rtrbench stream [OPTIONS]\n  rtrbench verify [OPTIONS]\n  rtrbench list\n\nKERNELS:")
	listKernels()
	fmt.Println("\nRun `rtrbench <kernel> --help` for the kernel's options.")
}

func listKernels() {
	for _, k := range rtrbench.Kernels() {
		fmt.Printf("  %02d.%-10s %-10s %s\n", k.Index, k.Name, k.Stage, k.Description)
	}
}

func loadMap2D(path string) (*grid.Grid2D, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return grid.ParseMovingAI(f)
}

func armWorkspace(name string) *arm.Workspace {
	if name == "mapf" {
		return arm.MapF()
	}
	return arm.MapC()
}

type runner func(args []string) error

var runners = map[string]runner{
	"pfl": func(args []string) error {
		h := newHarness("pfl")
		cfg := pfl.DefaultConfig()
		h.fs.IntVar(&cfg.Particles, "particles", cfg.Particles, "particle population size")
		h.fs.IntVar(&cfg.Steps, "steps", cfg.Steps, "motion/measurement cycles")
		h.fs.IntVar(&cfg.Region, "region", cfg.Region, "building region to start in (0-4)")
		h.fs.IntVar(&cfg.Laser.NumBeams, "beams", cfg.Laser.NumBeams, "laser beams per scan")
		h.fs.Float64Var(&cfg.Laser.MaxRange, "range", cfg.Laser.MaxRange, "laser max range, m")
		h.fs.Float64Var(&cfg.StepLen, "steplen", cfg.StepLen, "commanded step length, m")
		h.fs.IntVar(&cfg.InitFactor, "initfactor", cfg.InitFactor, "initial population over-provisioning")
		h.fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "0 = serial; >= 1 selects the parallel motion+weigh algorithm (its own digest) on up to this many goroutines")
		h.fs.BoolVar(&cfg.LikelihoodField, "likelihoodfield", cfg.LikelihoodField, "use the likelihood-field sensor model (no ray casting)")
		h.fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
		mapPath := h.fs.String("map", "", "Moving AI map file (default: synthetic building)")
		if err := h.parse(args); err != nil {
			return err
		}
		defer h.close()
		if *mapPath != "" {
			g, err := loadMap2D(*mapPath)
			if err != nil {
				return err
			}
			g.Resolution = 0.25
			cfg.Map = g
		}
		p := h.newProfile()
		res, err := pfl.Run(h.ctx(), cfg, p)
		if err != nil {
			return err
		}
		return h.report(p, map[string]interface{}{
			"position_error_m": res.PositionError,
			"heading_error":    res.HeadingError,
			"raycasts":         res.Raycasts,
			"cells_visited":    res.CellsVisited,
		})
	},

	"ekfslam": func(args []string) error {
		h := newHarness("ekfslam")
		cfg := ekfslam.DefaultConfig()
		h.fs.IntVar(&cfg.Steps, "steps", cfg.Steps, "simulation steps")
		h.fs.Float64Var(&cfg.Dt, "dt", cfg.Dt, "step period, s")
		h.fs.Float64Var(&cfg.V, "v", cfg.V, "forward velocity, m/s")
		h.fs.Float64Var(&cfg.Omega, "omega", cfg.Omega, "angular velocity, rad/s")
		h.fs.Float64Var(&cfg.Sensor.SigmaRange, "sigr", cfg.Sensor.SigmaRange, "range noise std")
		h.fs.Float64Var(&cfg.Sensor.SigmaBear, "sigb", cfg.Sensor.SigmaBear, "bearing noise std")
		h.fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
		if err := h.parse(args); err != nil {
			return err
		}
		defer h.close()
		p := h.newProfile()
		res, err := ekfslam.Run(h.ctx(), cfg, p)
		if err != nil {
			return err
		}
		return h.report(p, map[string]interface{}{
			"pose_error_m":     res.PoseError,
			"landmark_error_m": res.MeanLandmarkError,
			"landmarks_seen":   res.LandmarksSeen,
			"updates":          res.Updates,
		})
	},

	"srec": func(args []string) error {
		h := newHarness("srec")
		cfg := srec.DefaultConfig()
		h.fs.IntVar(&cfg.Cols, "cols", cfg.Cols, "depth image columns")
		h.fs.IntVar(&cfg.Rows, "rows", cfg.Rows, "depth image rows")
		h.fs.IntVar(&cfg.Iterations, "iters", cfg.Iterations, "max ICP iterations")
		h.fs.Float64Var(&cfg.SensorNoise, "noise", cfg.SensorNoise, "depth noise std, m")
		h.fs.Float64Var(&cfg.VoxelSize, "voxel", cfg.VoxelSize, "downsample voxel size (0 = off)")
		method := h.fs.String("method", "point", "ICP metric: point | plane")
		h.fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
		if err := h.parse(args); err != nil {
			return err
		}
		defer h.close()
		cfg.Method = srec.Method(*method)
		p := h.newProfile()
		res, err := srec.Run(h.ctx(), cfg, p)
		if err != nil {
			return err
		}
		return h.report(p, map[string]interface{}{
			"rmse_m":        res.RMSE,
			"rot_error":     res.RotationError,
			"trans_error_m": res.TranslationError,
			"iterations":    res.Iterations,
			"points":        res.SourcePoints,
		})
	},

	"pp2d": func(args []string) error {
		h := newHarness("pp2d")
		cfg := pp2d.DefaultConfig()
		size := h.fs.Int("size", 512, "synthetic city edge, cells")
		h.fs.Float64Var(&cfg.CarLength, "length", cfg.CarLength, "car length, m")
		h.fs.Float64Var(&cfg.CarWidth, "width", cfg.CarWidth, "car width, m")
		h.fs.Float64Var(&cfg.Weight, "weight", cfg.Weight, "heuristic inflation")
		h.fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
		mapPath := h.fs.String("map", "", "Moving AI map file (default: synthetic city)")
		scenPath := h.fs.String("scen", "", "Moving AI .scen file: batch-run its problems (requires --map)")
		if err := h.parse(args); err != nil {
			return err
		}
		defer h.close()
		if *mapPath != "" {
			g, err := loadMap2D(*mapPath)
			if err != nil {
				return err
			}
			g.Resolution = 0.5
			cfg.Map = g
		} else {
			cfg.Map = pp2d.DefaultMap(*size, cfg.Seed)
		}
		if *scenPath != "" {
			return runScenBatch(cfg.Map, *scenPath)
		}
		p := h.newProfile()
		res, err := pp2d.Run(h.ctx(), cfg, p)
		if err != nil {
			return err
		}
		return h.report(p, map[string]interface{}{
			"found":            res.Found,
			"path_length_m":    res.PathLength,
			"expanded":         res.Expanded,
			"collision_checks": res.Checks,
			"cells_touched":    res.Cells,
		})
	},

	"pp3d": func(args []string) error {
		h := newHarness("pp3d")
		cfg := pp3d.DefaultConfig()
		w := h.fs.Int("w", 160, "campus width, voxels")
		hgt := h.fs.Int("h", 160, "campus depth, voxels")
		d := h.fs.Int("d", 24, "campus height, voxels")
		h.fs.IntVar(&cfg.Radius, "radius", cfg.Radius, "UAV radius, voxels (0 = point)")
		h.fs.Float64Var(&cfg.Weight, "weight", cfg.Weight, "heuristic inflation")
		h.fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
		if err := h.parse(args); err != nil {
			return err
		}
		defer h.close()
		cfg.Map = pp3d.DefaultMap(*w, *hgt, *d, cfg.Seed)
		p := h.newProfile()
		res, err := pp3d.Run(h.ctx(), cfg, p)
		if err != nil {
			return err
		}
		return h.report(p, map[string]interface{}{
			"found":            res.Found,
			"path_length":      res.PathLength,
			"expanded":         res.Expanded,
			"collision_checks": res.Checks,
		})
	},

	"movtar": func(args []string) error {
		h := newHarness("movtar")
		cfg := movtar.DefaultConfig()
		h.fs.IntVar(&cfg.Size, "size", cfg.Size, "terrain edge, cells")
		h.fs.Float64Var(&cfg.Epsilon, "epsilon", cfg.Epsilon, "WA* inflation")
		h.fs.IntVar(&cfg.TargetPeriod, "period", cfg.TargetPeriod, "robot steps per target step")
		h.fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
		if err := h.parse(args); err != nil {
			return err
		}
		defer h.close()
		p := h.newProfile()
		res, err := movtar.Run(h.ctx(), cfg, p)
		if err != nil {
			return err
		}
		return h.report(p, map[string]interface{}{
			"found":      res.Found,
			"catch_time": res.CatchTime,
			"path_cost":  res.PathCost,
			"expanded":   res.Expanded,
		})
	},

	"prm": func(args []string) error {
		h := newHarness("prm")
		cfg := prm.DefaultConfig()
		h.fs.IntVar(&cfg.Samples, "samples", cfg.Samples, "roadmap samples")
		h.fs.IntVar(&cfg.K, "k", cfg.K, "neighbors to connect")
		h.fs.BoolVar(&cfg.Lazy, "lazy", cfg.Lazy, "Lazy PRM: defer edge collision checks to query time")
		h.fs.Float64Var(&cfg.EdgeStep, "edgestep", cfg.EdgeStep, "edge collision step, rad")
		h.fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
		mapName := h.fs.String("map", "mapc", "workspace: mapc | mapf")
		if err := h.parse(args); err != nil {
			return err
		}
		defer h.close()
		cfg.Workspace = armWorkspace(*mapName)
		p := h.newProfile()
		res, err := prm.Run(h.ctx(), cfg, p)
		if err != nil {
			return err
		}
		return h.report(p, map[string]interface{}{
			"found":         res.Found,
			"path_cost_rad": res.PathCost,
			"roadmap_nodes": res.RoadmapNodes,
			"roadmap_edges": res.RoadmapEdges,
			"l2_norms":      res.L2Norms,
		})
	},

	"rrt":     rrtRunner("rrt", rrt.Run),
	"rrtstar": rrtRunner("rrtstar", rrt.RunStar),
	"rrtpp":   rrtRunner("rrtpp", rrt.RunPP),

	"sym-blkw": func(args []string) error {
		h := newHarness("sym-blkw")
		cfg := sym.DefaultConfig(sym.BlocksWorld)
		h.fs.IntVar(&cfg.Blocks, "blocks", cfg.Blocks, "tower height")
		h.fs.IntVar(&cfg.MaxExpansions, "maxexp", cfg.MaxExpansions, "expansion cap (0 = off)")
		h.fs.BoolVar(&cfg.Additive, "hadd", cfg.Additive, "use the additive (h_add) heuristic")
		if err := h.parse(args); err != nil {
			return err
		}
		defer h.close()
		return runSym(h, cfg)
	},

	"sym-fext": func(args []string) error {
		h := newHarness("sym-fext")
		cfg := sym.DefaultConfig(sym.Firefighter)
		h.fs.IntVar(&cfg.Locations, "locations", cfg.Locations, "number of locations")
		h.fs.IntVar(&cfg.Pours, "pours", cfg.Pours, "pours to extinguish the fire")
		h.fs.IntVar(&cfg.MaxExpansions, "maxexp", cfg.MaxExpansions, "expansion cap (0 = off)")
		h.fs.BoolVar(&cfg.Additive, "hadd", cfg.Additive, "use the additive (h_add) heuristic")
		if err := h.parse(args); err != nil {
			return err
		}
		defer h.close()
		return runSym(h, cfg)
	},

	"dmp": func(args []string) error {
		h := newHarness("dmp")
		cfg := dmp.DefaultConfig()
		h.fs.IntVar(&cfg.Basis, "basis", cfg.Basis, "Gaussian basis functions")
		h.fs.IntVar(&cfg.Steps, "steps", cfg.Steps, "rollout steps")
		h.fs.Float64Var(&cfg.Tau, "tau", cfg.Tau, "temporal scaling")
		h.fs.Float64Var(&cfg.K, "k", cfg.K, "spring gain")
		if err := h.parse(args); err != nil {
			return err
		}
		defer h.close()
		p := h.newProfile()
		res, err := dmp.Run(h.ctx(), cfg, p)
		if err != nil {
			return err
		}
		return h.report(p, map[string]interface{}{
			"track_rmse_m":     res.TrackRMSE,
			"endpoint_error_m": res.EndpointError,
			"serial_steps":     res.SerialSteps,
		})
	},

	"mpc": func(args []string) error {
		h := newHarness("mpc")
		cfg := mpc.DefaultConfig()
		h.fs.IntVar(&cfg.Horizon, "horizon", cfg.Horizon, "lookahead steps")
		h.fs.IntVar(&cfg.Steps, "steps", cfg.Steps, "closed-loop steps")
		h.fs.IntVar(&cfg.Iterations, "iters", cfg.Iterations, "solver iterations per step")
		h.fs.Float64Var(&cfg.VMax, "vmax", cfg.VMax, "velocity cap, m/s")
		h.fs.Float64Var(&cfg.AMax, "amax", cfg.AMax, "acceleration cap, m/s²")
		if err := h.parse(args); err != nil {
			return err
		}
		defer h.close()
		p := h.newProfile()
		res, err := mpc.Run(h.ctx(), cfg, p)
		if err != nil {
			return err
		}
		return h.report(p, map[string]interface{}{
			"track_rmse_m":    res.TrackRMSE,
			"max_deviation_m": res.MaxDeviation,
			"vel_violations":  res.VelViolations,
			"rollouts":        res.Rollouts,
		})
	},

	"cem": func(args []string) error {
		h := newHarness("cem")
		cfg := cem.DefaultConfig()
		h.fs.IntVar(&cfg.Iterations, "iters", cfg.Iterations, "learning iterations")
		h.fs.IntVar(&cfg.SamplesPerIter, "samples", cfg.SamplesPerIter, "samples per iteration")
		h.fs.IntVar(&cfg.Elite, "elite", cfg.Elite, "elite set size")
		h.fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
		if err := h.parse(args); err != nil {
			return err
		}
		defer h.close()
		p := h.newProfile()
		res, err := cem.Run(h.ctx(), cfg, p)
		if err != nil {
			return err
		}
		return h.report(p, map[string]interface{}{
			"best_reward": res.BestReward,
			"evals":       res.Evals,
		})
	},

	"bo": func(args []string) error {
		h := newHarness("bo")
		cfg := bo.DefaultConfig()
		h.fs.IntVar(&cfg.Iterations, "iters", cfg.Iterations, "BO iterations")
		h.fs.IntVar(&cfg.Candidates, "candidates", cfg.Candidates, "acquisition pool size")
		h.fs.Float64Var(&cfg.Beta, "beta", cfg.Beta, "UCB exploration weight")
		h.fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
		if err := h.parse(args); err != nil {
			return err
		}
		defer h.close()
		p := h.newProfile()
		res, err := bo.Run(h.ctx(), cfg, p)
		if err != nil {
			return err
		}
		return h.report(p, map[string]interface{}{
			"best_reward": res.BestReward,
			"evals":       res.Evals,
			"gp_fits":     res.GPFits,
		})
	},
}

// runScenBatch runs every problem of a Moving AI scenario file with the
// suite's point A* and validates the measured optimal costs against the
// published ones — the standard way to certify a grid planner against the
// Moving AI benchmark ecosystem.
func runScenBatch(g *grid.Grid2D, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	scens, err := grid.ParseScen(f)
	if err != nil {
		return err
	}
	sp := &search.Grid2DSpace{G: g}
	solved, matched := 0, 0
	start := time.Now()
	for i, s := range scens {
		sx, sy := s.StartCell(g.H)
		gx, gy := s.GoalCell(g.H)
		res, err := search.Solve(search.Problem{
			Space: sp,
			Start: sp.ID(sx, sy),
			Goal:  sp.ID(gx, gy),
			H:     sp.OctileHeuristic(gx, gy),
		})
		if err != nil {
			fmt.Printf("  scen %d: no path (published optimum %.4f)\n", i, s.OptimalLength)
			continue
		}
		solved++
		if diff := res.Cost - s.OptimalLength; diff < 1e-4 && diff > -1e-4 {
			matched++
		} else {
			fmt.Printf("  scen %d: cost %.6f != published %.6f\n", i, res.Cost, s.OptimalLength)
		}
	}
	fmt.Printf("scen batch: %d problems, %d solved, %d matched published optima, %v total\n",
		len(scens), solved, matched, time.Since(start).Round(time.Millisecond))
	return nil
}

func rrtRunner(name string, run func(context.Context, rrt.Config, *profile.Profile) (rrt.Result, error)) runner {
	return func(args []string) error {
		h := newHarness(name)
		cfg := rrt.DefaultConfig()
		// Flag names follow the original kernel's CLI (paper Fig. 20).
		h.fs.Float64Var(&cfg.Bias, "bias", cfg.Bias, "random number generation bias (goal bias)")
		h.fs.Float64Var(&cfg.Epsilon, "epsilon", cfg.Epsilon, "epsilon (minimum movement)")
		h.fs.Float64Var(&cfg.Radius, "radius", cfg.Radius, "neighborhood distance")
		h.fs.IntVar(&cfg.MaxSamples, "samples", cfg.MaxSamples, "maximum samples")
		h.fs.IntVar(&cfg.ShortcutIters, "shortcuts", cfg.ShortcutIters, "post-processing shortcut iterations")
		h.fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
		mapName := h.fs.String("map", "mapc", "workspace: mapc | mapf")
		if err := h.parse(args); err != nil {
			return err
		}
		defer h.close()
		cfg.Workspace = armWorkspace(*mapName)
		p := h.newProfile()
		res, err := run(h.ctx(), cfg, p)
		if err != nil {
			return err
		}
		return h.report(p, map[string]interface{}{
			"found":         res.Found,
			"path_cost_rad": res.PathCost,
			"samples":       res.Samples,
			"tree_nodes":    res.TreeNodes,
			"rewires":       res.Rewires,
			"shortcuts":     res.Shortcuts,
		})
	}
}

func runSym(h *harness, cfg sym.Config) error {
	p := h.newProfile()
	res, err := sym.Run(h.ctx(), cfg, p)
	if err != nil {
		return err
	}
	if err := h.report(p, map[string]interface{}{
		"found":          res.Found,
		"plan_length":    res.PlanLength,
		"expanded":       res.Stats.Expanded,
		"avg_branching":  res.Stats.AvgBranching(),
		"string_bytes":   res.Stats.StringBytes,
		"ground_actions": res.GroundActions,
	}); err != nil {
		return err
	}
	if h.format == "text" && h.out == "" {
		for i, step := range res.Plan {
			fmt.Printf("  %2d. %s\n", i+1, step)
		}
	}
	return nil
}
