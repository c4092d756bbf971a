// Command report runs the RTRBench-Go suite and prints the paper's
// characterization tables:
//
//	report -table1             Table I: per-kernel dominant phase breakdown
//	report -kernel <name>      one kernel's full phase/counter report
//	report -rrtcompare         §V.9-10: RRT vs RRT* vs RRT-PP time & cost
//	report -movtarsweep        §V.6: heuristic share vs environment size
//	report -fig21              Fig. 21: optimized vs naive A* across scales
//	report -symcompare         §V.12: sym-fext vs sym-blkw branching
//
// Add -size=default for paper-scale inputs (slower); the default -size=small
// keeps every experiment sub-second for smoke runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core/movtar"
	"repro/internal/core/pp2d"
	"repro/internal/core/rrt"
	"repro/internal/grid"
	"repro/internal/maps"
	"repro/internal/naive"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/rtrbench"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "print the Table I reproduction")
		kernel   = flag.String("kernel", "", "run one kernel and print its report")
		rrtCmp   = flag.Bool("rrtcompare", false, "compare RRT / RRT* / RRT-PP")
		movSweep = flag.Bool("movtarsweep", false, "movtar heuristic share vs map size")
		fig21    = flag.Bool("fig21", false, "library comparison across map scales")
		symCmp   = flag.Bool("symcompare", false, "sym-fext vs sym-blkw branching")
		size     = flag.String("size", "small", "configuration size: small | default")
		seed     = flag.Int64("seed", 1, "random seed")
		variant  = flag.String("variant", "", "kernel variant (e.g. mapf/mapc, pfl region)")
		jsonOut  = flag.Bool("json", false, "with -table1: emit machine-readable JSON instead of text")
		deadline = flag.Duration("deadline", 0, "per-step real-time deadline (e.g. 10ms); 0 = off")
		stepLat  = flag.Bool("steplat", false, "record per-step latency even without a deadline")
		parallel = flag.Int("parallel", runtime.NumCPU(), "with -table1: kernels running concurrently")
		trials   = flag.Int("trials", 1, "with -table1: measured runs per kernel (trial t uses seed+t)")
		warmup   = flag.Int("warmup", 0, "with -table1: discarded runs per kernel before the trials")
		timeout  = flag.Duration("timeout", 0, "with -table1: per-run wall-clock budget; 0 = off")

		chaos     = flag.Bool("chaos", false, "with -table1: inject deterministic faults (dropouts, NaNs, noise, stalls, panics)")
		chaosSeed = flag.Int64("chaos-seed", 1, "chaos schedule seed (independent of -seed)")
	)
	flag.Parse()

	opts := rtrbench.Options{Seed: *seed, Variant: *variant, Deadline: *deadline, StepLatency: *stepLat}
	if *size == "default" {
		opts.Size = rtrbench.SizeDefault
	}

	ran := false
	if *table1 {
		sweep := rtrbench.SuiteOptions{
			Options:         opts,
			Parallel:        *parallel,
			Trials:          *trials,
			Warmup:          *warmup,
			Timeout:         *timeout,
			ContinueOnError: true,
		}
		// Variants are per-kernel; the sweep always runs defaults.
		sweep.Variant = ""
		if *chaos {
			sweep.Fault = &rtrbench.FaultOptions{
				Seed:    *chaosSeed,
				Dropout: 0.05,
				NaN:     0.02,
				Noise:   0.05,
				Stall:   0.02,
				Panic:   0.1,
			}
			sweep.BestEffort = true
		}
		res, err := rtrbench.Suite(context.Background(), sweep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			runTable1JSON(res)
		} else {
			runTable1(res)
		}
		ran = true
	}
	if *kernel != "" {
		runOne(*kernel, opts)
		ran = true
	}
	if *rrtCmp {
		runRRTCompare(opts)
		ran = true
	}
	if *movSweep {
		runMovtarSweep(opts)
		ran = true
	}
	if *fig21 {
		runFig21(opts)
		ran = true
	}
	if *symCmp {
		runSymCompare(opts)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func runTable1(sweep rtrbench.SuiteResult) {
	fmt.Println("Table I reproduction: kernel, stage, measured dominant phase vs paper bottleneck")
	fmt.Printf("%-4s %-10s %-11s %-14s %-7s %-8s %s\n",
		"#", "kernel", "stage", "dominant", "share", "ROI", "paper bottleneck(s)")
	for _, kr := range sweep.Kernels {
		k, res := kr.Info, kr.Result
		if kr.Err != nil {
			fmt.Printf("%-4d %-10s ERROR: %v\n", k.Index, k.Name, kr.Err)
			continue
		}
		dom := res.Dominant()
		match := " "
		for _, e := range k.ExpectDominant {
			if e == dom {
				match = "*"
				break
			}
		}
		roi := res.ROI
		if kr.Trials != nil && kr.Trials.Trials > 1 {
			roi = kr.Trials.ROIMean
		}
		fmt.Printf("%-4d %-10s %-11s %-13s%s %5.1f%% %-8s %s\n",
			k.Index, k.Name, k.Stage, dom, match,
			100*res.Fraction(dom), roi.Round(time.Millisecond),
			strings.Join(k.PaperBottlenecks, ", "))
	}
	fmt.Println("(* = measured dominant phase confirms the paper's characterization)")
}

// kernelReport converts a public Result into the rtrbench.report/v1 schema
// row shared with cmd/rtrbench --format=json.
func kernelReport(k rtrbench.Info, res rtrbench.Result) obs.KernelReport {
	row := obs.KernelReport{
		Kernel:           k.Name,
		Stage:            string(k.Stage),
		Index:            k.Index,
		PaperBottlenecks: k.PaperBottlenecks,
		ROISeconds:       res.ROI.Seconds(),
		Dominant:         res.Dominant(),
		Inconsistent:     res.Inconsistent,
		Counters:         res.Counters,
		Metrics:          res.Metrics,
	}
	for _, e := range k.ExpectDominant {
		if e == row.Dominant {
			row.MatchesPaper = true
		}
	}
	for _, p := range res.Phases {
		row.Phases = append(row.Phases, obs.PhaseReport{
			Name: p.Name, Seconds: p.Duration.Seconds(),
			Calls: p.Calls, Fraction: p.Fraction,
		})
	}
	if s := res.Steps; s != nil {
		row.Steps = &obs.StepReport{
			Count:           s.Count,
			MinSeconds:      s.Min.Seconds(),
			MeanSeconds:     s.Mean.Seconds(),
			P50Seconds:      s.P50.Seconds(),
			P95Seconds:      s.P95.Seconds(),
			P99Seconds:      s.P99.Seconds(),
			MaxSeconds:      s.Max.Seconds(),
			DeadlineSeconds: s.Deadline.Seconds(),
			DeadlineMisses:  s.Misses,
		}
	}
	return row
}

// runTable1JSON emits the Table I sweep as rtrbench.report/v1 JSON (one
// object per kernel) for downstream tooling: CI dashboards, regression
// tracking, plotting. The schema is shared with cmd/rtrbench --format=json;
// multi-trial sweeps add the optional trials block.
func runTable1JSON(sweep rtrbench.SuiteResult) {
	var out []obs.KernelReport
	for _, kr := range sweep.Kernels {
		k := kr.Info
		if kr.Err != nil {
			out = append(out, obs.KernelReport{
				Kernel: k.Name, Stage: string(k.Stage), Index: k.Index,
				PaperBottlenecks: k.PaperBottlenecks, Error: kr.Err.Error(),
			})
			continue
		}
		row := kernelReport(k, kr.Result)
		if ts := kr.Trials; ts != nil {
			row.Trials = &obs.TrialsReport{
				Trials:           ts.Trials,
				ROIMeanSeconds:   ts.ROIMean.Seconds(),
				ROIMinSeconds:    ts.ROIMin.Seconds(),
				ROIMaxSeconds:    ts.ROIMax.Seconds(),
				ROIStddevSeconds: ts.ROIStddev.Seconds(),
				Counters:         ts.Counters,
			}
			if st := ts.Steps; st != nil {
				row.Trials.Steps = &obs.StepReport{
					Count:           st.Count,
					MinSeconds:      st.Min.Seconds(),
					MeanSeconds:     st.Mean.Seconds(),
					P50Seconds:      st.P50.Seconds(),
					P95Seconds:      st.P95.Seconds(),
					P99Seconds:      st.P99.Seconds(),
					MaxSeconds:      st.Max.Seconds(),
					DeadlineSeconds: st.Deadline.Seconds(),
					DeadlineMisses:  st.Misses,
				}
			}
		}
		out = append(out, row)
	}
	if err := obs.WriteJSONAll(os.Stdout, out); err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}
}

func runOne(name string, opts rtrbench.Options) {
	res, err := rtrbench.Run(name, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kernel %s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("kernel %s (%s)  ROI %v\n", res.Kernel, res.Stage, res.ROI)
	if res.Inconsistent {
		fmt.Println("  WARNING: inconsistent profile snapshot (open phases or ROI)")
	}
	for _, p := range res.Phases {
		fmt.Printf("  %-16s %12v  calls=%-10d %5.1f%%\n", p.Name, p.Duration, p.Calls, 100*p.Fraction)
	}
	if s := res.Steps; s != nil && s.Count > 0 {
		fmt.Printf("  steps %-16d p50=%v p95=%v p99=%v max=%v\n",
			s.Count, s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond),
			s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
		if s.Deadline > 0 {
			fmt.Printf("  deadline %v: %d misses (%.1f%%)\n",
				s.Deadline, s.Misses, 100*float64(s.Misses)/float64(s.Count))
		}
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  metric %-22s %g\n", k, res.Metrics[k])
	}
	for name, s := range res.Series {
		fmt.Printf("  series %-22s n=%d", name, len(s))
		if len(s) > 0 {
			fmt.Printf("  first=%.3f last=%.3f", s[0], s[len(s)-1])
		}
		fmt.Println()
	}
}

// runRRTCompare reproduces the §V.9-10 evaluation: RRT* is several times
// slower than RRT but yields markedly shorter paths; RRT-PP lands between.
func runRRTCompare(opts rtrbench.Options) {
	cfg := rrt.DefaultConfig()
	cfg.Seed = opts.Seed
	if opts.Size == rtrbench.SizeSmall {
		cfg.MaxSamples = 6000
	}
	type row struct {
		name string
		time time.Duration
		cost float64
		nn   float64 // fraction of ROI in nearest-neighbor search
		col  float64 // fraction in collision detection
	}
	var rows []row
	run := func(name string, f func(context.Context, rrt.Config, *profile.Profile) (rrt.Result, error)) {
		// Average over a few seeds: sampling planners are noisy.
		var total time.Duration
		var cost, nn, col float64
		const reps = 5
		ok := 0
		for s := int64(0); s < reps; s++ {
			c := cfg
			c.Seed = cfg.Seed + s
			p := profile.New()
			r, err := f(context.Background(), c, p)
			if err != nil {
				continue
			}
			rep := p.Snapshot()
			total += rep.ROI
			cost += r.PathCost
			nn += rep.Fraction("nn")
			col += rep.Fraction("collision")
			ok++
		}
		if ok == 0 {
			fmt.Printf("%-8s all seeds failed\n", name)
			return
		}
		rows = append(rows, row{name, total / time.Duration(ok), cost / float64(ok), nn / float64(ok), col / float64(ok)})
	}
	run("rrt", rrt.Run)
	run("rrtpp", rrt.RunPP)
	run("rrtstar", rrt.RunStar)

	fmt.Println("RRT family comparison (mean over 5 seeds), Map-C:")
	fmt.Printf("%-8s %12s %10s %8s %8s\n", "kernel", "time", "pathcost", "nn%", "coll%")
	for _, r := range rows {
		fmt.Printf("%-8s %12v %10.3f %7.1f%% %7.1f%%\n", r.name, r.time.Round(time.Microsecond), r.cost, 100*r.nn, 100*r.col)
	}
	if len(rows) == 3 {
		fmt.Printf("slowdown rrtstar/rrt: %.1fx   path ratio rrt/rrtstar: %.2fx   rrtpp between: time %v..%v cost %.2f..%.2f\n",
			float64(rows[2].time)/float64(rows[0].time),
			rows[0].cost/rows[2].cost,
			rows[0].time.Round(time.Microsecond), rows[2].time.Round(time.Microsecond),
			rows[2].cost, rows[0].cost)
	}
}

// runMovtarSweep reproduces §V.6: the heuristic (backward Dijkstra) share of
// end-to-end time grows as the environment shrinks.
func runMovtarSweep(opts rtrbench.Options) {
	sizes := []int{48, 96, 192, 384}
	if opts.Size == rtrbench.SizeDefault {
		sizes = append(sizes, 512)
	}
	fmt.Println("movtar: heuristic share vs environment size")
	fmt.Printf("%-8s %12s %10s %10s %10s %6s %12s\n", "size", "ROI", "heur%", "search%", "expanded", "catch", "cost")
	for _, s := range sizes {
		cfg := movtar.DefaultConfig()
		cfg.Size = s
		cfg.Seed = opts.Seed
		p := profile.New()
		r, err := movtar.Run(context.Background(), cfg, p)
		if err != nil {
			fmt.Printf("%-8d ERROR: %v\n", s, err)
			continue
		}
		rep := p.Snapshot()
		fmt.Printf("%-8d %12v %9.1f%% %9.1f%% %10d %6d %12.6f\n",
			s, rep.ROI.Round(time.Microsecond),
			100*rep.Fraction("heuristic"), 100*rep.Fraction("search"), r.Expanded,
			r.CatchTime, r.PathCost)
	}
}

// runFig21 reproduces the paper's Fig. 21: the optimized pp2d planner versus
// the P-Rob-style (interpreted) and C-Rob-style (copy-by-value) baselines on
// the PythonRobotics demo map scaled by powers of two.
func runFig21(opts rtrbench.Options) {
	scales := []int{1, 2, 4, 8}
	if opts.Size == rtrbench.SizeDefault {
		scales = append(scales, 16, 32)
	}
	fmt.Println("Fig. 21 reproduction: execution time by map scale")
	fmt.Printf("%-6s %14s %14s %14s %10s %10s\n", "scale", "RTRBench", "P-Rob-style", "C-Rob-style", "P/R", "C/R")
	base := maps.PRobMap()
	for _, k := range scales {
		g := base.Scale(k)
		sx, sy, gx, gy := maps.PRobStartGoal(k)

		tOpt := timeIt(func() { optimizedPointAStar(g, sx, sy, gx, gy) })
		tInterp := timeIt(func() { naive.Interp(g, sx, sy, gx, gy) })
		tCopy := timeIt(func() { naive.Copy(g, sx, sy, gx, gy) })

		fmt.Printf("%-6d %14v %14v %14v %9.1fx %9.1fx\n",
			k, tOpt.Round(time.Microsecond), tInterp.Round(time.Microsecond), tCopy.Round(time.Microsecond),
			float64(tInterp)/float64(tOpt), float64(tCopy)/float64(tOpt))
	}
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// optimizedPointAStar runs the suite's A* as a point robot (the baselines
// are point planners, so the comparison is like for like).
func optimizedPointAStar(g *grid.Grid2D, sx, sy, gx, gy int) {
	cfg := pp2d.DefaultConfig()
	cfg.Map = g
	// A point robot: footprint smaller than one cell.
	cfg.CarLength = g.Resolution * 0.5
	cfg.CarWidth = g.Resolution * 0.5
	cfg.StartX, cfg.StartY, cfg.GoalX, cfg.GoalY = sx, sy, gx, gy
	if _, err := pp2d.Run(context.Background(), cfg, profile.Disabled()); err != nil {
		fmt.Fprintf(os.Stderr, "fig21: optimized planner failed: %v\n", err)
	}
}

// runSymCompare reproduces §V.12: the firefighting domain exposes a higher
// branching factor (more applicable actions per state) than blocks world.
func runSymCompare(opts rtrbench.Options) {
	blkw, err1 := rtrbench.Run("sym-blkw", opts)
	fext, err2 := rtrbench.Run("sym-fext", opts)
	if err1 != nil || err2 != nil {
		fmt.Fprintf(os.Stderr, "symcompare: %v %v\n", err1, err2)
		os.Exit(1)
	}
	bb := blkw.Metric("avg_branching")
	fb := fext.Metric("avg_branching")
	fmt.Printf("sym-blkw: plan=%d expanded=%.0f branching=%.2f\n",
		int(blkw.Metric("plan_length")), blkw.Metric("expanded"), bb)
	fmt.Printf("sym-fext: plan=%d expanded=%.0f branching=%.2f\n",
		int(fext.Metric("plan_length")), fext.Metric("expanded"), fb)
	if bb > 0 {
		fmt.Printf("branching ratio fext/blkw: %.2fx (paper: ~3.2x)\n", fb/bb)
	}
}
