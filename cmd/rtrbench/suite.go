package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/rtrbench"
)

// runSuite implements `rtrbench suite`: the full (or filtered) 16-kernel
// sweep on the parallel execution engine, with per-kernel trial statistics.
func runSuite(args []string) error {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	var (
		size     = fs.String("size", "small", "workload size: small | default")
		seed     = fs.Int64("seed", 1, "base random seed (trial t runs with seed+t)")
		kernels  = fs.String("kernels", "", "comma-separated kernel subset (default: all 16)")
		parallel = fs.Int("parallel", runtime.NumCPU(), "kernels running concurrently")
		workers  = fs.Int("workers", 0, "intra-kernel worker goroutines for the kernels with a parallel path (pfl, prm); 0 = serial algorithms")
		trials   = fs.Int("trials", 1, "measured runs per kernel")
		warmup   = fs.Int("warmup", 0, "discarded runs per kernel before the trials")
		timeout  = fs.Duration("timeout", 0, "per-run wall-clock budget (e.g. 30s); 0 = off")
		keepOn   = fs.Bool("continue", false, "keep sweeping after a kernel fails (the exit code still reports the failures)")
		deadline = fs.Duration("deadline", 0, "per-step real-time deadline (e.g. 10ms); 0 = off")
		stepLat  = fs.Bool("steplat", false, "record per-step latency histograms")
		format   = fs.String("format", "text", "report format: text | json | csv")
		out      = fs.String("out", "", "write the report to this file instead of stdout")

		chaos      = fs.Bool("chaos", false, "inject deterministic faults (dropouts, NaNs, noise, stalls, panics); implies -continue and best-effort degradation")
		chaosSeed  = fs.Int64("chaos-seed", 1, "chaos schedule seed (independent of -seed)")
		chaosStall = fs.Duration("chaos-stall", time.Millisecond, "duration of each injected stall")
		retries    = fs.Int("retries", 0, "retries per trial after a transient timeout")
		retryWait  = fs.Duration("retry-backoff", 0, "pause before a retry (grows linearly per attempt)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := rtrbench.SuiteOptions{
		Options: rtrbench.Options{
			Seed:        *seed,
			Deadline:    *deadline,
			StepLatency: *stepLat,
			Workers:     *workers,
		},
		Parallel:        *parallel,
		Trials:          *trials,
		Warmup:          *warmup,
		Timeout:         *timeout,
		ContinueOnError: *keepOn,
		Retries:         *retries,
		RetryBackoff:    *retryWait,
	}
	if *chaos {
		// The default chaos mix exercises every fault class: lost and
		// corrupted sensor readings, latency stalls at step boundaries,
		// and a low-probability injected panic per run. Panics surface as
		// structured errors, so the sweep must keep going past them, and
		// kernels should degrade rather than fail on chaos-induced
		// deadline pressure.
		opts.Fault = &rtrbench.FaultOptions{
			Seed:     *chaosSeed,
			Dropout:  0.05,
			NaN:      0.02,
			Noise:    0.05,
			Stall:    0.02,
			StallFor: *chaosStall,
			Panic:    0.1,
		}
		opts.BestEffort = true
		opts.ContinueOnError = true
	}
	switch *size {
	case "small":
		opts.Size = rtrbench.SizeSmall
	case "default":
		opts.Size = rtrbench.SizeDefault
	default:
		return fmt.Errorf("unknown --size %q (want small or default)", *size)
	}
	if *kernels != "" {
		for _, name := range strings.Split(*kernels, ",") {
			opts.Kernels = append(opts.Kernels, strings.TrimSpace(name))
		}
	}

	// Normalize up front so flag mistakes fail before any kernel runs and
	// the report header shows the effective (defaulted) settings.
	opts, err := opts.Normalize()
	if err != nil {
		return err
	}

	// Ctrl-C cancels the in-flight kernels instead of killing the process;
	// the partial sweep still reports.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	res, err := rtrbench.Suite(ctx, opts)
	if err != nil {
		return err
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("--out: %w", err)
		}
		defer f.Close()
		w = f
	}

	switch *format {
	case "json":
		if err := obs.WriteJSONAll(w, report.Suite(res)); err != nil {
			return err
		}
	case "csv":
		if err := obs.WriteCSVAll(w, report.Suite(res)); err != nil {
			return err
		}
	case "text":
		suiteText(w, res, opts)
	default:
		return fmt.Errorf("unknown --format %q (want text, json, or csv)", *format)
	}
	return suiteExitError(res, *chaos)
}

// suiteExitError turns kernel failures into a non-zero exit. -continue
// keeps the sweep going past failures but no longer masks them from the
// exit code; a green exit means a clean sweep. Under -chaos, failures the
// engine attributes to an injected fault are the point of the exercise and
// are excused — anything without fault attribution is a real bug and still
// fails the run.
func suiteExitError(res rtrbench.SuiteResult, chaos bool) error {
	fails := res.Failures()
	if chaos {
		hard := fails[:0:0]
		for _, f := range fails {
			if f.Fault == "" {
				hard = append(hard, f)
			}
		}
		fails = hard
	}
	if len(fails) == 0 {
		return nil
	}
	return fmt.Errorf("suite: %d kernel failure(s); first: %s: %v", len(fails), fails[0].Kernel, fails[0].Err)
}

// suiteText prints the human-readable sweep table.
func suiteText(w io.Writer, res rtrbench.SuiteResult, opts rtrbench.SuiteOptions) {
	trials := opts.Trials
	if trials <= 0 {
		trials = 1
	}
	fmt.Fprintf(w, "suite: %d kernels, %d trial(s), parallel=%d, %v total\n",
		len(res.Kernels), trials, opts.Parallel, res.Elapsed.Round(time.Millisecond))
	if trials > 1 {
		fmt.Fprintf(w, "%-3s %-10s %-10s %12s %12s %12s %s\n",
			"#", "kernel", "stage", "roi-mean", "roi-min", "roi-stddev", "status")
	} else {
		fmt.Fprintf(w, "%-3s %-10s %-10s %12s %s\n", "#", "kernel", "stage", "roi", "status")
	}
	for _, k := range res.Kernels {
		status := suiteStatus(k)
		if ts := k.Trials; ts != nil && trials > 1 {
			fmt.Fprintf(w, "%-3d %-10s %-10s %12v %12v %12v %s\n",
				k.Info.Index, k.Info.Name, k.Info.Stage,
				ts.ROIMean.Round(time.Microsecond), ts.ROIMin.Round(time.Microsecond),
				ts.ROIStddev.Round(time.Microsecond), status)
		} else if trials > 1 {
			fmt.Fprintf(w, "%-3d %-10s %-10s %12s %12s %12s %s\n",
				k.Info.Index, k.Info.Name, k.Info.Stage, "-", "-", "-", status)
		} else {
			fmt.Fprintf(w, "%-3d %-10s %-10s %12v %s\n",
				k.Info.Index, k.Info.Name, k.Info.Stage,
				k.Result.ROI.Round(time.Microsecond), status)
		}
	}
	if fails := res.Failures(); len(fails) > 0 {
		fmt.Fprintf(w, "\nfailures (%d):\n", len(fails))
		for _, f := range fails {
			where := "setup"
			if f.Trial >= 0 {
				where = fmt.Sprintf("trial %d", f.Trial)
			}
			if f.Fault != "" {
				fmt.Fprintf(w, "  %-10s %-8s [%s] %v\n", f.Kernel, where, f.Fault, f.Err)
			} else {
				fmt.Fprintf(w, "  %-10s %-8s %v\n", f.Kernel, where, f.Err)
			}
		}
	}
}

// suiteStatus summarizes one kernel row: ok / degraded / the error, with
// injected-fault and retry counts appended when chaos or retries were live.
func suiteStatus(k rtrbench.KernelResult) string {
	status := "ok"
	switch {
	case k.Err != nil:
		status = k.Err.Error()
	case k.Trials != nil && k.Trials.Degraded > 0:
		status = fmt.Sprintf("degraded (%d/%d trials)", k.Trials.Degraded, k.Trials.Trials)
	case k.Result.Degraded:
		status = "degraded"
	}
	if k.Trials != nil && len(k.Trials.Faults) > 0 {
		status += fmt.Sprintf("  faults=%d", len(k.Trials.Faults))
	}
	if k.Retried > 0 {
		status += fmt.Sprintf("  retries=%d", k.Retried)
	}
	return status
}
