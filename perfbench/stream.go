package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/rtrbench"
)

// streamPFL measures pfl at SizeSmall as an open-loop periodic task through
// rtrbench.Streamer with the skip-next overload policy. The period is a
// fixed constant from BENCHMARK.json's command line, not tuned per run.
func streamPFL(ctx context.Context, cfg *config, o *outcome) error {
	seed := kernelSeed(cfg.seed)
	book := digestBook{}
	small := rtrbench.Options{Size: rtrbench.SizeSmall, Seed: seed}

	// Set-up: three timed warm-up runs of the streamed kernel, at seed 1
	// whatever the benchmark's seed, so that set-up time measures warming,
	// not inputs.
	warm := rtrbench.Options{Size: rtrbench.SizeSmall, Seed: 1}
	var setups []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		r, err := rtrbench.RunContext(ctx, "pfl", warm)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		end := time.Now()
		setups = append(setups, end.Sub(t).Seconds())
		cfg.tr.add(0, "warm-up", "kernel", 1, t, end, map[string]interface{}{"seed": warm.Seed})
		dg, err := rtrbench.DigestSum(r, warm.Seed)
		if err != nil {
			return err
		}
		if err := book.check("pfl size=small seed=1", dg); err != nil {
			return err
		}
	}
	o.set("setup_s", median(setups))

	opts := rtrbench.StreamOptions{
		Options:  small,
		Kernel:   "pfl",
		Period:   cfg.period,
		Duration: cfg.seconds,
		Policy:   rtrbench.StreamPolicySkipNext,
	}
	var s rtrbench.Streamer
	cpu0, err := selfCPU()
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := s.Run(ctx, opts)
	end := time.Now()
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	cpu1, err := selfCPU()
	if err != nil {
		return err
	}
	st := res.Stream
	cfg.tr.add(0, "stream", "stream", 2, start, end, map[string]interface{}{
		"seed": seed, "ticks": st.Ticks, "sheds": st.Sheds, "misses": st.Misses, "runs": res.Runs,
	})
	if err := checkLedger(st.Ticks, st.Sheds, opts.Period, opts.Duration, st.Latency.Max); err != nil {
		return err
	}
	releases := st.Ticks + st.Sheds
	o.attempted += releases

	o.set("latency_ms", ms(st.Latency.Mean))
	o.set("cpu_ms_per_op", ms(cpu1-cpu0)/float64(st.Ticks))
	o.set("tick_latency_mean_ms", ms(st.Latency.Mean))
	o.set("tick_miss_frac", float64(st.Misses+st.Sheds)/float64(releases))
	o.set("error_frac", errorFrac(o.failed, o.attempted))
	o.set("stream.ticks", float64(st.Ticks))
	o.set("stream.sheds", float64(st.Sheds))
	o.set("stream.overruns", float64(st.Overruns))
	o.set("stream.runs", float64(res.Runs))
	o.set("stream.jitter_mean_ms", ms(st.Jitter.Mean))
	o.set("stream.latency_max_ms", ms(st.Latency.Max))
	o.note("stream pfl SizeSmall from seed %d for %v at period %v: %d releases, %d ticks, %d misses, %d sheds, %d workload runs",
		seed, opts.Duration, opts.Period, releases, st.Ticks, st.Misses, st.Sheds, res.Runs)

	if cfg.tr != nil {
		// One directly timed run of the streamed workload gives the exact
		// per-step maximum (the restart tick) and the raycast costs.
		stepped := small
		stepped.StepLatency = true
		t := time.Now()
		r, err := rtrbench.RunContext(ctx, "pfl", stepped)
		if err != nil {
			return fmt.Errorf("stepped run: %w", err)
		}
		cfg.tr.add(0, "pfl steps", "kernel", 1, t, time.Now(), map[string]interface{}{"seed": seed})
		if r.Steps == nil {
			return fmt.Errorf("stepped run reported no step statistics")
		}
		o.set("kernel.pfl.step_max_ms", ms(r.Steps.Max))
		info, _ := rtrbench.Lookup("pfl")
		kernelLayers(o, sweep{calls: []call{{kr: rtrbench.KernelResult{Info: info, Result: r}}}})
		over, err := profileOverhead(ctx, "pfl", small)
		if err != nil {
			return err
		}
		o.set("profile.overhead_frac", over)
	}

	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	o.set("peak_rss_mb", rss)
	return nil
}

// checkLedger is the stream's release ledger: every release on the period
// grid is either executed (a tick) or shed. The window holds
// ceil(duration/period) releases; the last tick may also shed releases
// past the window's end, at most one per period of its latency.
func checkLedger(ticks, sheds int64, period, duration, maxLatency time.Duration) error {
	window := int64(math.Ceil(float64(duration) / float64(period)))
	tail := int64(math.Ceil(float64(maxLatency) / float64(period)))
	if got := ticks + sheds; got < window || got > window+tail {
		return fmt.Errorf("stream ledger: %d ticks + %d sheds = %d, want %d releases (+ at most %d shed after the window)",
			ticks, sheds, got, window, tail)
	}
	return nil
}

// profileOverhead compares three engine runs of one kernel with the default
// profile against three with profile.Disabled(), by median wall time.
func profileOverhead(ctx context.Context, kernel string, opts rtrbench.Options) (float64, error) {
	wall := func(e *rtrbench.Engine) (float64, error) {
		var ws []float64
		for i := 0; i < 3; i++ {
			t := time.Now()
			res, err := e.Run(ctx, rtrbench.SuiteOptions{Options: opts, Kernels: []string{kernel}, Parallel: 1})
			if err == nil {
				err = res.FirstError()
			}
			if err != nil {
				return 0, err
			}
			ws = append(ws, time.Since(t).Seconds())
		}
		return median(ws), nil
	}
	on, err := wall(&rtrbench.Engine{})
	if err != nil {
		return 0, err
	}
	off, err := wall(&rtrbench.Engine{NewProfile: disabledProfile})
	if err != nil {
		return 0, err
	}
	return on/off - 1, nil
}
