package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runBudget bounds one run, set-up and correctness gate included, below the
// three minutes a run may take.
const runBudget = 160 * time.Second

// config is one run's settings: its command-line arguments, including the workload
// constants BENCHMARK.json's command line fixes for every run.
type config struct {
	workload     string
	seed         int64
	seconds      time.Duration
	period       time.Duration // stream-pfl tick period
	rate         float64       // daemon-mixed offered load, jobs/s
	goodputLimit time.Duration // daemon-mixed latency limit for goodput
	daemonBin    string
	outDir       string
	tr           *tracer // nil unless --trace 1
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) note(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload runs one workload: set-up, the timed phase and its correctness
// checks, recording metrics into o. An error fails the run.
type workload func(ctx context.Context, cfg *config, o *outcome) error

var workloads = map[string]workload{
	"table1-sweep":  sweepWorkload(table1Kernels(), 0, 10*time.Second),
	"workers-sweep": sweepWorkload(workersKernels, 2, 2500*time.Millisecond),
	"stream-pfl":    streamPFL,
	"daemon-mixed":  daemonMixed,
}

// units is how many units of work a run measures: as many as take the
// run's seconds at the unit's nominal time on the reference machine (a
// 2-core x86-64 VM), and at least two. The work is fixed rather than the
// time, so that a faster or slower commit measures the same work and the
// process's peak memory does not depend on how many units fitted.
func units(seconds, nominal time.Duration) int {
	n := int(math.Round(float64(seconds) / float64(nominal)))
	if n < 2 {
		return 2
	}
	return n
}

// kernelSeed maps the benchmark's seed argument onto a kernel seed; kernels
// treat seed 0 as seed 1, so non-positive seeds are folded onto distinct
// positive ones.
func kernelSeed(seed int64) int64 {
	if seed <= 0 {
		return 1 - seed
	}
	return seed
}

// specMetric and spec are the parts of BENCHMARK.json the benchmark reads:
// which metrics a run prints, and their units.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == "gate" {
		// The correctness gate runs in its own process so its kernel runs
		// do not count toward the measured process's peak memory.
		if err := verifyGoldens(context.Background(), goldenDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench gate:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		cfg     config
		seconds = fset.Int("seconds", 10, "how long the timed phase runs")
		trace   = fset.Int("trace", 0, "1: traced run printing the per-layer metrics")
	)
	fset.StringVar(&cfg.workload, "workload", "", "workload name from BENCHMARK.json")
	fset.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	fset.DurationVar(&cfg.period, "stream-period", 5*time.Millisecond, "stream-pfl tick period")
	fset.Float64Var(&cfg.rate, "daemon-rate", 4, "daemon-mixed offered load in jobs per second")
	fset.DurationVar(&cfg.goodputLimit, "goodput-limit", time.Second, "daemon-mixed latency limit counted by goodput")
	fset.StringVar(&cfg.daemonBin, "daemon-bin", "", "rtrbenchd binary built from this checkout")
	fset.StringVar(&cfg.outDir, "out", ".bench_build/out", "directory for traces and daemon data")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if fset.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fset.Args())
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || cfg.period <= 0 || cfg.rate <= 0 || cfg.goodputLimit <= 0 {
		return fmt.Errorf("bad arguments: -seconds %d, -trace %d, -stream-period %v, -daemon-rate %v, -goodput-limit %v",
			*seconds, *trace, cfg.period, cfg.rate, cfg.goodputLimit)
	}
	cfg.seconds = time.Duration(*seconds) * time.Second
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	wl, ok := workloads[cfg.workload]
	listed := false
	for _, w := range sp.Workloads {
		listed = listed || w.Name == cfg.workload
	}
	if !ok || !listed {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.workload == "daemon-mixed" && cfg.daemonBin == "" {
		return errors.New("daemon-mixed needs -daemon-bin")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if *trace == 1 {
		cfg.tr = newTracer()
	}

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	gate := exec.CommandContext(ctx, os.Args[0], "gate")
	gate.Stdout, gate.Stderr = os.Stderr, os.Stderr
	if err := gate.Run(); err != nil {
		return fmt.Errorf("correctness gate (golden digests, seeds 1 and 42): %w", err)
	}

	o := &outcome{metrics: map[string]float64{}}
	if err := wl(ctx, &cfg, o); err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if o.attempted < 1 {
		return fmt.Errorf("%s attempted nothing", cfg.workload)
	}

	prov, err := provenance(&cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	for _, n := range o.notes {
		fmt.Fprintln(stdout, n)
	}
	unitOf := map[string]string{}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		unitOf[m.Name] = m.Unit
	}
	names := make([]string, 0, len(o.metrics))
	for name := range o.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", name, o.metrics[name], unitOf[name])
	}
	if cfg.tr != nil {
		if err := writeTrace(stdout, &cfg, o); err != nil {
			return err
		}
	}

	// The result line: every end-to-end metric (untraced) or every
	// per-layer metric (traced). A per-layer metric of a layer this
	// workload bypasses reads 0; an end-to-end metric must be measured.
	list, mode := sp.EndToEnd, "end-to-end"
	if cfg.tr != nil {
		list, mode = sp.PerLayer, "per-layer"
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	for _, m := range list {
		v, ok := o.metrics[m.Name]
		if !ok && cfg.tr == nil {
			return fmt.Errorf("%s did not measure %s metric %s", cfg.workload, mode, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: %s metric %s is %v", cfg.workload, mode, m.Name, v)
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// writeTrace writes the traced run's spans and prints where the time went
// by span category (self time: a span's duration minus its children's).
func writeTrace(stdout io.Writer, cfg *config, o *outcome) error {
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	meta := map[string]string{"workload": cfg.workload, "seed": fmt.Sprint(cfg.seed)}
	if err := cfg.tr.write(path, meta); err != nil {
		return err
	}
	self := cfg.tr.selfTimes()
	cats := make([]string, 0, len(self))
	for c := range self {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	fmt.Fprintf(stdout, "trace %s: %d spans; self time by category:", path, len(cfg.tr.spans))
	for _, c := range cats {
		fmt.Fprintf(stdout, " %s=%.3fs", c, self[c].Seconds())
	}
	fmt.Fprintln(stdout)
	if v, ok := o.metrics["trace.overhead_frac"]; ok {
		fmt.Fprintf(stdout, "tracing overhead (traced vs untraced sweep wall): %+.2f%%\n", 100*v)
	}
	return nil
}

// provenance stamps a result with the machine shape, toolchain, source
// identity and seed. The checkout the benchmark runs in need not be a git
// repository, so the source is also identified by a hash of its Go files.
func provenance(cfg *config) (string, error) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	src, err := sourceHash(".")
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(map[string]interface{}{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds.Seconds(),
		"traced":        cfg.tr != nil,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"numcpu":        runtime.NumCPU(),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": src,
	})
	return string(b), err
}

// sourceHash is the SHA-256 over the path and content of every Go source
// and go.mod file under root, skipping hidden directories such as the
// build directory.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), err
}
