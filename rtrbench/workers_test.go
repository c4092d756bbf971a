package rtrbench

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/golden"
)

// workerKernelNames returns the parallelized-kernel set in stable order.
func workerKernelNames() []string {
	var names []string
	for name := range workerKernels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestWorkersDigestInvariance is the suite-level form of the per-kernel
// determinism tests: for every kernel honoring Options.Workers, the digest at
// Workers=1 must equal the digest at Workers=8 — the contract the verify
// command's metamorphic "workers" property enforces in CI.
func TestWorkersDigestInvariance(t *testing.T) {
	names := workerKernelNames()
	w1, err := suiteDigests(context.Background(), names, 1, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w8, err := suiteDigests(context.Background(), names, 1, 2, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if diffs := golden.Diff(w1[name], w8[name]); len(diffs) > 0 {
			t.Errorf("%s: workers=8 diverged from workers=1: %v", name, diffs)
		}
	}
}

// TestWorkersSerialUnaffected pins the other half of the contract: Workers=0
// must select the exact legacy serial algorithms, so its digests match a
// plain zero-valued Options run (the configuration the checked-in goldens
// record).
func TestWorkersSerialUnaffected(t *testing.T) {
	names := workerKernelNames()
	serial, err := suiteDigests(context.Background(), names, 1, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := suiteDigests(context.Background(), names, 1, 2, Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if diffs := golden.Diff(serial[name], zero[name]); len(diffs) > 0 {
			t.Errorf("%s: Workers=0 diverged from default options: %v", name, diffs)
		}
	}
}

// TestWorkersIgnoredOutsideWorkerKernels pins which kernels may change their
// answer with Options.Workers: only pfl and prm, whose parallel paths beat
// their serial ones. Every other registered kernel must run its one serial
// algorithm whatever Workers says, so Workers=4 digests exactly like
// Workers=0. Adding a kernel to workerKernels means editing this list too.
func TestWorkersIgnoredOutsideWorkerKernels(t *testing.T) {
	parallel := map[string]bool{"pfl": true, "prm": true}
	if !reflect.DeepEqual(workerKernels, parallel) {
		t.Errorf("workerKernels = %v, want %v", workerKernelNames(), parallel)
	}
	var names []string
	for _, k := range Kernels() {
		if !parallel[k.Name] {
			names = append(names, k.Name)
		}
	}
	serial, err := suiteDigests(context.Background(), names, 1, 2, Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	w4, err := suiteDigests(context.Background(), names, 1, 2, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if diffs := golden.Diff(serial[name], w4[name]); len(diffs) > 0 {
			t.Errorf("%s: Workers=4 diverged from Workers=0: %v", name, diffs)
		}
	}
}

// TestWorkersAnswerQuality bounds what the parallel algorithms give up for
// their speed. Workers>=1 selects a different computation from the serial
// one, so digests differ by design; this test says how far the answer may
// move. At SizeSmall, Workers=2 against Workers=0, measured:
//
//	prm path_cost_rad    seed 1: 11.112 vs 10.666 (1.04×)
//	                     seed 42: 12.348 vs 10.021 (1.23×)
//	pfl position_error_m seed 1: 9.433 vs 9.442 (0.999×)
//	                     seed 42: 0.0927 vs 0.0942 (0.984×)
//
// prm must still find a path, and neither kernel's dominant phase may move:
// the parallel path must keep the kernel's Table I attribution.
func TestWorkersAnswerQuality(t *testing.T) {
	checks := []struct {
		kernel, metric, dominant string
		maxRatio                 float64
	}{
		{"prm", "path_cost_rad", "connect", 1.25},
		{"pfl", "position_error_m", "raycast", 1.1},
	}
	for _, c := range checks {
		for _, seed := range []int64{1, 42} {
			serial, err := Run(c.kernel, Options{Size: SizeSmall, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d serial: %v", c.kernel, seed, err)
			}
			par, err := Run(c.kernel, Options{Size: SizeSmall, Seed: seed, Workers: 2})
			if err != nil {
				t.Fatalf("%s seed %d workers=2: %v", c.kernel, seed, err)
			}
			if c.kernel == "prm" && par.Metrics["found"] != 1 {
				t.Errorf("prm seed %d: workers=2 found no path", seed)
			}
			if d := par.Dominant(); d != c.dominant {
				t.Errorf("%s seed %d: workers=2 dominant phase %q, want %q", c.kernel, seed, d, c.dominant)
			}
			s, p := serial.Metrics[c.metric], par.Metrics[c.metric]
			if !(p <= c.maxRatio*s) {
				t.Errorf("%s seed %d: workers=2 %s = %.4g, above %.2f× serial %.4g",
					c.kernel, seed, c.metric, p, c.maxRatio, s)
			}
		}
	}
}

func TestNormalizeRejectsNegativeWorkers(t *testing.T) {
	_, err := SuiteOptions{Options: Options{Workers: -1}}.Normalize()
	if err == nil {
		t.Fatal("negative Workers normalized without error")
	}
}
