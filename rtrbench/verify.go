package rtrbench

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"runtime"

	"repro/internal/golden"
	"repro/internal/profile"
)

// Checked-in goldens cover the Small size at these two seeds; Verify uses
// them when VerifyOptions.Seeds is empty.
var defaultVerifySeeds = []int64{1, 42}

// DefaultGoldenDir is where the checked-in golden digests live, relative to
// the rtrbench package directory (tests) — callers running from elsewhere
// (the CLI, CI) pass the repo-relative path explicitly.
const DefaultGoldenDir = "testdata/golden"

// VerifyOptions configures a Verify run. Verification always runs the Small
// size: goldens are checked in for exactly that configuration.
type VerifyOptions struct {
	// Dir is the golden-digest directory; empty means DefaultGoldenDir.
	Dir string
	// Kernels selects a subset by name; empty means all 16.
	Kernels []string
	// Seeds are the base seeds to verify at; empty means the checked-in
	// pair (1 and 42).
	Seeds []int64
	// Update regenerates the golden files from the current code instead of
	// diffing against them.
	Update bool
	// Metamorphic additionally checks the digest-invariance properties
	// that need no goldens at all: digests must be bit-identical at
	// Parallel=1 vs Parallel=8, with trial order reversed, with profiling
	// enabled vs profile.Disabled(), and — for the kernels with intra-kernel
	// parallelism — at Options.Workers=1 vs Workers=8. Runs at Seeds[0].
	Metamorphic bool
	// Parallel bounds kernel concurrency for the golden runs; <= 0 means
	// runtime.NumCPU().
	Parallel int
}

// VerifyMismatch is one digest difference found by Verify, carrying enough
// identity to name the drift: kernel, seed, the check that caught it, the
// field, and both canonical values.
type VerifyMismatch struct {
	Kernel string
	Seed   int64
	// Check names the comparison: "golden" (checked-in digest), or the
	// metamorphic properties "parallel" (1 vs 8 concurrent kernels),
	// "reorder" (trial order), "profile" (profiling on vs off), "workers"
	// (intra-kernel Workers=1 vs Workers=8).
	Check string
	Field string
	Want  string
	Got   string
}

// String renders the mismatch in the human-readable report form.
func (m VerifyMismatch) String() string {
	return fmt.Sprintf("%s (seed %d, %s): field %s: expected %s, got %s",
		m.Kernel, m.Seed, m.Check, m.Field, m.Want, m.Got)
}

// VerifyReport is the outcome of a Verify run.
type VerifyReport struct {
	// Checked counts digests compared (golden diffs plus metamorphic
	// comparisons).
	Checked int
	// Updated lists the golden files written in update mode.
	Updated []string
	// Missing lists golden files that do not exist (run with Update to
	// create them).
	Missing []string
	// Mismatches lists every digest difference, golden and metamorphic.
	Mismatches []VerifyMismatch
}

// OK reports whether verification passed: every golden present and every
// comparison clean. An update run is OK by construction.
func (r VerifyReport) OK() bool { return len(r.Mismatches) == 0 && len(r.Missing) == 0 }

// Verify re-runs the selected kernels at the Small size and checks that
// each still computes the same answer: per-kernel result digests (operation
// counts, final-state summaries — never timings; see digest.go) are diffed
// against the golden digests checked in under Dir. With Update set it
// regenerates the goldens instead. With Metamorphic set it additionally
// proves the digests independent of parallelism, trial order, and
// profiling.
//
// The returned error covers harness-level failures only (unknown kernel,
// a kernel run erroring, ctx cancellation); digest drift is reported in the
// VerifyReport so callers can print every mismatch, not just the first.
func Verify(ctx context.Context, opts VerifyOptions) (VerifyReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var rep VerifyReport
	infos, err := suiteKernels(opts.Kernels)
	if err != nil {
		return rep, err
	}
	dir := opts.Dir
	if dir == "" {
		dir = DefaultGoldenDir
	}
	seeds := opts.Seeds
	if len(seeds) == 0 {
		seeds = defaultVerifySeeds
	}
	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = runtime.NumCPU()
	}

	for _, seed := range seeds {
		digests, err := suiteDigests(ctx, opts.Kernels, seed, parallel, Options{})
		if err != nil {
			return rep, err
		}
		for _, info := range infos {
			got := digests[info.Name]
			got.Seed = seed
			if opts.Update {
				if err := golden.Save(dir, got); err != nil {
					return rep, err
				}
				rep.Updated = append(rep.Updated, golden.Path(dir, info.Name, seed))
				continue
			}
			want, err := golden.Load(dir, info.Name, seed)
			if errors.Is(err, fs.ErrNotExist) {
				rep.Missing = append(rep.Missing, golden.Path(dir, info.Name, seed))
				continue
			}
			if err != nil {
				return rep, err
			}
			rep.Checked++
			appendMismatches(&rep, "golden", seed, golden.Diff(want, got))
		}
	}

	if opts.Metamorphic {
		if err := verifyMetamorphic(ctx, &rep, infos, opts.Kernels, seeds[0], parallel); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// suiteDigests runs the selected kernels once each through the Suite engine
// and digests every result, keyed by kernel name.
func suiteDigests(ctx context.Context, names []string, seed int64, parallel int, base Options) (map[string]golden.Digest, error) {
	base.Size = SizeSmall
	base.Seed = seed
	res, err := Suite(ctx, SuiteOptions{Options: base, Kernels: names, Parallel: parallel})
	if err != nil {
		return nil, err
	}
	if err := res.FirstError(); err != nil {
		return nil, err
	}
	out := make(map[string]golden.Digest, len(res.Kernels))
	for _, kr := range res.Kernels {
		d, err := digestResult(kr.Result)
		if err != nil {
			return nil, err
		}
		d.Seed = seed
		out[kr.Info.Name] = d
	}
	return out, nil
}

// verifyMetamorphic checks the three golden-free equivalence properties.
// Each failure is reported as a mismatch whose Check names the property;
// Want is the reference execution, Got the varied one.
func verifyMetamorphic(ctx context.Context, rep *VerifyReport, infos []Info, names []string, seed int64, parallel int) error {
	// Property 1: parallelism independence. The same sweep at Parallel=1
	// and Parallel=8 must digest identically — per-trial seeding and
	// shard isolation may not leak into results.
	seq, err := suiteDigests(ctx, names, seed, 1, Options{})
	if err != nil {
		return err
	}
	par, err := suiteDigests(ctx, names, seed, 8, Options{})
	if err != nil {
		return err
	}
	for _, info := range infos {
		rep.Checked++
		appendMismatches(rep, "parallel", seed, golden.Diff(seq[info.Name], par[info.Name]))
	}

	// Property 2: trial-order independence. Running seed then seed+1 must
	// digest the same as seed+1 then seed — a kernel holding hidden global
	// state across runs fails here even when each single run looks fine.
	seeds := []int64{seed, seed + 1}
	forward := map[int64]map[string]golden.Digest{}
	backward := map[int64]map[string]golden.Digest{}
	for _, info := range infos {
		for _, s := range seeds { // ascending
			d, err := runDigest(ctx, info, Options{Size: SizeSmall, Seed: s}, nil)
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", info.Name, s, err)
			}
			if forward[s] == nil {
				forward[s] = map[string]golden.Digest{}
			}
			forward[s][info.Name] = d
		}
		for i := len(seeds) - 1; i >= 0; i-- { // descending
			s := seeds[i]
			d, err := runDigest(ctx, info, Options{Size: SizeSmall, Seed: s}, nil)
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", info.Name, s, err)
			}
			if backward[s] == nil {
				backward[s] = map[string]golden.Digest{}
			}
			backward[s][info.Name] = d
		}
		for _, s := range seeds {
			rep.Checked++
			appendMismatches(rep, "reorder", s, golden.Diff(forward[s][info.Name], backward[s][info.Name]))
		}
	}

	// Property 3: profiling independence. A run with step-latency
	// instrumentation on must digest identically to one on
	// profile.Disabled() — the "virtually zero effect" hook contract,
	// checked on results instead of timings.
	for _, info := range infos {
		o := Options{Size: SizeSmall, Seed: seed}
		instrumented, err := runDigest(ctx, info, o, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", info.Name, err)
		}
		bare, err := runDigest(ctx, info, o, profile.Disabled())
		if err != nil {
			return fmt.Errorf("%s: %w", info.Name, err)
		}
		rep.Checked++
		appendMismatches(rep, "profile", seed, golden.Diff(instrumented, bare))
	}

	// Property 4: worker-count independence. pfl and prm promise that every
	// Options.Workers >= 1 selects the same deterministic parallel algorithm
	// — pfl's per-particle RNG sub-streams and prm's slab partition are
	// fixed, the worker count only bounds goroutine concurrency — so
	// Workers=1 and Workers=8 must digest identically.
	var parallelized []string
	for _, info := range infos {
		if workerKernels[info.Name] {
			parallelized = append(parallelized, info.Name)
		}
	}
	if len(parallelized) > 0 {
		w1, err := suiteDigests(ctx, parallelized, seed, parallel, Options{Workers: 1})
		if err != nil {
			return err
		}
		w8, err := suiteDigests(ctx, parallelized, seed, parallel, Options{Workers: 8})
		if err != nil {
			return err
		}
		for _, name := range parallelized {
			rep.Checked++
			appendMismatches(rep, "workers", seed, golden.Diff(w1[name], w8[name]))
		}
	}
	return nil
}

// workerKernels are the kernels honoring Options.Workers — exactly the set
// the metamorphic "workers" property runs on. The goldens themselves stay
// pinned to the serial Workers=0 algorithms; this property is what covers
// the parallel paths.
var workerKernels = map[string]bool{"pfl": true, "prm": true}

// runDigest executes one kernel run and digests it. A nil profile runs with
// full instrumentation (step latency on, the heavier configuration); an
// explicit profile — profile.Disabled() in the metamorphic check — is used
// as given.
func runDigest(ctx context.Context, info Info, o Options, p *profile.Profile) (golden.Digest, error) {
	if p == nil {
		o.StepLatency = true
		p = newProfile(o)
	}
	r, err := info.runWith(ctx, o, p)
	if err != nil {
		return golden.Digest{}, err
	}
	d, err := digestResult(r)
	if err != nil {
		return golden.Digest{}, err
	}
	d.Seed = o.seed()
	return d, nil
}

func appendMismatches(rep *VerifyReport, check string, seed int64, diffs []golden.Mismatch) {
	for _, m := range diffs {
		rep.Mismatches = append(rep.Mismatches, VerifyMismatch{
			Kernel: m.Kernel,
			Seed:   seed,
			Check:  check,
			Field:  m.Field,
			Want:   m.Want,
			Got:    m.Got,
		})
	}
}
