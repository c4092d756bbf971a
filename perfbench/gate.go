package main

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/rtrbench"
)

// goldenDir holds the checked-in golden digests, relative to the checkout
// root the benchmark runs from.
const goldenDir = "rtrbench/testdata/golden"

// verifyGoldens is the correctness gate every run passes before it times
// anything: all 16 kernels at SizeSmall, seeds 1 and 42, must reproduce the
// checked-in golden digests.
func verifyGoldens(ctx context.Context, dir string) error {
	rep, err := rtrbench.Verify(ctx, rtrbench.VerifyOptions{Dir: dir, Seeds: []int64{1, 42}})
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if rep.OK() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d mismatches, %d goldens missing", len(rep.Mismatches), len(rep.Missing))
	for _, m := range rep.Mismatches {
		fmt.Fprintf(&b, "\n  %s", m)
	}
	for _, m := range rep.Missing {
		fmt.Fprintf(&b, "\n  missing %s", m)
	}
	return errors.New(b.String())
}

// digestBook holds the first answer seen for each run identity within one
// benchmark run, and rejects a later run of the same identity that computed
// a different one. Kernels are deterministic functions of their inputs, so
// any disagreement is a correctness failure, not noise.
type digestBook map[string]string

func (b digestBook) check(identity, digest string) error {
	first, ok := b[identity]
	if !ok {
		b[identity] = digest
		return nil
	}
	if first != digest {
		return fmt.Errorf("%s: digest %s differs from its first run's %s", identity, digest, first)
	}
	return nil
}

// kernelDigest is the identity and answer of one kernel call: the golden
// DigestSum for a completed run, or the error text for a failed one (a
// failure must repeat exactly too).
func kernelDigest(k rtrbench.KernelResult, size rtrbench.Size, seed int64, workers int) (identity, digest string, err error) {
	identity = fmt.Sprintf("%s size=%d seed=%d workers=%d", k.Info.Name, size, seed, workersClass(workers))
	if k.Err != nil {
		return identity, "error: " + k.Err.Error(), nil
	}
	digest, err = rtrbench.DigestSum(k.Result, seed)
	return identity, digest, err
}

// workersClass folds worker counts that must agree: every Workers >= 1
// selects the same deterministic parallel algorithm.
func workersClass(w int) int {
	if w >= 1 {
		return 1
	}
	return 0
}
