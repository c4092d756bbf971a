package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/rtrbench"
)

// The tests run from perfbench/, one level below the repository root.
var testGoldenDir = filepath.Join("..", goldenDir)

func TestGatePassesCheckedInGoldens(t *testing.T) {
	if err := verifyGoldens(context.Background(), testGoldenDir); err != nil {
		t.Fatal(err)
	}
}

func TestGateFailsOnPerturbedDigest(t *testing.T) {
	dir := t.TempDir()
	entries, err := os.ReadDir(testGoldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(testGoldenDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == "pfl-seed42.golden" {
			// Flip the raycast count by one: a single changed answer.
			perturbed := bytes.Replace(b, []byte("field raycasts "), []byte("field raycasts 1"), 1)
			if bytes.Equal(perturbed, b) {
				t.Fatalf("%s has no raycasts field to perturb", e.Name())
			}
			b = perturbed
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err = verifyGoldens(context.Background(), dir)
	if err == nil || !strings.Contains(err.Error(), "pfl") || !strings.Contains(err.Error(), "raycasts") {
		t.Fatalf("gate over a perturbed golden: err = %v, want a pfl raycasts mismatch", err)
	}
}

func TestDigestBookRejectsADifferentAnswer(t *testing.T) {
	b := digestBook{}
	for _, dg := range []string{"aa", "aa"} {
		if err := b.check("rrt seed=3", dg); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.check("rrt seed=4", "bb"); err != nil {
		t.Fatal(err)
	}
	if err := b.check("rrt seed=3", "bb"); err == nil {
		t.Fatal("a repeat with another digest passed the book")
	}
}

// At seed 8 rrt finds no path. The sweep path must count that call as a
// failed operation, and must hold a repeat of it to the same failure.
func TestSeed8FailureIsCounted(t *testing.T) {
	o := &outcome{metrics: map[string]float64{}}
	book := digestBook{}
	for i := 0; i < 2; i++ {
		sw, err := runSweep(context.Background(), &rtrbench.Engine{}, []string{"rrt"}, rtrbench.SizeSmall, 8, 0, nil, "sweep")
		if err != nil {
			t.Fatal(err)
		}
		if err := account(o, book, sw, rtrbench.SizeSmall, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	if o.attempted != 2 || o.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 2 and 2", o.attempted, o.failed)
	}
	if f := errorFrac(o.failed, o.attempted); !(f > 0) {
		t.Fatalf("error_frac = %v, want > 0", f)
	}
}

// A daemon job whose document carries a failures list is a failed
// operation, and its repeat must return the first execution's digest.
func TestDaemonJobWithFailuresIsCounted(t *testing.T) {
	doc, err := json.Marshal(jobDocument{
		Schema:   "rtrbenchd.job/v1",
		Digest:   "d1",
		Failures: []docFailure{{Kernel: "rrt", Error: "rrt: no path within sample budget"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	jc := jobChecker{book: digestBook{}}
	body := []byte(`{"kernels":["pfl","rrt","mpc"],"seed":8}`)
	failed, _, err := jc.check(body, jobView{ID: "j1", State: "done", Digest: "d1", Result: doc})
	if err != nil || !failed {
		t.Fatalf("failed = %v, err = %v; want a counted failure", failed, err)
	}
	clean, err := json.Marshal(jobDocument{Schema: "rtrbenchd.job/v1", Digest: "d2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := jc.check(body, jobView{ID: "j2", State: "done", Digest: "d2", Result: clean}); err == nil {
		t.Fatal("a repeated request with a different digest passed")
	}
	if failed, _, err := jc.check([]byte(`{}`), jobView{ID: "j3", State: "failed"}); err != nil || !failed {
		t.Fatalf("job-level failure: failed = %v, err = %v", failed, err)
	}
}

func TestPlanRequests(t *testing.T) {
	// 280 requests hold 140 new jobs, within the rotation's 252.
	const n, lag = 280, 8
	prime, reqs := planRequests(7, n, lag)
	prime2, reqs2 := planRequests(7, n, lag)
	_, other := planRequests(8, n, lag)
	if len(prime) != primedJobs || len(reqs) != n {
		t.Fatalf("plan sizes %d/%d", len(prime), len(reqs))
	}
	for i := range reqs {
		if !bytes.Equal(reqs[i], reqs2[i]) {
			t.Fatalf("request %d differs between two plans of one seed", i)
		}
	}
	for i := range prime {
		if !bytes.Equal(prime[i], prime2[i]) {
			t.Fatalf("primed job %d differs between two plans of one seed", i)
		}
	}
	made := map[string]int{}
	for _, p := range prime {
		made[string(p)] = -n - lag
	}
	sameRepeats := true
	for i, r := range reqs {
		if i%2 == 1 {
			at, ok := made[string(r)]
			if !ok {
				t.Fatalf("request %d repeats a request never made", i)
			}
			if at > i-lag {
				t.Fatalf("request %d repeats request %d, fewer than %d earlier", i, at, lag)
			}
			sameRepeats = sameRepeats && bytes.Equal(r, other[i])
			continue
		}
		if _, ok := made[string(r)]; ok {
			t.Fatalf("request %d is new but equals an earlier one", i)
		}
		if !bytes.Equal(r, other[i]) {
			t.Fatalf("new job %d differs between seeds", i)
		}
		made[string(r)] = i
		var jr jobRequest
		if err := json.Unmarshal(r, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.Seed == 8 || jr.Seed == 12 {
			t.Fatalf("request %d takes no-path seed %d", i, jr.Seed)
		}
	}
	if sameRepeats {
		t.Error("two seeds chose the same repeats")
	}
}

func TestCheckLedger(t *testing.T) {
	const p = 5 * time.Millisecond
	if err := checkLedger(700, 300, p, 5*time.Second, time.Millisecond); err != nil {
		t.Errorf("balanced ledger: %v", err)
	}
	if err := checkLedger(700, 312, p, 5*time.Second, 60*time.Millisecond); err != nil {
		t.Errorf("tail sheds within the last tick's latency: %v", err)
	}
	if err := checkLedger(700, 299, p, 5*time.Second, time.Millisecond); err == nil {
		t.Error("a lost release passed the ledger")
	}
	if err := checkLedger(700, 320, p, 5*time.Second, 60*time.Millisecond); err == nil {
		t.Error("releases beyond the window and the last tick passed the ledger")
	}
}
