package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/durable"
)

func TestLookupPutRoundTrip(t *testing.T) {
	s := New(Options{})
	if _, _, ok := s.Lookup("req1"); ok {
		t.Fatal("empty store reported a hit")
	}
	s.Put("req1", "d1", []byte(`{"a":1}`))

	digest, doc, ok := s.Lookup("req1")
	if !ok || digest != "d1" || string(doc) != `{"a":1}` {
		t.Fatalf("Lookup = (%q, %q, %v)", digest, doc, ok)
	}
	if got, ok := s.Get("d1"); !ok || string(got) != `{"a":1}` {
		t.Fatalf("Get(d1) = (%q, %v)", got, ok)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get on absent digest reported ok")
	}

	hits, misses, entries := s.Stats()
	if hits != 1 || misses != 1 || entries != 1 {
		t.Fatalf("Stats = (%d, %d, %d), want (1, 1, 1)", hits, misses, entries)
	}
}

// TestSharedDigest: two request keys naming the same answer share one
// stored document, and the first document wins (content-addressed).
func TestSharedDigest(t *testing.T) {
	s := New(Options{})
	s.Put("req1", "d1", []byte("original"))
	s.Put("req2", "d1", []byte("impostor"))
	if _, doc, ok := s.Lookup("req2"); !ok || string(doc) != "original" {
		t.Fatalf("Lookup(req2) = (%q, %v), want the original document", doc, ok)
	}
	if _, _, entries := s.Stats(); entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
}

// TestEviction: the store stays bounded, evicts oldest first, and an
// evicted digest takes its request keys with it (no dangling index).
func TestEviction(t *testing.T) {
	s := New(Options{MaxEntries: 2})
	s.Put("r1", "d1", []byte("one"))
	s.Put("r2", "d2", []byte("two"))
	s.Put("r3", "d3", []byte("three"))

	if _, ok := s.Get("d1"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, _, ok := s.Lookup("r1"); ok {
		t.Fatal("request key for an evicted digest still resolves")
	}
	for i, want := range []string{"two", "three"} {
		key, digest := fmt.Sprintf("r%d", i+2), fmt.Sprintf("d%d", i+2)
		if _, doc, ok := s.Lookup(key); !ok || string(doc) != want {
			t.Errorf("Lookup(%s) = (%q, %v), want %q", key, doc, ok, want)
		}
		if _, ok := s.Get(digest); !ok {
			t.Errorf("Get(%s) missing", digest)
		}
	}
}

// TestCallerMutationIsolation: mutating a slice handed in or out must not
// corrupt the stored document.
func TestCallerMutationIsolation(t *testing.T) {
	s := New(Options{})
	in := []byte("stable")
	s.Put("r", "d", in)
	in[0] = 'X'
	out, _ := s.Get("d")
	out[0] = 'Y'
	if got, _ := s.Get("d"); string(got) != "stable" {
		t.Fatalf("stored doc mutated to %q", got)
	}
}

// TestConcurrentAccess is the race-detector workout for the store.
func TestConcurrentAccess(t *testing.T) {
	s := New(Options{MaxEntries: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("r%d", (g+i)%16)
				digest := fmt.Sprintf("d%d", (g+i)%16)
				s.Put(key, digest, []byte(key))
				s.Lookup(key)
				s.Get(digest)
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
	if _, _, entries := s.Stats(); entries > 8 {
		t.Fatalf("entries = %d, want <= MaxEntries (8)", entries)
	}
}

// TestConcurrentEvictionChurnInvariants hammers the store with parallel
// Put/Lookup over a key space far larger than the bound, so eviction churns
// constantly, and asserts the invariants that must survive any
// interleaving: the entry count never exceeds the bound, the hit/miss
// accounting exactly matches the Lookup outcomes the callers observed, a
// hit's document always agrees with its digest (the stored doc is the
// digest's doc, never a torn or foreign one), and a request key never
// dangles (checkInvariants, under the store's lock). A Lookup hit followed
// by a Get of its digest is no such invariant: another goroutine's Put may
// evict the digest in between. Failures do not leave the loop, so every
// lookup is still counted.
func TestConcurrentEvictionChurnInvariants(t *testing.T) {
	const (
		workers    = 8
		iters      = 300
		keySpace   = 64 // 8x the bound: every Put beyond 8 live digests evicts
		maxEntries = 8
	)
	s := New(Options{MaxEntries: maxEntries})
	var hits, misses atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := (g*31 + i*7) % keySpace
				key, digest := fmt.Sprintf("r%d", n), fmt.Sprintf("d%d", n)
				doc := []byte(fmt.Sprintf("doc-for-%s", digest))
				s.Put(key, digest, doc)
				checkInvariants(t, s)
				// The bound holds at every instant, not just at the end.
				if _, _, entries := s.Stats(); entries > maxEntries {
					t.Errorf("entries = %d > bound %d mid-churn", entries, maxEntries)
				}
				d, got, ok := s.Lookup(key)
				if ok {
					hits.Add(1)
					if want := fmt.Sprintf("doc-for-%s", d); string(got) != want {
						t.Errorf("Lookup(%s) doc = %q, want %q (digest %s)", key, got, want, d)
					}
				} else {
					misses.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	checkInvariants(t, s)

	gotHits, gotMisses, entries := s.Stats()
	if entries > maxEntries {
		t.Errorf("final entries = %d, want <= %d", entries, maxEntries)
	}
	if gotHits != hits.Load() || gotMisses != misses.Load() {
		t.Errorf("Stats hit/miss = %d/%d, callers observed %d/%d",
			gotHits, gotMisses, hits.Load(), misses.Load())
	}
	if total := gotHits + gotMisses; total != int64(workers*iters) {
		t.Errorf("hit+miss = %d, want %d lookups", total, workers*iters)
	}
}

// checkInvariants checks the store's index atomically, under its lock:
// every request key resolves to a stored document, and the eviction order
// lists exactly as many digests as are stored, within the bound.
func checkInvariants(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for req, d := range s.byReq {
		if _, ok := s.byDigest[d]; !ok {
			t.Errorf("request key %s maps to evicted digest %s: dangling index", req, d)
		}
	}
	if len(s.order) != len(s.byDigest) || len(s.byDigest) > s.max {
		t.Errorf("len(order) = %d, len(byDigest) = %d, bound %d", len(s.order), len(s.byDigest), s.max)
	}
}

// openDurable builds a durable store over dir, failing the test on error.
func openDurable(t *testing.T, dir string, opts Options) (*Store, durable.RecoveryInfo) {
	t.Helper()
	log, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	opts.Log = log
	s, info, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, info
}

// TestDurableRoundTrip: entries put before an abrupt restart (the old log
// is abandoned, never closed) are served after recovery — digests, docs,
// and request keys all intact.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, info := openDurable(t, dir, Options{MaxEntries: 8})
	if info.Records != 0 {
		t.Fatalf("fresh dir replayed %d records", info.Records)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("r%d", i), fmt.Sprintf("d%d", i), []byte(fmt.Sprintf("doc%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// "Crash" and recover.
	s2, info := openDurable(t, dir, Options{MaxEntries: 8})
	if info.Records != 3 {
		t.Fatalf("replayed %d records, want 3", info.Records)
	}
	for i := 0; i < 3; i++ {
		d, doc, ok := s2.Lookup(fmt.Sprintf("r%d", i))
		if !ok || d != fmt.Sprintf("d%d", i) || string(doc) != fmt.Sprintf("doc%d", i) {
			t.Fatalf("recovered Lookup(r%d) = (%q, %q, %v)", i, d, doc, ok)
		}
	}
	// Recovery replays are inserts, not lookups: stats start clean except
	// for the lookups above.
	if hits, _, entries := s2.Stats(); hits != 3 || entries != 3 {
		t.Fatalf("recovered stats = hits %d entries %d", hits, entries)
	}
}

// TestDurableEvictionBoundOnReplay: replay re-applies history through the
// bounded insert path, so a recovered store still respects MaxEntries.
func TestDurableEvictionBoundOnReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir, Options{MaxEntries: 2})
	for i := 0; i < 5; i++ {
		s.Put(fmt.Sprintf("r%d", i), fmt.Sprintf("d%d", i), []byte("x"))
	}
	s2, _ := openDurable(t, dir, Options{MaxEntries: 2})
	if _, _, entries := s2.Stats(); entries != 2 {
		t.Fatalf("recovered entries = %d, want 2", entries)
	}
	if _, _, ok := s2.Lookup("r4"); !ok {
		t.Fatal("newest entry lost on replay")
	}
	if _, _, ok := s2.Lookup("r0"); ok {
		t.Fatal("evicted entry resurrected on replay")
	}
}

// TestDurableSnapshotCompaction: crossing SnapshotEvery compacts the log;
// recovery then comes from the snapshot plus the record tail, and the
// directory does not accumulate history.
func TestDurableSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir, Options{MaxEntries: 16, SnapshotEvery: 4})
	for i := 0; i < 10; i++ { // two snapshots at puts 4 and 8, tail of 2
		s.Put(fmt.Sprintf("r%d", i), fmt.Sprintf("d%d", i), []byte(fmt.Sprintf("doc%d", i)))
	}
	s2, info := openDurable(t, dir, Options{MaxEntries: 16, SnapshotEvery: 4})
	if info.SnapshotSeq == 0 {
		t.Fatal("recovery used no snapshot")
	}
	if info.Records != 2 {
		t.Fatalf("replayed %d tail records, want 2", info.Records)
	}
	for i := 0; i < 10; i++ {
		if _, _, ok := s2.Lookup(fmt.Sprintf("r%d", i)); !ok {
			t.Fatalf("entry r%d lost across snapshot recovery", i)
		}
	}
}

// TestDurableTornTail: a torn final WAL record (cut mid-byte) loses only
// that record; everything before it recovers, and the store starts.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openDurable(t, dir, Options{MaxEntries: 8})
	s.Put("r0", "d0", []byte("keep"))
	s.Put("r1", "d1", []byte("torn"))

	// Tear the last record.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") {
			p := filepath.Join(dir, e.Name())
			st, _ := os.Stat(p)
			if st.Size() > 4 {
				if err := os.Truncate(p, st.Size()-4); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	s2, info := openDurable(t, dir, Options{MaxEntries: 8})
	if !info.Truncated {
		t.Fatalf("info = %+v, want truncation", info)
	}
	if _, _, ok := s2.Lookup("r0"); !ok {
		t.Fatal("intact entry r0 lost to torn-tail recovery")
	}
	if _, _, ok := s2.Lookup("r1"); ok {
		t.Fatal("torn entry r1 survived (checksum should have failed)")
	}
}
