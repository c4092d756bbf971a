package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/golden"
	"repro/internal/jobqueue"
	"repro/internal/resultstore"
)

// substrateCalls times the service substrates directly on the workload's
// own result documents: a WAL append under the daemon's default fsync
// policy (interval), a result-store put and get, the golden digest of a
// job, re-encoding a document, and a job-queue hand-off. dir is scratch
// space under the build directory, removed on return.
func substrateCalls(ctx context.Context, o *outcome, dir string, docs []jobDocument, raw [][]byte) error {
	if len(docs) == 0 {
		return fmt.Errorf("substrates: no clean result documents to replay")
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir) // scratch under the build directory

	wal, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncInterval})
	if err != nil {
		return err
	}
	noop := func([]byte) error { return nil }
	if _, err := wal.Recover(noop, noop); err != nil {
		wal.Close()
		return err
	}
	var appends, puts, gets, sums, encodes []float64
	store := resultstore.New(resultstore.Options{})
	for i, doc := range docs {
		t := time.Now()
		err := wal.Append(raw[i])
		appends = append(appends, us(time.Since(t)))
		if err != nil {
			wal.Close()
			return fmt.Errorf("wal append: %w", err)
		}

		key := fmt.Sprintf("request-%d", i)
		t = time.Now()
		err = store.Put(key, doc.Digest, raw[i])
		puts = append(puts, us(time.Since(t)))
		if err != nil {
			wal.Close()
			return fmt.Errorf("store put: %w", err)
		}
		t = time.Now()
		_, ok := store.Get(doc.Digest)
		gets = append(gets, us(time.Since(t)))
		if !ok {
			wal.Close()
			return fmt.Errorf("store get: %s missing after put", doc.Digest)
		}

		d := golden.Digest{Kernel: "rtrbenchd.job", Seed: 1}
		for _, k := range doc.Kernels {
			d.Fields = append(d.Fields, golden.Field{Name: k.Kernel, Value: doc.Digest})
		}
		golden.SortFields(d.Fields)
		t = time.Now()
		_, err = golden.Sum(d)
		sums = append(sums, us(time.Since(t)))
		if err != nil {
			wal.Close()
			return fmt.Errorf("golden sum: %w", err)
		}

		t = time.Now()
		_, err = json.Marshal(doc)
		encodes = append(encodes, us(time.Since(t)))
		if err != nil {
			wal.Close()
			return fmt.Errorf("encode: %w", err)
		}
	}
	if err := wal.Close(); err != nil {
		return fmt.Errorf("wal close: %w", err)
	}
	handoffs, err := handoffTimes(ctx, 200)
	if err != nil {
		return err
	}
	o.set("durable.append_us", median(appends))
	o.set("resultstore.put_us", median(puts))
	o.set("resultstore.get_us", median(gets))
	o.set("golden.sum_us", median(sums))
	o.set("rtrbenchd.encode_us", median(encodes))
	o.set("jobqueue.handoff_us", median(handoffs))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// handoffTimes measures n job-queue hand-offs, submit to executor receipt,
// one at a time with batches of one, so no batching wait is included.
func handoffTimes(ctx context.Context, n int) ([]float64, error) {
	qctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Sized to the number of sends.
	got := make(chan time.Duration, n)
	q := jobqueue.New(qctx, jobqueue.Options{BatchSize: 1}, func(_ context.Context, batch []*jobqueue.Job[time.Time, struct{}]) {
		now := time.Now()
		for _, j := range batch {
			got <- now.Sub(j.Req)
			j.Finish(struct{}{}, nil)
		}
	})
	for i := 0; i < n; i++ {
		j, err := q.Submit(time.Now())
		if err != nil {
			return nil, fmt.Errorf("jobqueue submit: %w", err)
		}
		if _, err := j.Wait(ctx); err != nil {
			return nil, fmt.Errorf("jobqueue wait: %w", err)
		}
	}
	if err := q.Drain(ctx); err != nil {
		return nil, fmt.Errorf("jobqueue drain: %w", err)
	}
	close(got)
	var out []float64
	for d := range got {
		out = append(out, us(d))
	}
	return out, nil
}

// ladder prints the share of one executed daemon job per layer, from
// medians in milliseconds: admission (POST round trip), queue wait,
// execution (start to done in the daemon) less the digest, WAL append and
// encoding costs measured directly, those three, and the result fetch. The
// kernels run inside execution, two at a time, so their summed ROI is
// printed beside it rather than as a share.
func ladder(o *outcome, admit, queue, kernels, execute, fetch float64) {
	digest := o.metrics["golden.sum_us"] * 4 / 1000 // three kernel sums and the job sum
	wal := o.metrics["durable.append_us"] / 1000
	encode := o.metrics["rtrbenchd.encode_us"] / 1000
	steps := []struct {
		name string
		v    float64
	}{
		{"admit", admit}, {"queue", queue}, {"execute", execute - digest - wal - encode},
		{"digest", digest}, {"WAL", wal}, {"encode", encode}, {"fetch", fetch},
	}
	var total float64
	for _, s := range steps {
		total += s.v
	}
	var b strings.Builder
	b.WriteString("ladder: share of one executed daemon job per layer (medians)")
	for _, s := range steps {
		fmt.Fprintf(&b, "\n  %-8s %10.3f ms %6.2f%%", s.name, s.v, 100*s.v/total)
	}
	fmt.Fprintf(&b, "\n  (kernel ROI summed over the job's kernels: %.3f ms)", kernels)
	o.note("%s", b.String())
}
