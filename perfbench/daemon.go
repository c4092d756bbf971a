package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// The daemon-mixed job menu: every job holds one perception, one planning
// and one control kernel, each stage rotating through its own list, so the
// 36 kernel triples recur with every seed of the rotation.
var (
	perceptionMenu = []string{"pfl", "ekfslam", "srec"}
	planningMenu   = []string{"pp2d", "pp3d", "movtar", "prm", "rrt", "rrtstar", "rrtpp", "sym-blkw", "sym-fext"}
	controlMenu    = []string{"dmp", "mpc", "cem", "bo"}
)

// jobSeeds is the seed rotation of daemon-mixed jobs: 1 to 16 without 8
// and 12, at which rrt, rrtstar and rrtpp find no path at SizeSmall. A job
// with a failure is never cached, so its repeats would execute again, and
// the executed work would change from seed to seed.
var jobSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 15, 16}

// repeatAge is how long before a repeat the request it repeats was due, at
// least, so that its answer is in the cache unless the daemon fell behind.
const repeatAge = 2 * time.Second

// primedJobs are executed during set-up, so that the first repeats of the
// measured phase can already be answered from the cache.
const primedJobs = 3

// jobRequest is the POST /v1/jobs body the workload sends.
type jobRequest struct {
	Kernels         []string `json:"kernels"`
	Size            string   `json:"size"`
	Seed            int64    `json:"seed"`
	Trials          int      `json:"trials"`
	ContinueOnError bool     `json:"continue_on_error"`
}

// jobView is the part of rtrbenchd's job view the workload reads.
type jobView struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Digest    string          `json:"digest"`
	BatchSize int             `json:"batch_size"`
	Enqueued  string          `json:"enqueued_at"`
	Started   string          `json:"started_at"`
	Done      string          `json:"done_at"`
	Result    json.RawMessage `json:"result"`
}

// jobDocument mirrors rtrbenchd's stored result document
// (schema rtrbenchd.job/v1), so that re-encoding it costs what the
// daemon's encoding costs.
type jobDocument struct {
	Schema         string             `json:"schema"`
	Digest         string             `json:"digest"`
	ElapsedSeconds float64            `json:"elapsed_seconds"`
	Kernels        []obs.KernelReport `json:"kernels"`
	Failures       []docFailure       `json:"failures,omitempty"`
}

type docFailure struct {
	Kernel string `json:"kernel"`
	Trial  int    `json:"trial"`
	Fault  string `json:"fault,omitempty"`
	Error  string `json:"error"`
}

// menuJob is the canonical request body of the k-th job of the rotation at
// the given seed; equal bodies are exact repeats.
func menuJob(k int, seed int64) []byte {
	req := jobRequest{
		Kernels:         []string{perceptionMenu[k%len(perceptionMenu)], planningMenu[k%len(planningMenu)], controlMenu[k%len(controlMenu)]},
		Size:            "small",
		Seed:            seed,
		Trials:          1,
		ContinueOnError: true,
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct of strings and ints always marshals
	}
	return b
}

// planRequests derives the whole schedule from the seed: the jobs primed
// during set-up, then n requests alternating between a new job of the
// rotation and an exact repeat, chosen by the seed, of a primed request or
// of a measured one made at least lag requests earlier. The new jobs are the
// same for every seed, so every seed executes the same work and the seed
// varies only the cache hits. Kernel triples cycle every 36 jobs and job
// seeds every 14, so 252 consecutive new jobs are distinct. The primed jobs
// take seeds past the rotation's, so that no new job equals one of them.
func planRequests(seed int64, n, lag int) (prime, reqs [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < primedJobs; k++ {
		prime = append(prime, menuJob(k, jobSeeds[len(jobSeeds)-1]+1+int64(k)))
	}
	// pool holds every request a repeat may target, in the order made;
	// made[j] is the index of pool[j] among the measured requests.
	pool := append([][]byte(nil), prime...)
	made := make([]int, primedJobs)
	for k := range made {
		made[k] = math.MinInt // primed before any measured request
	}
	next := primedJobs
	for i := 0; i < n; i++ {
		if i%2 == 1 {
			old := 0
			for old < len(pool) && made[old] <= i-lag {
				old++
			}
			reqs = append(reqs, pool[rng.Intn(old)])
			continue
		}
		p := menuJob(next, jobSeeds[next%len(jobSeeds)])
		next++
		pool = append(pool, p)
		made = append(made, i)
		reqs = append(reqs, p)
	}
	return prime, reqs
}

// sample is one measured request, timed from its due time.
type sample struct {
	body                      []byte
	due, sent, admitted, done time.Time
	status                    int
	view                      jobView
	fetch                     time.Duration
}

// newClient returns an HTTP client that holds at most one connection, so
// the two clients of the load generator never open more than two.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func doJSON(ctx context.Context, c *http.Client, method, url string, body []byte, v interface{}) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if v != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, v); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// await long-polls a job until it is terminal.
func await(ctx context.Context, c *http.Client, base, id string) (jobView, error) {
	for {
		var v jobView
		status, err := doJSON(ctx, c, http.MethodGet, base+"/v1/jobs/"+id+"?wait=30s", nil, &v)
		if err != nil {
			return v, err
		}
		if status != http.StatusOK {
			return v, fmt.Errorf("GET /v1/jobs/%s: status %d", id, status)
		}
		if v.State == "done" || v.State == "failed" {
			return v, nil
		}
	}
}

// daemon is one rtrbenchd child process with its own data directory.
type daemon struct {
	cmd     *exec.Cmd
	dir     string
	base    string
	logs    bytes.Buffer
	exited  chan struct{}
	waitErr error
}

// startDaemon starts rtrbenchd on a free port with its WAL under a fresh
// dir/data, every other flag at its default, and waits until /readyz
// answers 200.
func startDaemon(ctx context.Context, bin, dir string, c *http.Client) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	d := &daemon{dir: dir, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addrfile", addrFile, "-data", filepath.Join(dir, "data"))
	d.cmd.Stdout, d.cmd.Stderr = &d.logs, &d.logs
	// Should the benchmark itself be killed, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rtrbenchd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			d.close()
			return nil, fmt.Errorf("rtrbenchd exited while starting: %v\n%s", d.waitErr, d.logs.String())
		case <-ctx.Done():
			d.close()
			return nil, ctx.Err()
		default:
		}
		if d.base == "" {
			// The address file is complete once its newline is written.
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if status, err := doJSON(ctx, c, http.MethodGet, d.base+"/readyz", nil, nil); err == nil && status == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("rtrbenchd not ready within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and requires a clean exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal rtrbenchd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.close()
		return fmt.Errorf("rtrbenchd did not drain within 60s")
	}
	if d.waitErr != nil {
		return fmt.Errorf("rtrbenchd exit: %v\n%s", d.waitErr, d.logs.String())
	}
	return nil
}

// close kills the daemon if it still runs, waits for it, and removes its
// directory. It is safe after stop and safe to call twice.
func (d *daemon) close() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Kill() // already exiting if this fails
		<-d.exited
	}
	_ = os.RemoveAll(d.dir) // scratch under the build directory
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// jobChecker holds the correctness checks of daemon-mixed: a request
// repeated exactly must return the digest of its first execution, and a
// finished job's document must carry the digest its view reports.
type jobChecker struct{ book digestBook }

// check validates one terminal job view for the request body and reports
// whether the job failed: a job-level error or a failures list.
func (jc jobChecker) check(body []byte, v jobView) (failed bool, doc jobDocument, err error) {
	if v.State == "failed" {
		return true, doc, nil
	}
	if v.State != "done" {
		return false, doc, fmt.Errorf("job %s: state %q is not terminal", v.ID, v.State)
	}
	if err := json.Unmarshal(v.Result, &doc); err != nil {
		return false, doc, fmt.Errorf("job %s: result document: %w", v.ID, err)
	}
	if v.Digest == "" || doc.Digest != v.Digest {
		return false, doc, fmt.Errorf("job %s: document digest %q, view digest %q", v.ID, doc.Digest, v.Digest)
	}
	if err := jc.book.check("job "+string(body), v.Digest); err != nil {
		return false, doc, err
	}
	return len(doc.Failures) > 0, doc, nil
}

// daemonMixed drives a real rtrbenchd with an open-loop generator: request
// i is due at i/rate seconds and is sent then, whatever the replies so far,
// over at most two connections (one submits, one long-polls).
func daemonMixed(ctx context.Context, cfg *config, o *outcome) error {
	n := int(cfg.rate * cfg.seconds.Seconds())
	prime, reqs := planRequests(cfg.seed, n, int(math.Ceil(cfg.rate*repeatAge.Seconds())))
	jc := jobChecker{book: digestBook{}}
	sub, poll := newClient(), newClient()
	defer sub.CloseIdleConnections()
	defer poll.CloseIdleConnections()

	// Set-up, three times: start a daemon on a fresh data directory, wait
	// for /readyz, and prime its cache. The third daemon is measured.
	var setups []float64
	var d *daemon
	for i := 0; i < 3; i++ {
		t := time.Now()
		nd, err := startDaemon(ctx, cfg.daemonBin, filepath.Join(cfg.outDir, fmt.Sprintf("rtrbenchd-%d-%d", os.Getpid(), i)), sub)
		if err != nil {
			return err
		}
		defer nd.close()
		for _, p := range prime {
			var v jobView
			status, err := doJSON(ctx, sub, http.MethodPost, nd.base+"/v1/jobs", p, &v)
			if err == nil && status != http.StatusAccepted {
				err = fmt.Errorf("priming POST: status %d", status)
			}
			if err == nil {
				v, err = await(ctx, sub, nd.base, v.ID)
			}
			if err == nil {
				_, _, err = jc.check(p, v)
			}
			if err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t).Seconds())
		cfg.tr.add(0, "set-up", "setup", 1, t, time.Now(), map[string]interface{}{"daemon": i})
		if i < 2 {
			if err := nd.stop(); err != nil {
				return err
			}
			continue
		}
		d = nd
	}
	o.set("setup_s", median(setups))

	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	samples := make([]sample, len(reqs))
	// Sized to the number of sends, so the submitter never waits on the
	// poller.
	pending := make(chan int, len(reqs))
	t0 := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	var subErr, pollErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(pending)
		for i, body := range reqs {
			s := &samples[i]
			s.body = body
			s.due = t0.Add(time.Duration(float64(i) * float64(time.Second) / cfg.rate))
			if wait := time.Until(s.due); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					subErr = ctx.Err()
					return
				}
			}
			s.sent = time.Now()
			s.status, subErr = doJSON(ctx, sub, http.MethodPost, d.base+"/v1/jobs", body, &s.view)
			s.admitted = time.Now()
			if subErr != nil {
				return
			}
			switch s.status {
			case http.StatusOK:
				s.done = s.admitted
			case http.StatusAccepted:
				pending <- i
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				s.done = s.admitted
			default:
				subErr = fmt.Errorf("POST /v1/jobs: unexpected status %d", s.status)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := range pending {
			s := &samples[i]
			if pollErr != nil {
				continue // keep draining so the submitter's sends complete
			}
			s.view, pollErr = await(ctx, poll, d.base, s.view.ID)
			s.done = time.Now()
			if pollErr == nil && cfg.tr != nil && s.view.Digest != "" {
				t := time.Now()
				var status int
				status, pollErr = doJSON(ctx, poll, http.MethodGet, d.base+"/v1/results/"+s.view.Digest, nil, nil)
				s.fetch = time.Since(t)
				if pollErr == nil && status != http.StatusOK && status != http.StatusNotFound {
					pollErr = fmt.Errorf("GET /v1/results: status %d", status)
				}
			}
		}
	}()
	wg.Wait()
	if subErr != nil {
		return fmt.Errorf("load generator: %w", subErr)
	}
	if pollErr != nil {
		return fmt.Errorf("poller: %w", pollErr)
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	walBytes, err := dirBytes(filepath.Join(d.dir, "data"))
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}

	var (
		execMS, cached, admit, late, queue, run, fetch, batch, kernelsMS []float64
		resultKB                                                         []float64
		docs                                                             []jobDocument
		rawDocs                                                          [][]byte
		good, rejected, accepted, puts                                   int64
	)
	puts = primedJobs
	for i := range samples {
		s := &samples[i]
		o.attempted++
		lat := s.done.Sub(s.due)
		admit = append(admit, ms(s.admitted.Sub(s.sent)))
		late = append(late, ms(s.sent.Sub(s.due)))
		if s.status != http.StatusOK && s.status != http.StatusAccepted {
			rejected++
			o.failed++
			continue
		}
		failed, doc, err := jc.check(s.body, s.view)
		if err != nil {
			return err
		}
		if failed {
			o.failed++
		} else if lat <= cfg.goodputLimit {
			good++
		}
		resultKB = append(resultKB, float64(len(s.view.Result))/1024)
		if s.status == http.StatusOK {
			cached = append(cached, ms(lat))
			cfg.tr.add(0, "job "+s.view.ID, "job", 10+i, s.due, s.done, map[string]interface{}{"cached": true, "request": i})
			continue
		}
		accepted++
		execMS = append(execMS, ms(lat))
		batch = append(batch, float64(s.view.BatchSize))
		if !failed && s.view.State == "done" {
			puts++
			docs = append(docs, doc)
			rawDocs = append(rawDocs, s.view.Result)
		}
		var roi float64
		for _, k := range doc.Kernels {
			roi += k.ROISeconds * 1000
		}
		kernelsMS = append(kernelsMS, roi)
		enq, e1 := time.Parse(time.RFC3339Nano, s.view.Enqueued)
		st, e2 := time.Parse(time.RFC3339Nano, s.view.Started)
		fin, e3 := time.Parse(time.RFC3339Nano, s.view.Done)
		if e1 != nil || e2 != nil || e3 != nil {
			return fmt.Errorf("job %s: bad timestamps %q %q %q", s.view.ID, s.view.Enqueued, s.view.Started, s.view.Done)
		}
		queue = append(queue, ms(st.Sub(enq)))
		run = append(run, ms(fin.Sub(st)))
		if s.fetch > 0 {
			fetch = append(fetch, ms(s.fetch))
		}
		if cfg.tr != nil {
			id := cfg.tr.add(0, "job "+s.view.ID, "job", 10+i, s.due, s.done, map[string]interface{}{"request": i, "batch_size": s.view.BatchSize})
			cfg.tr.add(id, "submit", "admit", 10+i, s.sent, s.admitted, nil)
			cfg.tr.add(id, "queue", "queue", 10+i, enq, st, nil)
			cfg.tr.add(id, "execute", "execute", 10+i, st, fin, map[string]interface{}{"kernels_ms": roi})
			if s.fetch > 0 {
				cfg.tr.add(id, "fetch", "fetch", 10+i, s.done, s.done.Add(s.fetch), nil)
			}
		}
	}
	if len(execMS) == 0 {
		return fmt.Errorf("no job executed: the workload measured nothing")
	}
	window := float64(n) / cfg.rate

	o.set("latency_ms", midmean(execMS))
	o.set("cpu_ms_per_op", ms(cpu1-cpu0)/float64(n))
	o.set("peak_rss_mb", rss)
	o.set("exec_job_p50_ms", percentile(execMS, 0.5))
	o.set("exec_job_p90_ms", percentile(execMS, 0.9))
	if len(cached) > 0 {
		o.set("cached_job_p50_ms", percentile(cached, 0.5))
		o.set("cached_job_p90_ms", percentile(cached, 0.9))
	}
	o.set("goodput_jobs_per_s", float64(good)/window)
	o.set("error_frac", errorFrac(o.failed, o.attempted))
	o.set("rtrbenchd.admit_ms.p50", percentile(admit, 0.5))
	o.set("rtrbenchd.admit_ms.p90", percentile(admit, 0.9))
	o.set("jobqueue.wait_ms.p50", percentile(queue, 0.5))
	o.set("jobqueue.wait_ms.p90", percentile(queue, 0.9))
	o.set("jobqueue.batch_size_mean", mean(batch))
	o.set("rtrbenchd.exec_ms.p50", percentile(run, 0.5))
	o.set("rtrbenchd.exec_ms.p90", percentile(run, 0.9))
	o.set("rtrbenchd.result_kb", mean(resultKB))
	o.set("resultstore.hit_frac", float64(len(cached))/float64(len(cached)+int(accepted)))
	o.set("resultstore.lookups", float64(len(cached))+float64(accepted))
	o.set("rtrbenchd.rejected", float64(rejected))
	o.set("durable.wal_bytes_per_result", float64(walBytes)/float64(puts))
	o.set("loadgen.late_ms.p90", percentile(late, 0.9))
	if len(fetch) > 0 {
		o.set("rtrbenchd.fetch_ms.p50", percentile(fetch, 0.5))
	}
	o.note("open loop at %.3g jobs/s for %.3gs: %d requests, %d executed, %d cached, %d rejected, %d failed; goodput limit %v",
		cfg.rate, window, n, accepted, len(cached), rejected, o.failed, cfg.goodputLimit)
	o.note("percentile samples: %d executed jobs, %d cached jobs", len(execMS), len(cached))

	if cfg.tr != nil {
		if err := substrateCalls(ctx, o, filepath.Join(cfg.outDir, fmt.Sprintf("substrates-%d", os.Getpid())), docs, rawDocs); err != nil {
			return err
		}
		ladder(o, median(admit), median(queue), median(kernelsMS), median(run), median(fetch))
	}
	return nil
}
