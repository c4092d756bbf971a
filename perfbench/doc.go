// Command perfbench is the repository's end-to-end benchmark: one command
// that runs a named workload against the whole stack, checks that every
// answer is correct, and prints its metrics by name with their units.
//
// Run it from the repository root; perfbench/run.sh builds it and the
// rtrbenchd daemon from the checkout first:
//
//	bash perfbench/run.sh --workload table1-sweep --seed 1 --seconds 20 --trace 0
//
// BENCHMARK.json at the repository root lists the workloads, the metrics and
// the command line, whose flags fix the workload constants (the stream
// period, the daemon's offered rate and the goodput latency limit).
//
// # Workloads
//
//   - table1-sweep: one closed-loop caller sweeps all 16 kernels at
//     SizeDefault, Workers=0, each kernel through its own Engine.Run call.
//   - workers-sweep: the same loop over the six kernels with a parallel path
//     (pfl, ekfslam, prm, rrt, rrtstar, rrtpp) at Workers=2.
//   - stream-pfl: pfl at SizeSmall as a periodic task through
//     rtrbench.Streamer, skip-next overload policy.
//   - daemon-mixed: a real rtrbenchd process on a fresh WAL directory, driven
//     open loop at a fixed rate over two connections; jobs hold one
//     perception, one planning and one control kernel at SizeSmall, and
//     every other request repeats an earlier one exactly.
//
// The sweeps run Table I's representative inputs (every kernel at seed 1)
// whatever the seed argument. The stream draws its inputs from it; the
// daemon executes the same new jobs for every seed, and the seed chooses
// which earlier request each repeat repeats. A run measures a fixed amount
// of work sized to take about --seconds on a 2-core machine, so a faster
// commit measures the same work.
//
// # Metrics
//
// An untraced run (--trace 0) measures the end-to-end metrics, defined on
// every workload:
//
//   - setup_s: median of three set-ups (warm-up passes, or daemon start to
//     /readyz plus cache priming);
//   - latency_ms: the latency of the workload's unit of work: the median
//     sweep wall time, the exact mean stream tick latency (release to
//     completion), or the midmean (mean of the middle half) of executed
//     daemon jobs from their due time to their result;
//   - cpu_ms_per_op: CPU time of the process under test per sweep (median),
//     per tick, or per daemon request;
//   - peak_rss_mb: the resident-set high-water mark of the process under
//     test (the daemon for daemon-mixed).
//
// A traced run (--trace 1) wraps a span around every call the benchmark
// makes into a layer, writes them as Chrome trace_event JSON under
// .bench_build/out, and prints the per-layer metrics: the workload's own
// headline numbers (sweep and stage times, path cost, error fraction, tick
// miss fraction and mean latency, daemon job percentiles and goodput),
// kernel ROI and phase shares, per-operation substrate costs, profile and
// tracing overhead, engine self time, stream accounting, and the daemon's
// admission, queue, execution, cache and WAL figures with the "share of one
// daemon job per layer" ladder. A layer the workload bypasses reads 0.
// Every percentile is computed from samples the benchmark timed itself;
// from the program it takes only exact values.
//
// Before anything is timed, a child process verifies the checked-in golden
// digests (SizeSmall, seeds 1 and 42). During the run, every repeat of a
// kernel call or daemon request must return its first answer's digest, and
// the stream's releases must all be executed or shed. Any failed check
// fails the run without printing a result. Kernel runs that return an
// error, daemon jobs carrying failures and refused requests count as failed
// operations, not as check failures.
//
// The last line of standard output is the result object, preceded by a
// provenance line (machine shape, Go version, commit, source hash, seed)
// and the full metric listing.
package main
