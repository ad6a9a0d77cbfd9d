// Command perfbench is the repository's end-to-end benchmark: four
// workloads, each run in its own process, that put the exact summation
// system under load through its public calls and check every output
// against a serial oracle. BENCHMARK.json at the repository root records
// the command, the workloads, the metrics and each end-to-end metric's
// regression bound. cmd/benchsum and BENCH_sum.json remain the per-kernel
// sweep; this command is what a performance change is judged by.
//
// # Running
//
// From the repository root:
//
//	bash perfbench/run.sh --workload reduce-uniform --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload reduce-uniform --seed 1 --seconds 25 --trace 1 --trace-out trace.json
//
// run.sh builds this package (its own module, replacing repro with the
// checkout it sits in) with every Go cache under .bench_build, then runs
// it. The inputs are made from --seed with internal/rng; the same seed
// gives the same inputs. The run prints every metric as "name value unit",
// then failed_ops_frac, then one JSON line
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// failed counts operations that errored, were refused with 429, or
// differed from the oracle. Any error or mismatch makes correct false and
// the exit code 1; a run that cannot be set up at all exits 2 without a
// result.
//
// # Workloads
//
// Load comes from one process with at most nproc load goroutines and
// connections. Each workload sets up, then measures for --seconds.
//
//	reduce-uniform    2^24 values uniform in [-0.5, 0.5] (the paper's
//	                  §IV.B strong-scaling input), HP(6,3). A closed loop
//	                  alternates omp.Reduce (per-worker core.NewSuper and
//	                  AddSlice, MergeChecked) and scan.Inclusive, both at
//	                  nproc workers; Reduce passes repeat until they have had
//	                  as much time as the scans. Why: core and omp do nearly
//	                  all the work, server and gossip none, and the narrow
//	                  exponent band keeps the superaccumulator on its fast
//	                  path with short spill walks.
//	reduce-widerange  the same ops on 2^24 values of
//	                  rng.WideRangeQuantized(-223, 191, 2^-256) in HP(8,4),
//	                  the paper's Fig. 4 input. Why: about 414 live exponent
//	                  bins make every spill walk wide and defeat
//	                  same-exponent striping, so a kernel change that helps
//	                  one band and hurts the other shows between the two.
//	service-stream    server.New behind a loopback TCP http.Server. One
//	                  closed-loop writer Client.Streams 2^18-value chunks of
//	                  the 2^24-value input (one POST of 64 4096-value frames
//	                  each); one open-loop reader sends a certified
//	                  Client.Get every 20 ms, each timed from its due time,
//	                  none ever dropped. Every read's certificate must verify
//	                  and its adds must lie between what was acked before it
//	                  and what was sent after it; the final certified HP must
//	                  equal the oracle of exactly the chunks acked. Why:
//	                  client encode, frame decode, HTTP, admission and
//	                  certify dominate the fold, and a read queues behind
//	                  accepted frames, so deeper ingest queues show as read
//	                  latency.
//	cluster-converge  3 in-process gossip.Nodes, each over its own
//	                  server.Server through gossip.ServerLocal, joined by an
//	                  in-memory transport (20 ms interval, fanout 2), 256
//	                  accumulators per node: 768 store entries, under
//	                  gossip.MaxDigests. One closed-loop writer AddFloats one
//	                  4096-value frame (from a 2^20-value input) into a random
//	                  accumulator on a random node, then polls ClusterRead on
//	                  every node until each has the write; each node's value
//	                  must then equal the oracle. Why: the Digests, Delta and
//	                  Handle path and the Envelope refresh of every
//	                  accumulator on every round and read do the work, with
//	                  no HTTP or TCP.
//
// The buffer of the reduce and service workloads is 128 MiB; the run's
// first line prints it next to the last-level cache size sysfs reports.
//
// # End-to-end metrics (--trace 0)
//
// Every workload reports the same four; tracing is off.
//
//	setup_s       median set-up time, from the first call into the program
//	              to the ready state, excluding input generation and the
//	              oracle. The system is set up at least 3 times and, while
//	              3 s have not passed, up to 25. reduce-*: the first
//	              Reduce and scan pass. service-stream: server.New,
//	              listener, Create, the first Stream and Get.
//	              cluster-converge: servers, seeding one frame into every
//	              accumulator, node start, and one whole-cluster convergence
//	              checked in one ClusterRead sweep.
//	values_per_s  the write path's throughput: the 90th percentile of its
//	              ops' rates. reduce-*: 2^24 over a Reduce pass (200 to 900
//	              per run). service-stream: the values of a Stream call over
//	              its time to the last ack (about 6,000). cluster-converge:
//	              4096 values over the time from AddFloats until every node
//	              reads them (about 900).
//	op_mean_ms    mean latency of the workload's latency op. reduce-*: a
//	              scan.Inclusive pass (about 40 per run). service-stream: a
//	              certified read, timed from its due time (50 per second).
//	              cluster-converge: a write, from AddFloats until every node
//	              reads it.
//	peak_rss_mib  VmHWM from /proc/self/status at the end of the run.
//
// Why an upper decile and a mean, not the median and a tail percentile:
// the 2-CPU host the bounds were measured on shares its cores with other
// tenants, whose load slows every op for seconds at a time. Over 30
// consecutive 25 s runs per workload, the interquartile spread of ten
// runs averaged 13-17% for the median op rate and 15-17% for the median
// latency, and exceeded 25% in one 10-run set of seven on
// reduce-widerange and one of four on cluster-converge. The
// 90th-percentile rate averaged 5-14% and the mean latency 10-15%, and
// no 10-run set exceeded 24%, except across one minute in which the
// whole host ran at half speed and every statistic moved. The scans take
// two times, with and without a garbage-collection burst, and the
// service's reads have upper modes near 2 and 3 ms, so a median or p90
// there flips between modes from run to run; the mean moves smoothly.
// Tail latencies are per-layer metrics instead.
//
// # Per-layer metrics (--trace 1)
//
// A traced run measures every layer on the workload's input. The load of
// each workload above comes from one of three rigs: the reduce/scan loop,
// the service writer and reader, and the cluster writer. The
// workload's own rig runs half of --seconds untraced and half traced:
// trace.overhead_frac is 1 - traced values_per_s / untraced values_per_s,
// and runtime.* come from the untraced half. The other two rigs then run
// traced for a tenth of --seconds each, followed by the kernel and
// ingest-ladder probes. Spans are the benchmark's own: one around every
// public call it makes into core, omp, scan, server and gossip, including
// each omp worker's AddSlice inside the Reduce body and each gossip
// delivery in the transport. They are kept whole in memory (no ring) and
// written as Chrome trace-event JSON to --trace-out; program tracing
// (internal/trace) stays off. A span's self time is its duration minus the
// union of its children's intervals.
//
// Each metric and the end-to-end metric it should move:
//
//	core.fold_ns_per_value, core.merge_us, core.round_us
//	    omp workers' AddSlice, MergeChecked and the final Float64 inside
//	    Reduce: values_per_s on reduce-*, barely ingest on service-stream.
//	core.serial_values_per_s, mem.ceiling_values_per_s, core.ceiling_frac
//	    a single-threaded SuperAccumulator fold of the whole buffer, a plain
//	    streaming read of the same buffer in the same process, and their
//	    ratio: values_per_s on reduce-*.
//	omp.wait_frac, omp.imbalance_frac
//	    Reduce wall time covered by no worker fold or merge, and
//	    (longest - mean worker fold) / longest: values_per_s on reduce-*.
//	scan.ns_per_value
//	    a scan.Inclusive pass: op_mean_ms on reduce-*.
//	ladder.*_ns_per_value, client.encode_ns_per_value,
//	server.admit_us_p50/p99, server.busy_frac, client.retries_429
//	    the ingest ladder on the input's first 2^20 values, each rung one
//	    layer over the one below and every pass checked for exactness:
//	    ingest-decode (FrameDecoder.Next + Frame.Floats into AddSlice),
//	    ingest-engine (the same decode into Accumulator.AddFloats, then
//	    State), ingest-http (Handler().ServeHTTP in-process), and
//	    server-loopback (Client.Stream over TCP), plus the deltas between
//	    rungs, client frame encoding, per-frame AddFloats admission, ErrBusy
//	    per admission attempt and 429 retries: values_per_s on
//	    service-stream, nothing on reduce-*.
//	server.certify_ms_p50/p99, client.get_ms_p50/p99, load.read_late_ms_p99
//	    direct Accumulator.Certified calls, Client.Get calls, and the
//	    open-loop reader's own lateness: op_mean_ms on service-stream.
//	server.envelope_us_p50, gossip.handle_us_p50/p99,
//	gossip.clusterread_us_p50, gossip.frames_per_s, gossip.bytes_per_round,
//	gossip.rounds_per_converge, gossip.applied_per_received,
//	gossip.store_entries
//	    per-accumulator cost of a ServerLocal refresh, Node.Handle timed in
//	    the transport, ClusterRead, and the cluster's traffic and store
//	    counters: setup_s, values_per_s and op_mean_ms on cluster-converge
//	    only.
//	runtime.alloc_bytes_per_value, runtime.gc_cpu_frac
//	    heap bytes allocated per value and GC's share of CPU:
//	    values_per_s on service-stream, op_mean_ms, and peak_rss_mib.
//
// # Comparing a change with its parent
//
// Build both commits' checkouts and run each workload at least ten times
// per side, alternating which side runs first, each pair with a fresh
// seed. Report each side's median and quartiles per metric and workload.
// A change is a regression when, for any end-to-end metric and workload,
// its median is worse than the parent's by more than that metric's bound
// in BENCHMARK.json. A gain is claimed only when the change wins at least
// nine of ten pairs and the medians differ by more than the parent's own
// interquartile spread. Per-layer metrics come from traced runs and only
// explain where a difference sits.
package main
