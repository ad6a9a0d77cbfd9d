package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/trace"
)

func main() {
	var cfg config
	var traced int
	var seconds float64
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 25, "measured run length in seconds")
	flag.IntVar(&traced, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, also write the span log here as Chrome trace-event JSON")
	flag.Parse()
	if traced != 0 && traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.traced = traced == 1
	cfg.duration = time.Duration(seconds * float64(time.Second))
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	os.Exit(exitCode(res))
}

// exitCode is 1 for a run whose outputs were not all exact or whose
// operations errored, 0 otherwise.
func exitCode(res result) int {
	if !res.Correct {
		return 1
	}
	return 0
}

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	duration time.Duration
	traced   bool
	traceOut string
	// values and accs override the workload's input size and the cluster's
	// accumulators per node (0: the workload's own); tests shrink them.
	values, accs int
	// corruptOracle flips one limb bit of every oracle, so every exactness
	// check must fail.
	corruptOracle bool
}

type rigKind int

const (
	kindReduce rigKind = iota
	kindService
	kindCluster
)

// workloadSpec is one benchmark workload; doc.go says why each exists.
type workloadSpec struct {
	name   string
	params core.Params
	values int
	input  func(r *rng.Source, n int) []float64
	kind   rigKind
}

func uniform(r *rng.Source, n int) []float64 { return rng.UniformSet(r, n, -0.5, 0.5) }

// wideRange is the paper's Fig. 4 input: exponents across [-223, 191),
// quantized to 2^-256 so every value is exact in HP(8,4).
func wideRange(r *rng.Source, n int) []float64 { return rng.WideRangeQuantized(r, n, -223, 191, -256) }

var workloads = []workloadSpec{
	{"reduce-uniform", core.Params384, 1 << 24, uniform, kindReduce},
	{"reduce-widerange", core.Params512, 1 << 24, wideRange, kindReduce},
	{"service-stream", core.Params384, 1 << 24, uniform, kindService},
	{"cluster-converge", core.Params384, clusterValues, uniform, kindCluster},
}

const (
	clusterValues = 1 << 20 // the cluster's frame pool: 256 frames of 4096 values
	clusterAccs   = 256     // per node: 768 store entries, under gossip.MaxDigests
)

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run (-trace 0). Each workload has
// a write path and a latency op; doc.go maps them.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"values_per_s", "values/s"},
	{"op_mean_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the metrics of a traced run (-trace 1).
var perLayer = []metricSpec{
	{"core.fold_ns_per_value", "ns/value"},
	{"core.merge_us", "us"},
	{"core.round_us", "us"},
	{"core.serial_values_per_s", "values/s"},
	{"mem.ceiling_values_per_s", "values/s"},
	{"core.ceiling_frac", "frac"},
	{"omp.wait_frac", "frac"},
	{"omp.imbalance_frac", "frac"},
	{"scan.ns_per_value", "ns/value"},
	{"ladder.ingest-decode_ns_per_value", "ns/value"},
	{"ladder.ingest-engine_ns_per_value", "ns/value"},
	{"ladder.ingest-http_ns_per_value", "ns/value"},
	{"ladder.server-loopback_ns_per_value", "ns/value"},
	{"ladder.engine-minus-decode_ns_per_value", "ns/value"},
	{"ladder.http-minus-engine_ns_per_value", "ns/value"},
	{"ladder.loopback-minus-http_ns_per_value", "ns/value"},
	{"client.encode_ns_per_value", "ns/value"},
	{"server.admit_us_p50", "us"},
	{"server.admit_us_p99", "us"},
	{"server.busy_frac", "frac"},
	{"client.retries_429", "count"},
	{"server.certify_ms_p50", "ms"},
	{"server.certify_ms_p99", "ms"},
	{"client.get_ms_p50", "ms"},
	{"client.get_ms_p99", "ms"},
	{"server.envelope_us_p50", "us"},
	{"gossip.handle_us_p50", "us"},
	{"gossip.handle_us_p99", "us"},
	{"gossip.clusterread_us_p50", "us"},
	{"gossip.frames_per_s", "1/s"},
	{"gossip.bytes_per_round", "bytes"},
	{"gossip.rounds_per_converge", "rounds"},
	{"gossip.applied_per_received", "ratio"},
	{"gossip.store_entries", "count"},
	{"runtime.alloc_bytes_per_value", "bytes/value"},
	{"runtime.gc_cpu_frac", "frac"},
	{"load.read_late_ms_p99", "ms"},
	{"trace.overhead_frac", "frac"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// An untraced run builds the system to its ready state at least
// minSetups times and keeps going, up to maxSetups, until setupTime has
// passed; setup_s is the median. Quick set-ups repeat often enough that
// host noise averages out, slow ones still get a median of three.
const (
	minSetups = 3
	maxSetups = 25
	setupTime = 3 * time.Second
)

// run executes one benchmark run, printing every metric as "name value
// unit" and then the result as one JSON line to w. An error means no
// result: the system could not be built or measured at all.
func run(cfg config, w io.Writer) (result, error) {
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, workloadNames())
	}
	if cfg.values == 0 {
		cfg.values = spec.values
	}
	if cfg.accs == 0 {
		cfg.accs = clusterAccs
	}
	xs := spec.input(rng.New(cfg.seed), cfg.values)
	fmt.Fprintf(w, "# %s: %d values (%.1f MiB buffer; LLC %.1f MiB), %s, %d CPUs, seed %d\n",
		spec.name, len(xs), float64(8*len(xs))/(1<<20), float64(llcBytes())/(1<<20),
		spec.params, runtime.NumCPU(), cfg.seed)

	var counts opCounts
	var vals map[string]float64
	var err error
	if cfg.traced {
		vals, err = runTraced(cfg, spec, xs, &counts)
	} else {
		vals, err = runPlain(cfg, spec, xs, &counts)
	}
	if err != nil {
		return result{}, err
	}
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	}
	res := result{
		Correct:   counts.errors == 0 && counts.mismatches == 0,
		Attempted: counts.ops,
		Failed:    counts.failed(),
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, m := range specs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
		fmt.Fprintf(w, "%s %v %s\n", m.name, v, m.unit)
	}
	fmt.Fprintf(w, "failed_ops_frac %v frac\n", ratio(float64(res.Failed), float64(res.Attempted)))
	if counts.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %v\n", res.Failed, res.Attempted, counts.firstErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res, nil
}

func newRig(kind rigKind, cfg config, spec *workloadSpec, xs []float64) (rig, error) {
	switch kind {
	case kindReduce:
		return newReduceRig(spec.params, xs, runtime.NumCPU(), cfg.corruptOracle)
	case kindService:
		return newServiceRig(spec.params, xs, cfg.corruptOracle)
	default:
		r := rng.New(cfg.seed ^ 0x9e3779b97f4a7c15)
		return newClusterRig(spec.params, xs[:min(len(xs), clusterValues)], cfg.accs, r.Intn, cfg.corruptOracle)
	}
}

// runPlain is the end-to-end run: the repeated set-ups, then one loop for
// the whole duration with tracing off.
func runPlain(cfg config, spec *workloadSpec, xs []float64, counts *opCounts) (map[string]float64, error) {
	d, err := newRig(spec.kind, cfg, spec, xs)
	if err != nil {
		return nil, err
	}
	defer func() { counts.add(d.counts()) }()
	var setups []float64
	for begin := time.Now(); len(setups) < minSetups ||
		len(setups) < maxSetups && time.Since(begin) < setupTime; {
		if len(setups) > 0 {
			d.close()
		}
		start := time.Now()
		err := d.setup()
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			d.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	st := d.loop(time.Now().Add(cfg.duration), nil)
	d.close()
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":      median(setups),
		"values_per_s": st.rate(),
		"op_mean_ms":   mean(st.lat),
		"peak_rss_mib": rss,
	}, nil
}

// runTraced is the per-layer run. The workload's own rig runs half the
// duration untraced and half traced (their ratio is trace.overhead_frac);
// the other two rigs then run briefly on the same input, and the kernel
// and ingest-ladder probes last, all traced, so every layer is measured on
// every workload's input.
func runTraced(cfg config, spec *workloadSpec, xs []float64, counts *opCounts) (map[string]float64, error) {
	lg := newSpanLog()
	vals := map[string]float64{}
	counters := map[string]float64{}
	var late []float64
	var reduce *reduceRig
	kinds := []rigKind{spec.kind}
	for _, k := range []rigKind{kindReduce, kindService, kindCluster} {
		if k != spec.kind {
			kinds = append(kinds, k)
		}
	}
	probeTime := max(cfg.duration/10, 200*time.Millisecond)
	for i, kind := range kinds {
		d, err := newRig(kind, cfg, spec, xs)
		if err != nil {
			return nil, err
		}
		if r, ok := d.(*reduceRig); ok {
			reduce = r
		}
		if err := d.setup(); err != nil {
			d.close()
			counts.add(d.counts())
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i == 0 {
			before := readRuntime()
			plain := d.loop(time.Now().Add(cfg.duration/2), nil)
			after := readRuntime()
			vals["runtime.alloc_bytes_per_value"] = ratio(after.allocBytes-before.allocBytes, float64(plain.values))
			vals["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
			st := d.loop(time.Now().Add(cfg.duration/2), lg)
			vals["trace.overhead_frac"] = 1 - ratio(st.rate(), plain.rate())
			merge(counters, st, &late)
		} else {
			merge(counters, d.loop(time.Now().Add(probeTime), lg), &late)
		}
		d.close()
		counts.add(d.counts())
	}

	var probe opCounts
	kernelProbe(lg, &probe, spec.params, xs, reduce.text)
	err := ladderProbe(lg, &probe, counters, spec.params, xs, cfg.corruptOracle)
	counts.add(&probe)
	if err != nil {
		return nil, err
	}

	spans := lg.snapshot()
	layerMetrics(vals, spans, counters, late)
	var chrome bytes.Buffer
	if err := writeChrome(&chrome, spans); err != nil {
		return nil, err
	}
	if _, err := trace.ValidateChromeTrace(chrome.Bytes()); err != nil {
		return nil, err
	}
	if cfg.traceOut != "" {
		if err := os.WriteFile(cfg.traceOut, chrome.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// merge folds one traced loop's counters and lateness samples into the
// run's totals.
func merge(counters map[string]float64, st loopStats, late *[]float64) {
	for k, v := range st.counters {
		counters[k] += v
	}
	*late = append(*late, st.late...)
}

// runtimeTotals are the Go runtime's cumulative counters at one instant.
type runtimeTotals struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeTotals {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeTotals{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}
