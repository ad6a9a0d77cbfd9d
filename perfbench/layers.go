package main

import "time"

// layerMetrics derives the per-layer metrics of a traced run into vals from
// its spans, the counters its loops and probes returned, and the open-loop
// reader's lateness samples.
func layerMetrics(vals map[string]float64, spans []span, counters map[string]float64, late []float64) {
	self := selfTimes(spans)
	var reduceT, reduceSelf time.Duration
	for i, s := range spans {
		if s.Name == "omp.Reduce" {
			reduceT += s.dur()
			reduceSelf += self[i]
		}
	}
	var foldT time.Duration
	var foldN int64
	passes := map[int][]span{}
	for _, w := range named(spans, "core.SuperAccumulator.AddSlice", "omp.Reduce") {
		foldT += w.dur()
		foldN += w.N
		passes[w.Parent] = append(passes[w.Parent], w)
	}
	var spread, longest float64
	for _, ws := range passes {
		var sum, top time.Duration
		for _, w := range ws {
			sum += w.dur()
			top = max(top, w.dur())
		}
		spread += float64(top) - float64(sum)/float64(len(ws))
		longest += float64(top)
	}
	serial := median(rates(named(spans, "core.SuperAccumulator.AddSlice", "")))
	ceiling := median(rates(named(spans, "mem.stream-read", "")))
	vals["core.fold_ns_per_value"] = ratio(float64(foldT), float64(foldN))
	vals["core.merge_us"] = median(durs(named(spans, "core.SuperAccumulator.MergeChecked", "omp.Reduce"), time.Microsecond))
	vals["core.round_us"] = median(durs(named(spans, "core.SuperAccumulator.Float64", ""), time.Microsecond))
	vals["core.serial_values_per_s"] = serial
	vals["mem.ceiling_values_per_s"] = ceiling
	vals["core.ceiling_frac"] = ratio(serial, ceiling)
	vals["omp.wait_frac"] = ratio(float64(reduceSelf), float64(reduceT))
	vals["omp.imbalance_frac"] = ratio(spread, longest)
	vals["scan.ns_per_value"] = median(nsPerValue(named(spans, "scan.Inclusive", "")))

	rung := func(name string) float64 { return median(nsPerValue(named(spans, "ladder."+name, ""))) }
	decode, engine, http, loopback := rung("ingest-decode"), rung("ingest-engine"), rung("ingest-http"), rung("server-loopback")
	vals["ladder.ingest-decode_ns_per_value"] = decode
	vals["ladder.ingest-engine_ns_per_value"] = engine
	vals["ladder.ingest-http_ns_per_value"] = http
	vals["ladder.server-loopback_ns_per_value"] = loopback
	vals["ladder.engine-minus-decode_ns_per_value"] = engine - decode
	vals["ladder.http-minus-engine_ns_per_value"] = http - engine
	vals["ladder.loopback-minus-http_ns_per_value"] = loopback - http
	vals["client.encode_ns_per_value"] = median(nsPerValue(named(spans, "server.AppendFloatFrame", "")))

	admit := durs(named(spans, "server.Accumulator.AddFloats", "ladder.ingest-engine"), time.Microsecond)
	vals["server.admit_us_p50"] = quantile(admit, 0.5)
	vals["server.admit_us_p99"] = quantile(admit, 0.99)
	vals["server.busy_frac"] = ratio(counters["server.busy"], counters["server.admit_attempts"])
	vals["client.retries_429"] = counters["client.retries_429"]
	certify := durs(named(spans, "server.Accumulator.Certified", ""), time.Millisecond)
	vals["server.certify_ms_p50"] = quantile(certify, 0.5)
	vals["server.certify_ms_p99"] = quantile(certify, 0.99)
	get := durs(named(spans, "server.Client.Get", ""), time.Millisecond)
	vals["client.get_ms_p50"] = quantile(get, 0.5)
	vals["client.get_ms_p99"] = quantile(get, 0.99)
	var envelope []float64
	for _, s := range named(spans, "gossip.ServerLocal.Contributions", "") {
		if s.N > 0 {
			envelope = append(envelope, float64(s.dur())/float64(time.Microsecond)/float64(s.N))
		}
	}
	vals["server.envelope_us_p50"] = median(envelope)

	handle := durs(named(spans, "gossip.Node.Handle", ""), time.Microsecond)
	vals["gossip.handle_us_p50"] = quantile(handle, 0.5)
	vals["gossip.handle_us_p99"] = quantile(handle, 0.99)
	vals["gossip.clusterread_us_p50"] = median(durs(named(spans, "gossip.Node.ClusterRead", ""), time.Microsecond))
	for _, k := range []string{"gossip.frames_per_s", "gossip.bytes_per_round", "gossip.rounds_per_converge",
		"gossip.applied_per_received", "gossip.store_entries"} {
		vals[k] = counters[k]
	}
	vals["load.read_late_ms_p99"] = quantile(late, 0.99)
}

// durs returns the spans' durations in the given unit.
func durs(ss []span, unit time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

// nsPerValue returns each span's nanoseconds per value handled.
func nsPerValue(ss []span) []float64 {
	var out []float64
	for _, s := range ss {
		if s.N > 0 {
			out = append(out, float64(s.dur())/float64(s.N))
		}
	}
	return out
}

// rates returns each span's values per second.
func rates(ss []span) []float64 {
	var out []float64
	for _, s := range ss {
		if s.dur() > 0 {
			out = append(out, float64(s.N)/s.dur().Seconds())
		}
	}
	return out
}
