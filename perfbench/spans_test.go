package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/trace"
)

// A Reduce pass of 100 µs with two omp workers folding side by side over
// [10, 60] and [30, 70], a grandchild inside worker 0, and a merge that
// runs past the parent's end.
func syntheticReduce() []span {
	t := func(us int) time.Duration { return time.Duration(us) * time.Microsecond }
	return []span{
		{Name: "omp.Reduce", Parent: -1, Start: t(0), End: t(100), N: 200},
		{Name: "core.SuperAccumulator.AddSlice", Parent: 0, Lane: laneWorker, Start: t(10), End: t(60), N: 100},
		{Name: "core.SuperAccumulator.AddSlice", Parent: 0, Lane: laneWorker + 1, Start: t(30), End: t(70), N: 100},
		{Name: "core.Spill", Parent: 1, Lane: laneWorker, Start: t(20), End: t(30)},
		{Name: "core.SuperAccumulator.MergeChecked", Parent: 0, Start: t(95), End: t(110)},
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := syntheticReduce()
	self := selfTimes(spans)
	want := []time.Duration{
		// 100 minus the union [10,70] + [95,100]: not minus the 50+40+15
		// sum of its children, which would go negative.
		35 * time.Microsecond,
		40 * time.Microsecond, // worker 0 minus its grandchild
		40 * time.Microsecond,
		10 * time.Microsecond,
		15 * time.Microsecond,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s #%d) = %v, want %v", spans[i].Name, i, self[i], want[i])
		}
	}

	vals := map[string]float64{}
	layerMetrics(vals, spans, nil, nil)
	if got := vals["omp.wait_frac"]; got != 0.35 {
		t.Errorf("omp.wait_frac = %v, want 0.35", got)
	}
	// Workers took 50 and 40 µs: (50 - 45) / 50.
	if got := vals["omp.imbalance_frac"]; got < 0.0999 || got > 0.1001 {
		t.Errorf("omp.imbalance_frac = %v, want 0.1", got)
	}
	if got := vals["core.fold_ns_per_value"]; got != 450 {
		t.Errorf("core.fold_ns_per_value = %v, want 450", got)
	}
}

func TestChromeExportValidates(t *testing.T) {
	spans := syntheticReduce()
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeChrome(f, spans); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := trace.ValidateChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(spans) {
		t.Fatalf("%d events, want %d", n, len(spans))
	}
	var ct struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Tid  int                `json:"tid"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatal(err)
	}
	if got := ct.TraceEvents[0].Args["self_us"]; got != 35 {
		t.Errorf("omp.Reduce self_us = %v, want 35", got)
	}
	if ct.TraceEvents[1].Tid == ct.TraceEvents[2].Tid {
		t.Errorf("parallel workers share Chrome lane %d", ct.TraceEvents[1].Tid)
	}
}

func TestSpanLogNilRecordsNothing(t *testing.T) {
	var lg *spanLog
	id := lg.begin("x", -1, 0)
	lg.end(id, 1)
	if id != -1 {
		t.Fatalf("nil log returned span id %d", id)
	}
	lg = newSpanLog()
	root := lg.begin("omp.Reduce", -1, laneLoad)
	kid := lg.begin("core.SuperAccumulator.AddSlice", root, laneWorker)
	lg.end(kid, 3)
	lg.end(root, 3)
	got := named(lg.snapshot(), "core.SuperAccumulator.AddSlice", "omp.Reduce")
	if len(got) != 1 || got[0].N != 3 || got[0].End < got[0].Start {
		t.Fatalf("recorded %+v", got)
	}
	if len(named(lg.snapshot(), "core.SuperAccumulator.AddSlice", "")) != 0 {
		t.Fatal("a child span matched as a root span")
	}
}
