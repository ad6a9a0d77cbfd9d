package main

import (
	"testing"
	"time"
)

// fakeClock is virtual time: Sleep and the stubbed op advance it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// TestOpenLoopKeepsBacklog stalls one read for three periods: no due read
// may be dropped, the reads queued behind the stall must carry the backlog
// in their latency, and load.read_late_ms_p99 must show the stall.
func TestOpenLoopKeepsBacklog(t *testing.T) {
	const period = 20 * time.Millisecond
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	calls := 0
	st := openLoop(clk, start, start.Add(10*period), period, func() {
		d := time.Millisecond
		if calls == 2 {
			d = 3 * period
		}
		calls++
		clk.Sleep(d)
	})
	if calls != 10 || len(st.latency) != 10 || len(st.late) != 10 {
		t.Fatalf("%d calls, %d latencies, %d lateness samples; want 10 of each", calls, len(st.latency), len(st.late))
	}
	// Read 2 is due at 40ms and ends at 100ms. Read 3 (due 60ms) starts at
	// 100ms, read 4 (due 80ms) at 101ms, read 5 (due 100ms) at 102ms; read
	// 6 is due at 120ms and the schedule has caught up.
	wantLat := []time.Duration{1, 1, 60, 41, 22, 3, 1, 1, 1, 1}
	wantLate := []time.Duration{0, 0, 0, 40, 21, 2, 0, 0, 0, 0}
	for i := range wantLat {
		if st.latency[i] != wantLat[i]*time.Millisecond || st.late[i] != wantLate[i]*time.Millisecond {
			t.Errorf("read %d: latency %v late %v, want %v and %v", i,
				st.latency[i], st.late[i], wantLat[i]*time.Millisecond, wantLate[i]*time.Millisecond)
		}
	}
	vals := map[string]float64{}
	layerMetrics(vals, nil, nil, ms(st.late))
	if got := vals["load.read_late_ms_p99"]; got < 35 || got > 40 {
		t.Errorf("load.read_late_ms_p99 = %v, want the 40ms stall to show", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}
