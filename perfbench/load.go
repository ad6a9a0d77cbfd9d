package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// clock is the time source of the open-loop generator; tests substitute a
// virtual one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoopStats is what one open-loop schedule measured.
type openLoopStats struct {
	latency []time.Duration // completion minus due time, per call
	late    []time.Duration // start minus due time: the generator's own lag
}

// openLoop calls op on a fixed schedule: call i is due at start+i*period,
// for every due time before until. A time.Ticker would drop ticks while a
// call overruns; here no due call is ever dropped. Calls run one at a time,
// so after a stall the backlog goes out back to back, and each call's
// latency is timed from its due time, so the stall shows in every call
// queued behind it.
func openLoop(clk clock, start, until time.Time, period time.Duration, op func()) openLoopStats {
	var st openLoopStats
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(until) {
			return st
		}
		if now := clk.Now(); now.Before(due) {
			clk.Sleep(due.Sub(now))
		}
		st.late = append(st.late, clk.Now().Sub(due))
		op()
		st.latency = append(st.latency, clk.Now().Sub(due))
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs (0 for an empty sample).
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// llcBytes is the size of CPU 0's highest-level cache as sysfs reports it,
// or 0 when sysfs has no cache description.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, bestLevel := int64(0), 0
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || level < bestLevel {
			continue
		}
		best, bestLevel = n*mult, level
	}
	return best
}
