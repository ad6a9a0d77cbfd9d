package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into the program.
type span struct {
	Name   string
	Parent int // index of the enclosing span in the log, or -1
	Lane   int // Chrome trace tid: 0 is the load goroutine, see the lane constants
	Start  time.Duration
	End    time.Duration
	N      int64 // values or bytes the call handled; 0 when not applicable
}

func (s span) dur() time.Duration { return s.End - s.Start }

// Chrome trace lanes. omp workers use laneWorker+tid and gossip deliveries
// laneNode+receiver, so parallel spans never share a row.
const (
	laneLoad   = 0
	laneReader = 1
	laneWorker = 10
	laneNode   = 20
)

// spanLog is the traced run's in-memory span log. It keeps every span for the
// whole run — there is no ring to wrap — and is written out as Chrome
// trace-event JSON at the end. A nil *spanLog records nothing, so untraced
// loops pay one nil check per call.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children's parent.
func (l *spanLog) begin(name string, parent, lane int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Parent: parent, Lane: lane, Start: time.Since(l.epoch)})
	return len(l.spans) - 1
}

// end closes span id, recording n values or bytes handled.
func (l *spanLog) end(id int, n int64) {
	if l == nil || id < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].End = time.Since(l.epoch)
	l.spans[id].N = n
}

// snapshot returns a copy of every span recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// named returns the spans called name whose parent is called parent; an
// empty parent matches root spans only, "*" matches any parent.
func named(spans []span, name, parent string) []span {
	var out []span
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		switch {
		case parent == "*":
		case s.Parent < 0:
			if parent != "" {
				continue
			}
		case spans[s.Parent].Name != parent:
			continue
		}
		out = append(out, s)
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the union of
// its direct children's intervals, clipped to the span. The union, not the
// sum: two omp workers folding side by side cover the parent's wall time
// once, not twice.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}

// covered is the length of the union of kids' intervals within p.
func covered(p span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// writeChrome writes spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), each carrying its self time and count.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: us(s.Start), Dur: us(s.dur()), Pid: 1, Tid: s.Lane,
			Args: map[string]any{"self_us": us(self[i]), "n": s.N},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// layerOf is a span name's layer: the text before its first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
