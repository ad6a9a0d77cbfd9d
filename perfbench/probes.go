package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// Every probe pass is repeated at least probeMinPasses times and for at
// least probeMinTime; metrics take the median pass.
const (
	probeMinPasses = 3
	probeMinTime   = 250 * time.Millisecond
	ladderValues   = 1 << 20 // 256 frames of 4096 values
	reqFrames      = 64      // frames per POST, as Client.Stream batches them
	certifyReads   = 100
)

func repeat(pass func()) {
	start := time.Now()
	for i := 0; i < probeMinPasses || time.Since(start) < probeMinTime; i++ {
		pass()
	}
}

// streamSink keeps the compiler from eliding the streaming read.
var streamSink uint64

// kernelProbe times the single-threaded SuperAccumulator fold of the whole
// buffer and, in the same process, a plain streaming read of the same
// buffer: the memory ceiling the fold is held against.
func kernelProbe(lg *spanLog, c *opCounts, p core.Params, xs []float64, text string) {
	repeat(func() {
		c.ops++
		id := lg.begin("core.SuperAccumulator.AddSlice", -1, laneLoad)
		s := core.NewSuper(p)
		s.AddSlice(xs)
		lg.end(id, int64(len(xs)))
		c.check(s.Err() == nil && oracleText(s.Sum(), false) == text, "serial fold")
	})
	repeat(func() {
		id := lg.begin("mem.stream-read", -1, laneLoad)
		var acc uint64
		for _, x := range xs {
			acc ^= math.Float64bits(x)
		}
		lg.end(id, int64(len(xs)))
		streamSink ^= acc
	})
}

// ladderProbe drives the ingest path one layer at a time on the same
// prebuilt frames, each rung adding exactly one layer to the rung below:
//
//	ingest-decode    FrameDecoder.Next + Frame.Floats -> SuperAccumulator.AddSlice
//	ingest-engine    FrameDecoder.Next + Frame.Floats -> Accumulator.AddFloats -> State
//	ingest-http      Handler().ServeHTTP in-process, 64 frames per request -> State
//	server-loopback  Client.Stream over loopback TCP -> State
//
// The engine folds on its own shard goroutines, so a delta between rungs
// can be negative where that parallel fold outruns the decode rung's
// single-threaded one. Every rung pass ends on an exact check against the
// serial oracle. The probe also times client-side frame encoding,
// per-frame admission, and direct certified reads, and adds the counters
// behind server.busy_frac and client.retries_429 to counters.
func ladderProbe(lg *spanLog, c *opCounts, counters map[string]float64, p core.Params, xs []float64, corrupt bool) error {
	xs = xs[:min(len(xs), ladderValues)]
	want, err := core.SumHP(p, xs)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	text := oracleText(want, corrupt)
	n := int64(len(xs))
	fs := frames(xs, clusterFrameLen)
	var stream []byte
	var bodies [][]byte
	for k := 0; k < len(fs); k += reqFrames {
		var b []byte
		for _, f := range fs[k:min(k+reqFrames, len(fs))] {
			b = server.AppendFloatFrame(b, f)
		}
		bodies = append(bodies, b)
		stream = append(stream, b...)
	}
	checkInfo := func(info server.Info, err error, what string) {
		if err != nil {
			c.fail(fmt.Errorf("%s: %w", what, err))
			return
		}
		c.check(info.Err == "" && info.HP == text && info.Adds == uint64(n), what)
	}
	state := func(parent int, a *server.Accumulator) (server.Info, error) {
		id := lg.begin("server.Accumulator.State", parent, laneLoad)
		info, err := a.State()
		lg.end(id, 0)
		return info, err
	}

	var buf []byte
	repeat(func() {
		id := lg.begin("server.AppendFloatFrame", -1, laneLoad)
		buf = buf[:0]
		for _, f := range fs {
			buf = server.AppendFloatFrame(buf, f)
		}
		lg.end(id, n)
	})

	var out []float64
	repeat(func() {
		c.ops++
		id := lg.begin("ladder.ingest-decode", -1, laneLoad)
		dec := server.NewFrameDecoder(bytes.NewReader(stream), 0)
		s := core.NewSuper(p)
		var err error
		for {
			var f server.Frame
			if f, err = dec.Next(); err != nil {
				break
			}
			if out, err = f.Floats(out[:0]); err != nil {
				break
			}
			s.AddSlice(out)
		}
		lg.end(id, n)
		if err != io.EOF {
			c.fail(fmt.Errorf("ingest-decode: %w", err))
			return
		}
		c.check(s.Err() == nil && oracleText(s.Sum(), false) == text, "ingest-decode sum")
	})

	srv := server.New(server.Config{Params: p})
	defer srv.Close()
	passes := 0
	fresh := func() (*server.Accumulator, string, error) {
		passes++
		name := fmt.Sprintf("ladder-%d", passes)
		a, _, err := srv.Create(name, p)
		return a, name, err
	}

	var last *server.Accumulator
	repeat(func() {
		c.ops++
		a, _, err := fresh()
		if err != nil {
			c.fail(err)
			return
		}
		id := lg.begin("ladder.ingest-engine", -1, laneLoad)
		dec := server.NewFrameDecoder(bytes.NewReader(stream), 0)
		for {
			var f server.Frame
			var xs []float64
			if f, err = dec.Next(); err != nil {
				break
			}
			// A fresh slice per frame, as the HTTP handler decodes: the
			// accumulator owns what AddFloats is given.
			if xs, err = f.Floats(nil); err != nil {
				break
			}
			for {
				counters["server.admit_attempts"]++
				aid := lg.begin("server.Accumulator.AddFloats", id, laneLoad)
				err = a.AddFloats(xs)
				lg.end(aid, int64(len(xs)))
				if !errors.Is(err, server.ErrBusy) {
					break
				}
				counters["server.busy"]++
				runtime.Gosched()
			}
			if err != nil {
				break
			}
		}
		if err == io.EOF {
			err = nil
		}
		info, serr := state(id, a)
		lg.end(id, n)
		checkInfo(info, errors.Join(err, serr), "ingest-engine sum")
		last = a
	})
	for i := 0; i < certifyReads && last != nil; i++ {
		c.ops++
		id := lg.begin("server.Accumulator.Certified", -1, laneLoad)
		info, err := last.Certified()
		lg.end(id, 0)
		checkInfo(info, err, "certified read")
	}

	h := srv.Handler()
	repeat(func() {
		c.ops++
		a, name, err := fresh()
		if err != nil {
			c.fail(err)
			return
		}
		id := lg.begin("ladder.ingest-http", -1, laneLoad)
		for _, b := range bodies {
			hid := lg.begin("server.Handler.ServeHTTP", id, laneLoad)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/acc/"+name+"/add", bytes.NewReader(b)))
			lg.end(hid, int64(len(b)))
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("HTTP %d: %s", rec.Code, rec.Body)
				break
			}
		}
		info, serr := state(id, a)
		lg.end(id, n)
		checkInfo(info, errors.Join(err, serr), "ingest-http sum")
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once Close runs
	}()
	tr := &http.Transport{}
	cl := &server.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: tr}}
	repeat(func() {
		c.ops++
		a, name, err := fresh()
		if err != nil {
			c.fail(err)
			return
		}
		id := lg.begin("ladder.server-loopback", -1, laneLoad)
		sid := lg.begin("server.Client.Stream", id, laneLoad)
		st, err := cl.Stream(name, xs)
		lg.end(sid, int64(st.Values))
		info, serr := state(id, a)
		lg.end(id, n)
		c.refused += st.Retries
		counters["client.retries_429"] += float64(st.Retries)
		checkInfo(info, errors.Join(err, serr), "server-loopback sum")
	})
	hs.Close()
	<-served
	tr.CloseIdleConnections()
	return nil
}
