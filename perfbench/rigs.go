package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/omp"
	"repro/internal/scan"
	"repro/internal/server"
)

// rig puts load on one shape of the system: the parallel kernels, the
// HTTP service, or the gossip cluster. The constructor computes the serial
// oracle; setup builds the system to its ready state (and may be called
// again after close); loop drives it until the deadline, recording spans
// into lg when lg is non-nil.
type rig interface {
	setup() error
	loop(until time.Time, lg *spanLog) loopStats
	close()
	counts() *opCounts
}

// opCounts tallies a rig's operations across setup and every loop.
type opCounts struct {
	ops        int // operations attempted
	errors     int // operations that returned an error
	refused    int // 429 refusals the client absorbed
	mismatches int // operations whose output differed from the oracle
	firstErr   error
}

func (c *opCounts) counts() *opCounts { return c }

func (c *opCounts) failed() int { return c.errors + c.refused + c.mismatches }

// fail records an operation error, keeping the first for the report.
func (c *opCounts) fail(err error) {
	c.errors++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *opCounts) check(ok bool, what string) {
	if !ok {
		c.mismatches++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("%s differs from the serial oracle", what)
		}
	}
}

func (c *opCounts) add(o *opCounts) {
	c.ops += o.ops
	c.errors += o.errors
	c.refused += o.refused
	c.mismatches += o.mismatches
	if c.firstErr == nil {
		c.firstErr = o.firstErr
	}
}

// loopStats is what one loop measured.
type loopStats struct {
	values   int64     // values through the write path
	rates    []float64 // values/s of each write op
	lat      []float64 // latency-op samples, ms
	late     []float64 // open-loop generator lateness, ms
	counters map[string]float64
}

// rate is the loop's headline throughput, the 90th percentile of its write
// ops' rates. Other tenants' load on the host only ever slows an op, and
// comes in bursts of seconds: the upper decile tracks the system's own
// speed, where the median tracks the neighbours'.
func (s loopStats) rate() float64 { return quantile(s.rates, 0.9) }

// oracleText is the canonical text of the serial oracle h, with its lowest
// limb bit flipped when corrupt is set (the smoke test's proof that every
// check can fail).
func oracleText(h *core.HP, corrupt bool) string {
	if corrupt {
		raw := h.AppendRawLimbs(nil)
		raw[len(raw)-1] ^= 1
		h = h.Clone()
		if err := h.SetRawLimbs(raw); err != nil {
			panic(err) // raw has the length h itself produced
		}
	}
	b, err := h.MarshalText()
	if err != nil {
		panic(err) // an HP always marshals
	}
	return string(b)
}

// frames splits xs into consecutive frames of at most n values.
func frames(xs []float64, n int) [][]float64 {
	var out [][]float64
	for len(xs) > 0 {
		k := min(n, len(xs))
		out = append(out, xs[:k])
		xs = xs[k:]
	}
	return out
}

// sumEach is the serial oracle of every frame.
func sumEach(p core.Params, fs [][]float64) ([]*core.HP, error) {
	out := make([]*core.HP, len(fs))
	for i, f := range fs {
		h, err := core.SumHP(p, f)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		out[i] = h
	}
	return out, nil
}

// reduceRig is a closed loop alternating omp.Reduce (per-worker
// SuperAccumulator folds merged with MergeChecked) and scan.Inclusive over
// the whole buffer, both at the team's width. Reduce passes are repeated
// until they have had as much time as the scans, so each op gets about
// half the run.
type reduceRig struct {
	opCounts
	p      core.Params
	xs     []float64
	team   *omp.Team
	text   string // canonical text of the exact sum of xs (flipped when corrupt)
	wantF  uint64 // bits of its rounding
	prefix []prefixCheck
}

// prefixCheck is one exactly rounded prefix sum the scan must reproduce.
type prefixCheck struct {
	i    int
	bits uint64
}

// scanChecks is how many evenly spaced prefixes each scan is checked at;
// the last is always the full sum.
const scanChecks = 64

func newReduceRig(p core.Params, xs []float64, workers int, corrupt bool) (*reduceRig, error) {
	acc := core.NewAccumulator(p)
	var prefix []prefixCheck
	prev := 0
	for k := 1; k <= scanChecks; k++ {
		i := k*len(xs)/scanChecks - 1
		if i < prev {
			continue
		}
		acc.AddAll(xs[prev : i+1])
		prev = i + 1
		prefix = append(prefix, prefixCheck{i, math.Float64bits(acc.Float64())})
	}
	if err := acc.Err(); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if corrupt {
		prefix[len(prefix)-1].bits ^= 1
	}
	return &reduceRig{
		p: p, xs: xs, team: omp.NewTeam(workers),
		text: oracleText(acc.Sum(), corrupt), wantF: prefix[len(prefix)-1].bits,
		prefix: prefix,
	}, nil
}

// setup is the first, cold pass of each op.
func (d *reduceRig) setup() error {
	d.reduce(nil)
	d.scan(nil)
	return nil
}

func (d *reduceRig) close() {}

func (d *reduceRig) reduce(lg *spanLog) time.Duration {
	d.ops++
	n := len(d.xs)
	start := time.Now()
	root := lg.begin("omp.Reduce", -1, laneLoad)
	total := omp.Reduce(d.team, n,
		func(int) *core.SuperAccumulator { return core.NewSuper(d.p) },
		func(local *core.SuperAccumulator, tid, lo, hi int) {
			id := lg.begin("core.SuperAccumulator.AddSlice", root, laneWorker+tid)
			local.AddSlice(d.xs[lo:hi])
			lg.end(id, int64(hi-lo))
		},
		func(into, from *core.SuperAccumulator) {
			id := lg.begin("core.SuperAccumulator.MergeChecked", root, laneLoad)
			into.MergeChecked(from)
			lg.end(id, 0)
		})
	lg.end(root, int64(n))
	id := lg.begin("core.SuperAccumulator.Float64", -1, laneLoad)
	f := total.Float64()
	lg.end(id, 0)
	dur := time.Since(start)
	if err := total.Err(); err != nil {
		d.fail(fmt.Errorf("omp.Reduce: %w", err))
		return dur
	}
	d.check(math.Float64bits(f) == d.wantF && oracleText(total.Sum(), false) == d.text, "omp.Reduce sum")
	return dur
}

func (d *reduceRig) scan(lg *spanLog) time.Duration {
	d.ops++
	start := time.Now()
	id := lg.begin("scan.Inclusive", -1, laneLoad)
	out, err := scan.Inclusive(d.p, d.xs, d.team.Threads())
	lg.end(id, int64(len(d.xs)))
	dur := time.Since(start)
	if err != nil {
		d.fail(fmt.Errorf("scan.Inclusive: %w", err))
		return dur
	}
	ok := true
	for _, c := range d.prefix {
		ok = ok && math.Float64bits(out[c.i]) == c.bits
	}
	d.check(ok, "scan.Inclusive prefix")
	return dur
}

func (d *reduceRig) loop(until time.Time, lg *spanLog) loopStats {
	var st loopStats
	var reduceT, scanT time.Duration
	for first := true; first || time.Now().Before(until); first = false {
		dur := d.scan(lg)
		scanT += dur
		st.lat = append(st.lat, ms([]time.Duration{dur})...)
		for reduceT < scanT {
			dur := d.reduce(lg)
			reduceT += dur
			st.rates = append(st.rates, float64(len(d.xs))/dur.Seconds())
			st.values += int64(len(d.xs))
			if !time.Now().Before(until) {
				break
			}
		}
	}
	return st
}

const (
	accName    = "bench"
	readPeriod = 20 * time.Millisecond // 50 certified reads/s
)

var errMismatch = errors.New("result differs from the serial oracle")

// serviceRig runs server.New behind a loopback TCP http.Server. One
// closed-loop writer streams chunks of the input through Client.Stream; one
// open-loop reader sends a certified Client.Get every readPeriod. The final
// certified value must equal the oracle of exactly the chunks acked.
type serviceRig struct {
	opCounts
	p       core.Params
	chunks  [][]float64
	chunkHP []*core.HP
	corrupt bool

	srv            *server.Server
	hs             *http.Server
	served         chan struct{}
	tr             *http.Transport
	writer, reader *server.Client
	next           int      // index of the next chunk to stream
	sent           *core.HP // exact sum of every chunk acked
	// acked and sending bound the adds a concurrent read may see.
	acked, sending atomic.Int64
}

// serviceChunks is how many Stream calls cover the input once: 2^24
// values make 2^18-value chunks, one POST of 64 4096-value frames each.
const serviceChunks = 64

func newServiceRig(p core.Params, xs []float64, corrupt bool) (*serviceRig, error) {
	chunks := frames(xs, max(1, len(xs)/serviceChunks))
	hps, err := sumEach(p, chunks)
	if err != nil {
		return nil, err
	}
	return &serviceRig{p: p, chunks: chunks, chunkHP: hps, corrupt: corrupt}, nil
}

// setup starts the server and its listener, creates the accumulator, and
// makes the first Stream and the first certified Get.
func (d *serviceRig) setup() error {
	d.srv = server.New(server.Config{Params: d.p})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return err
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	d.tr = &http.Transport{MaxIdleConnsPerHost: 2}
	hc := &http.Client{Transport: d.tr}
	base := "http://" + ln.Addr().String()
	d.writer = &server.Client{Base: base, HTTP: hc}
	d.reader = &server.Client{Base: base, HTTP: hc}
	if _, err := d.writer.Create(accName, d.p); err != nil {
		return err
	}
	d.sent, d.next = core.New(d.p), 0
	d.acked.Store(0)
	d.sending.Store(0)
	if err := d.stream(nil); err != nil {
		return err
	}
	d.exact(nil)
	return nil
}

func (d *serviceRig) close() {
	if d.hs == nil {
		return
	}
	d.hs.Close()
	<-d.served
	d.tr.CloseIdleConnections()
	d.srv.Close()
	d.hs = nil
}

// stream sends the next chunk and folds it into the oracle once acked.
func (d *serviceRig) stream(lg *spanLog) error {
	d.ops++
	c := d.next % len(d.chunks)
	xs := d.chunks[c]
	d.sending.Add(int64(len(xs)))
	id := lg.begin("server.Client.Stream", -1, laneLoad)
	st, err := d.writer.Stream(accName, xs)
	lg.end(id, int64(st.Values))
	d.refused += st.Retries
	if err != nil {
		d.fail(fmt.Errorf("Client.Stream: %w", err))
		return err
	}
	d.next++
	d.sent.Add(d.chunkHP[c])
	d.acked.Add(int64(len(xs)))
	return nil
}

// read is one certified read racing the writer: its certificate must
// verify and its adds must lie between what was acked before it and what
// had been sent after it.
func (d *serviceRig) read(lg *spanLog) error {
	lo := d.acked.Load()
	id := lg.begin("server.Client.Get", -1, laneReader)
	info, err := d.reader.Get(accName)
	lg.end(id, 0)
	hi := d.sending.Load()
	if err != nil {
		return err
	}
	adds := int64(info.Adds)
	if info.Err != "" || info.Cert == nil || info.Cert.Verify(info.HP) != nil || adds < lo || adds > hi {
		return errMismatch
	}
	return nil
}

// exact is a certified read with no write in flight: it must equal the
// oracle of exactly the chunks acked.
func (d *serviceRig) exact(lg *spanLog) {
	d.ops++
	id := lg.begin("server.Client.Get", -1, laneLoad)
	info, err := d.writer.Get(accName)
	lg.end(id, 0)
	if err != nil {
		d.fail(fmt.Errorf("Client.Get: %w", err))
		return
	}
	d.check(info.Err == "" && info.HP == oracleText(d.sent, d.corrupt) &&
		int64(info.Adds) == d.acked.Load(), "certified service sum")
}

func (d *serviceRig) loop(until time.Time, lg *spanLog) loopStats {
	start := time.Now()
	var st loopStats // the writer's until wg.Wait returns
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := true; first || time.Now().Before(until); first = false {
			t0 := time.Now()
			if d.stream(lg) != nil {
				break
			}
			n := len(d.chunks[(d.next-1)%len(d.chunks)])
			st.values += int64(n)
			st.rates = append(st.rates, float64(n)/time.Since(t0).Seconds())
		}
	}()
	var reads, readErrs, readBad int
	var firstReadErr error
	ol := openLoop(wallClock{}, start, until, readPeriod, func() {
		reads++
		switch err := d.read(lg); {
		case errors.Is(err, errMismatch):
			readBad++
		case err != nil:
			readErrs++
			if firstReadErr == nil {
				firstReadErr = fmt.Errorf("Client.Get: %w", err)
			}
		}
	})
	wg.Wait()
	d.ops += reads
	d.errors += readErrs
	d.mismatches += readBad
	if d.firstErr == nil {
		d.firstErr = firstReadErr
	}
	d.exact(lg)
	st.lat, st.late = ms(ol.latency), ms(ol.late)
	return st
}

const (
	clusterNodes    = 3
	clusterInterval = 20 * time.Millisecond
	clusterFanout   = 2
	clusterFrameLen = 4096
	pollInterval    = time.Millisecond
	convergeTimeout = 10 * time.Second
)

// clusterRig runs three in-process gossip nodes, each over its own
// server through gossip.ServerLocal, joined by an in-memory transport. One
// closed-loop writer adds a frame to a random accumulator on a random node,
// then polls ClusterRead on every node until each has the write; every
// node's cluster value must then equal the oracle.
type clusterRig struct {
	opCounts
	p       core.Params
	frames  [][]float64
	frameHP []*core.HP
	accs    int
	pick    func(n int) int // seeded choice of node, accumulator and frame
	corrupt bool

	lg    atomic.Pointer[spanLog] // where transport and refresh spans go
	srvs  []*server.Server
	nodes []*gossip.Node
	tr    *memTransport
	acc   [][]*server.Accumulator // [node][accumulator]
	want  []*core.HP              // exact cluster sum per accumulator
	adds  []uint64
}

func newClusterRig(p core.Params, xs []float64, accs int, pick func(int) int, corrupt bool) (*clusterRig, error) {
	fs := frames(xs, clusterFrameLen)
	hps, err := sumEach(p, fs)
	if err != nil {
		return nil, err
	}
	return &clusterRig{p: p, frames: fs, frameHP: hps, accs: accs, pick: pick, corrupt: corrupt}, nil
}

func accNameOf(j int) string { return fmt.Sprintf("acc-%04d", j) }

// setup starts the servers, seeds every accumulator on every node with one
// frame, starts the nodes, and waits for the whole cluster to converge.
func (d *clusterRig) setup() error {
	d.tr = &memTransport{d: d, index: make(map[string]int)}
	d.srvs, d.nodes, d.acc = nil, nil, nil
	d.want, d.adds = make([]*core.HP, d.accs), make([]uint64, d.accs)
	for j := range d.want {
		d.want[j] = core.New(d.p)
	}
	peers := make([]gossip.Peer, clusterNodes)
	for i := range peers {
		id := fmt.Sprintf("node-%d", i)
		peers[i] = gossip.Peer{ID: id, Addr: id}
		d.tr.index[id] = i
	}
	for i := range peers {
		srv := server.New(server.Config{Params: d.p})
		d.srvs = append(d.srvs, srv)
		d.acc = append(d.acc, make([]*server.Accumulator, d.accs))
		for j := range d.acc[i] {
			a, _, err := srv.Create(accNameOf(j), d.p)
			if err != nil {
				return err
			}
			d.acc[i][j] = a
			if err := d.add(nil, i, j, d.pick(len(d.frames))); err != nil {
				return err
			}
		}
		var seeds []gossip.Peer
		for k, q := range peers {
			if k != i {
				seeds = append(seeds, q)
			}
		}
		n, err := gossip.NewNode(gossip.Config{
			Self: peers[i], Epoch: 1, Params: d.p, Seeds: seeds,
			Interval: clusterInterval, Fanout: clusterFanout,
			Local:     timedLocal{d: d, node: i, in: gossip.ServerLocal{S: srv}},
			Transport: d.tr,
		})
		if err != nil {
			return err
		}
		d.nodes = append(d.nodes, n)
	}
	d.tr.nodes = d.nodes
	for _, n := range d.nodes {
		n.Start()
	}
	return d.converge()
}

// converge waits until every node holds every contribution, then checks
// every accumulator on every node against the oracle in one sweep.
func (d *clusterRig) converge() error {
	d.ops++
	deadline := time.Now().Add(convergeTimeout)
	for full := false; !full; {
		full = true
		for _, n := range d.nodes {
			full = full && n.Stats().StoreLen == clusterNodes*d.accs
		}
		if time.Now().After(deadline) {
			err := errors.New("cluster did not converge after seeding")
			d.fail(err)
			return err
		}
		time.Sleep(pollInterval)
	}
	ok := true
	for _, n := range d.nodes {
		for j := 0; j < d.accs; j++ {
			ci, err := n.ClusterRead(accNameOf(j))
			if err != nil {
				d.fail(fmt.Errorf("ClusterRead: %w", err))
				return err
			}
			ok = ok && ci.Adds == d.adds[j] && ci.HP == oracleText(d.want[j], d.corrupt)
		}
	}
	d.check(ok, "seeded cluster sum")
	return nil
}

// add ingests frame f into accumulator j on node i and folds it into the
// oracle, retrying while the shard queue is full.
func (d *clusterRig) add(lg *spanLog, i, j, f int) error {
	for {
		id := lg.begin("server.Accumulator.AddFloats", -1, laneLoad)
		err := d.acc[i][j].AddFloats(d.frames[f])
		lg.end(id, int64(len(d.frames[f])))
		if errors.Is(err, server.ErrBusy) {
			d.refused++
			time.Sleep(pollInterval)
			continue
		}
		if err != nil {
			return err
		}
		d.want[j].Add(d.frameHP[f])
		d.adds[j] += uint64(len(d.frames[f]))
		return nil
	}
}

// await polls ClusterRead for accumulator j on every node that has not yet
// seen all d.adds[j] values, then checks each value against the oracle.
func (d *clusterRig) await(lg *spanLog, j int, deadline time.Time) error {
	want := oracleText(d.want[j], d.corrupt)
	pending := append([]*gossip.Node(nil), d.nodes...)
	ok := true
	for {
		rest := pending[:0]
		for _, n := range pending {
			id := lg.begin("gossip.Node.ClusterRead", -1, laneLoad)
			ci, err := n.ClusterRead(accNameOf(j))
			lg.end(id, 0)
			switch {
			case err != nil:
				return fmt.Errorf("ClusterRead: %w", err)
			case ci.Adds == d.adds[j]:
				ok = ok && ci.HP == want
			default:
				rest = append(rest, n)
			}
		}
		if pending = rest; len(pending) == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("write to %s not converged after %s", accNameOf(j), convergeTimeout)
		}
		time.Sleep(pollInterval)
	}
	if !ok {
		return errMismatch
	}
	return nil
}

func (d *clusterRig) rounds() (sum uint64) {
	for _, n := range d.nodes {
		sum += n.Stats().Rounds
	}
	return sum
}

func (d *clusterRig) loop(until time.Time, lg *spanLog) loopStats {
	d.lg.Store(lg)
	defer d.lg.Store(nil)
	before := make([]gossip.Stats, len(d.nodes))
	for i, n := range d.nodes {
		before[i] = n.Stats()
	}
	frames0, bytes0 := d.tr.frames.Load(), d.tr.bytes.Load()
	var st loopStats
	var roundsPerOp []float64
	start := time.Now()
	for first := true; first || time.Now().Before(until); first = false {
		d.ops++
		i, j, f := d.pick(len(d.nodes)), d.pick(d.accs), d.pick(len(d.frames))
		t0, r0 := time.Now(), d.rounds()
		if err := d.add(lg, i, j, f); err != nil {
			d.fail(fmt.Errorf("AddFloats: %w", err))
			break
		}
		err := d.await(lg, j, t0.Add(convergeTimeout))
		if errors.Is(err, errMismatch) {
			d.check(false, "converged cluster sum")
		} else if err != nil {
			d.fail(err)
			break
		}
		took := time.Since(t0)
		st.lat = append(st.lat, ms([]time.Duration{took})...)
		st.rates = append(st.rates, float64(len(d.frames[f]))/took.Seconds())
		roundsPerOp = append(roundsPerOp, float64(d.rounds()-r0)/float64(len(d.nodes)))
		st.values += int64(len(d.frames[f]))
	}
	elapsed := time.Since(start)

	var rounds, recv, applied, entries float64
	for i, n := range d.nodes {
		s := n.Stats()
		rounds += float64(s.Rounds - before[i].Rounds)
		recv += float64(s.Received - before[i].Received)
		applied += float64(s.Applied - before[i].Applied)
		entries = max(entries, float64(s.StoreLen))
	}
	frames, bytes := float64(d.tr.frames.Load()-frames0), float64(d.tr.bytes.Load()-bytes0)
	st.counters = map[string]float64{
		"gossip.frames_per_s":         frames / elapsed.Seconds(),
		"gossip.bytes_per_round":      ratio(bytes, rounds),
		"gossip.rounds_per_converge":  mean(roundsPerOp),
		"gossip.applied_per_received": ratio(applied, recv),
		"gossip.store_entries":        entries,
	}
	return st
}

func (d *clusterRig) close() {
	for _, n := range d.nodes {
		n.Close()
	}
	for _, s := range d.srvs {
		s.Close()
	}
	d.nodes, d.srvs = nil, nil
}

// memTransport delivers gossip frames synchronously between the rig's
// nodes, counting frames and bytes and timing each Handle.
type memTransport struct {
	d      *clusterRig
	index  map[string]int // peer id -> node index; fixed before Start
	nodes  []*gossip.Node
	frames atomic.Int64
	bytes  atomic.Int64
}

func (t *memTransport) Send(dst gossip.Peer, frame []byte) error {
	i, ok := t.index[dst.ID]
	if !ok {
		return fmt.Errorf("unknown gossip peer %s", dst.ID)
	}
	t.frames.Add(1)
	t.bytes.Add(int64(len(frame)))
	lg := t.d.lg.Load()
	id := lg.begin("gossip.Node.Handle", -1, laneNode+i)
	err := t.nodes[i].Handle(frame)
	lg.end(id, int64(len(frame)))
	return err
}

// timedLocal times each refresh of a node's local contributions: one
// Accumulator.Envelope per accumulator, on every round and every
// ClusterRead.
type timedLocal struct {
	d    *clusterRig
	node int
	in   gossip.ServerLocal
}

func (l timedLocal) Contributions() ([]gossip.Contribution, error) {
	lg := l.d.lg.Load()
	id := lg.begin("gossip.ServerLocal.Contributions", -1, laneNode+l.node)
	cs, err := l.in.Contributions()
	lg.end(id, int64(len(cs)))
	return cs, err
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
