package gossip

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestDigestWindowsTileTheKeyCycle: a store below MaxDigests advertises its
// whole digest list; a larger one advertises rotating windows whose
// coverage, as the receiver reads it back, spans every key position — and
// every gap between them, including the ones past either end — within two
// consecutive windows.
func TestDigestWindowsTileTheKeyCycle(t *testing.T) {
	mk := func(n int) []Digest {
		ds := make([]Digest, n)
		for i := range ds {
			// Keys 2, 4, 6, ...: odd probes fall between (or outside) them.
			ds[i] = Digest{Acc: fmt.Sprintf("acc-%05d", 2*(i+1)), Node: "n", Epoch: 1, Version: 1}
		}
		return ds
	}
	probe := func(i int) entryKey { return entryKey{acc: fmt.Sprintf("acc-%05d", i), node: "n", epoch: 1} }

	for _, n := range []int{0, 1, MaxDigests - 1} {
		ds := mk(n)
		w, _ := digestWindow(ds, 17)
		if !reflect.DeepEqual(w, ds) {
			t.Fatalf("n=%d: window is not the whole list", n)
		}
		if _, cov := coverageOf(w); !cov.all {
			t.Fatalf("n=%d: whole list does not cover everything", n)
		}
	}
	for _, n := range []int{MaxDigests, MaxDigests + 1, 1500, 3 * MaxDigests} {
		ds := mk(n)
		off := 0
		covered := make([]bool, 2*n+3) // probes 0 .. 2n+2
		for w := 0; w < 2*((n+MaxDigests-2)/(MaxDigests-1)); w++ {
			var win []Digest
			win, off = digestWindow(ds, off)
			if len(win) != MaxDigests {
				t.Fatalf("n=%d: window of %d digests", n, len(win))
			}
			sorted, cov := coverageOf(win)
			if cov.all || cov.none {
				t.Fatalf("n=%d: window coverage %+v", n, cov)
			}
			for i := 1; i < len(sorted); i++ {
				if !lessKey(digestKey(&sorted[i-1]), digestKey(&sorted[i])) {
					t.Fatalf("n=%d: coverageOf did not return the window in key order", n)
				}
			}
			named := make(map[entryKey]bool)
			for i := range win {
				named[digestKey(&win[i])] = true
			}
			for p := range covered {
				k := probe(p)
				if !cov.has(k) {
					continue
				}
				covered[p] = true
				// Inside the coverage, a key the window does not name
				// must really be absent from the store.
				if !named[k] && p%2 == 0 && p >= 2 && p <= 2*n {
					t.Fatalf("n=%d: held key %v inside coverage but not named", n, k)
				}
			}
		}
		for p, ok := range covered {
			if !ok {
				t.Fatalf("n=%d: probe %d never covered by any window", n, p)
			}
		}
	}

	// A digest list in no window order still names keys but covers none.
	ds := mk(MaxDigests)
	ds[3], ds[700] = ds[700], ds[3]
	if _, cov := coverageOf(ds); !cov.none {
		t.Fatalf("shuffled full list coverage %+v, want none", cov)
	}
}

// pumpNodes delivers queued frames between unstarted nodes until every
// outbound queue is empty, so a test can step gossip one round at a time.
func pumpNodes(t *testing.T, nodes map[string]*Node) {
	t.Helper()
	for moved := true; moved; {
		moved = false
		for _, n := range nodes {
			for drained := false; !drained; {
				select {
				case f := <-n.out:
					moved = true
					if err := nodes[f.dst.ID].Handle(f.frame); err != nil {
						t.Fatal(err)
					}
				default:
					drained = true
				}
			}
		}
	}
}

// TestLargeStoreConvergesItsTail: two nodes whose stores hold more
// contributions than one frame's MaxDigests. A fresh node must catch up on
// all of them, and a later update to a key past the first MaxDigests in
// sort order must arrive within a few rounds. Advertising only the first
// MaxDigests digests never converges the tail: the peer reads every later
// key as missing, refills its ship budget with keys just past the cut on
// every round, and never learns that the tail key changed.
func TestLargeStoreConvergesItsTail(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	const accs = 1500
	contrib := func(j int, frames uint64) Contribution {
		return Contribution{Acc: fmt.Sprintf("acc-%04d", j), HP: mkHP(t, core.Params384, float64(j), float64(frames)),
			Adds: 2 * frames, Frames: frames}
	}
	cs := make([]Contribution, accs)
	for j := range cs {
		cs[j] = contrib(j, 1)
	}
	local := &staticLocal{}
	local.set(cs...)

	pa, pb := Peer{ID: "a", Addr: "a"}, Peer{ID: "b", Addr: "b"}
	a, err := NewNode(Config{Self: pa, Epoch: 1, Params: core.Params384, Seeds: []Peer{pb},
		Local: local, Transport: newMemNet(), QueueLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(Config{Self: pb, Epoch: 1, Params: core.Params384, Seeds: []Peer{pa},
		Transport: newMemNet(), QueueLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	nodes := map[string]*Node{"a": a, "b": b}

	synced := func() bool {
		a.Accs() // folds a's latest local contributions into its store
		a.mu.Lock()
		defer a.mu.Unlock()
		b.mu.Lock()
		defer b.mu.Unlock()
		return reflect.DeepEqual(a.store.Digests(), b.store.Digests())
	}
	step := func() {
		a.round()
		b.round()
		pumpNodes(t, nodes)
	}

	rounds := 0
	for ; !synced(); rounds++ {
		if rounds == 20 {
			t.Fatalf("fresh node holds %d of %d contributions after %d rounds", b.Stats().StoreLen, accs, rounds)
		}
		step()
	}
	t.Logf("fresh node caught up in %d rounds", rounds)
	step() // b's next round reports the store it now holds
	if got := mStoreEntries.Value(); got != accs {
		t.Fatalf("gossip_store_entries %d after a round of b's, want %d", got, accs)
	}

	const tail = 1400
	cs[tail] = contrib(tail, 2)
	local.set(cs...)
	for rounds = 0; !synced(); rounds++ {
		if rounds == 6 {
			info, _ := b.ClusterRead(cs[tail].Acc)
			t.Fatalf("update to %s not converged after %d rounds (peer reads %d adds)", cs[tail].Acc, rounds, info.Adds)
		}
		step()
	}
	want, err := a.ClusterRead(cs[tail].Acc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ClusterRead(cs[tail].Acc)
	if err != nil {
		t.Fatal(err)
	}
	if got.HP != want.HP || got.Digest != want.Digest || got.Adds != 4 {
		t.Fatalf("converged read of %s differs: got %+v want %+v", cs[tail].Acc, got, want)
	}
}
