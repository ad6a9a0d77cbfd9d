package gossip

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/server"
)

// refStore is the contribution map with no caches: every entry is decoded
// on Put, and every digest list is hashed and sorted from scratch. The
// cached Store must agree with it on every result.
type refStore struct {
	dec *Store // only for decodeEnv
	m   map[entryKey]Entry
}

func newRefStore() *refStore {
	return &refStore{dec: NewStore(core.Params384), m: make(map[entryKey]Entry)}
}

func (r *refStore) put(e Entry) (bool, error) {
	if _, err := r.dec.decodeEnv(e.Env); err != nil {
		return false, err
	}
	if cur, ok := r.m[e.key()]; ok {
		if e.Version < cur.Version {
			return false, nil
		}
		if e.Version == cur.Version {
			if bytes.Equal(e.Env, cur.Env) && e.Adds == cur.Adds && e.Frames == cur.Frames {
				return false, nil
			}
			return false, ErrEquivocation
		}
	}
	e.Env = append([]byte(nil), e.Env...)
	r.m[e.key()] = e
	return true, nil
}

func (r *refStore) putOwn(acc, node string, epoch uint64, h *core.HP, adds, frames uint64) (bool, error) {
	if h.Params() != core.Params384 {
		return false, ErrParams
	}
	k := entryKey{acc: acc, node: node, epoch: epoch}
	if cur, ok := r.m[k]; ok && cur.Version >= frames {
		return false, nil
	}
	env, err := server.AppendHPFrame(nil, h)
	if err != nil {
		return false, err
	}
	r.m[k] = Entry{Acc: acc, Node: node, Epoch: epoch, Version: frames, Adds: adds, Frames: frames, Env: env}
	return true, nil
}

func (r *refStore) sortedKeys() []entryKey {
	keys := make([]entryKey, 0, len(r.m))
	for k := range r.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lessKey(keys[i], keys[j]) })
	return keys
}

func (r *refStore) digests() []Digest {
	out := []Digest{}
	for _, k := range r.sortedKeys() {
		e := r.m[k]
		sum := sha256.Sum256(e.Env)
		d := Digest{Acc: e.Acc, Node: e.Node, Epoch: e.Epoch, Version: e.Version}
		copy(d.Sum[:], sum[:8])
		out = append(out, d)
	}
	return out
}

// delta is the map-based comparison against a whole-store digest list.
func (r *refStore) delta(theirs []Digest) (ship []Entry, want []Digest, mismatches int) {
	remote := make(map[entryKey]Digest)
	for _, d := range theirs {
		remote[digestKey(&d)] = d
	}
	for _, k := range r.sortedKeys() {
		e := r.m[k]
		d, ok := remote[k]
		sum := sha256.Sum256(e.Env)
		switch {
		case !ok || d.Version < e.Version:
			mismatches++
			ship = append(ship, e)
		case d.Version == e.Version:
			if !bytes.Equal(d.Sum[:], sum[:8]) {
				mismatches++
			}
		default:
			mismatches++
			want = append(want, d)
		}
		delete(remote, k)
	}
	for _, d := range theirs {
		if _, ok := remote[digestKey(&d)]; ok {
			mismatches++
			want = append(want, d)
		}
	}
	return ship, want, mismatches
}

// errClass buckets an error the way gossip callers branch on it.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrEquivocation):
		return "equivocation"
	case errors.Is(err, ErrParams):
		return "params"
	case errors.Is(err, ErrBadCheckpoint):
		return "checkpoint"
	}
	return "other"
}

func sortDigestsByKey(ds []Digest) {
	sort.Slice(ds, func(i, j int) bool { return lessKey(digestKey(&ds[i]), digestKey(&ds[j])) })
}

// TestStoreCacheMatchesRecomputation drives random Put, PutOwn and
// RestoreCheckpoint sequences — fresh, newer, stale, identical,
// equivocating, corrupt and wrong-params entries — and checks after every
// step that the cached Store answers Digests, Delta, Accs and Checkpoint
// exactly as a from-scratch recomputation does, with the same applied
// results and error classes.
func TestStoreCacheMatchesRecomputation(t *testing.T) {
	accs := []string{"a", "b", "c"}
	nodes := []string{"n1", "n2"}
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rng.New(seed)
			pick := func(n int) int { return int(r.Uint64() % uint64(n)) }
			s, ref := NewStore(core.Params384), newRefStore()
			randKey := func() (string, string, uint64) {
				return accs[pick(len(accs))], nodes[pick(len(nodes))], uint64(1 + pick(2))
			}
			randVals := func() []float64 {
				xs := make([]float64, 1+pick(4))
				for i := range xs {
					xs[i] = float64(pick(1000)) - 500
				}
				return xs
			}
			held := func() (Entry, bool) {
				keys := ref.sortedKeys()
				if len(keys) == 0 {
					return Entry{}, false
				}
				return ref.m[keys[pick(len(keys))]], true
			}

			for step := 0; step < 300; step++ {
				var class string
				var applied, wantApplied bool
				var err, wantErr error
				acc, node, epoch := randKey()
				switch op := pick(10); op {
				case 0, 1: // fresh or newer
					version := uint64(1 + pick(6))
					e := mkEntry(t, acc, node, epoch, version, randVals()...)
					class = "newer"
					applied, err = s.Put(e)
					wantApplied, wantErr = ref.put(e)
				case 2: // identical re-delivery
					e, ok := held()
					if !ok {
						continue
					}
					class = "identical"
					applied, err = s.Put(e)
					wantApplied, wantErr = ref.put(e)
				case 3: // stale, possibly with a corrupt envelope
					e, ok := held()
					if !ok || e.Version == 0 {
						continue
					}
					e = mkEntry(t, e.Acc, e.Node, e.Epoch, e.Version-1, randVals()...)
					if pick(2) == 0 {
						e.Env[len(e.Env)-1] ^= 0x40
					}
					class = "stale"
					applied, err = s.Put(e)
					wantApplied, wantErr = ref.put(e)
				case 4: // equivocating: same version, other bytes or counters
					e, ok := held()
					if !ok {
						continue
					}
					if pick(2) == 0 {
						e.Adds++
					} else {
						e.Env = testEnv(t, core.Params384, randVals()...)
					}
					class = "equivocating"
					applied, err = s.Put(e)
					wantApplied, wantErr = ref.put(e)
				case 5: // corrupt envelope at a newer version
					e := mkEntry(t, acc, node, epoch, uint64(1+pick(6)), randVals()...)
					e.Env[pick(len(e.Env))] ^= 0x10
					class = "corrupt"
					applied, err = s.Put(e)
					wantApplied, wantErr = ref.put(e)
				case 6: // wrong parameters
					e := mkEntry(t, acc, node, epoch, uint64(1+pick(6)))
					e.Env = testEnv512(t, randVals()...)
					class = "wrong-params"
					applied, err = s.Put(e)
					wantApplied, wantErr = ref.put(e)
				case 7, 8: // own contribution, sometimes not newer, sometimes wrong params
					p := core.Params384
					if pick(8) == 0 {
						p = core.Params512
					}
					h := mkHP(t, p, randVals()...)
					frames := uint64(pick(7))
					class = "own"
					applied, err = s.PutOwn(acc, node, epoch, h, 3, frames)
					wantApplied, wantErr = ref.putOwn(acc, node, epoch, h, 3, frames)
				case 9: // restore a checkpoint taken from another store
					donor, donorRef := NewStore(core.Params384), newRefStore()
					for i := 0; i < 1+pick(5); i++ {
						a, n, ep := randKey()
						e := mkEntry(t, a, n, ep, uint64(1+pick(6)), randVals()...)
						// A repeated (key, version) equivocates inside the
						// donor; both sides keep their first entry.
						_, _ = donor.Put(e)
						_, _ = donorRef.put(e)
					}
					blob, err2 := donor.Checkpoint(9)
					if err2 != nil {
						t.Fatal(err2)
					}
					corrupt := pick(4) == 0
					if corrupt {
						blob[pick(len(blob))] ^= 1 << pick(8)
					}
					class = "restore"
					_, err = s.RestoreCheckpoint(blob)
					if corrupt {
						wantErr = ErrBadCheckpoint // the CRC catches any one-bit flip
					} else {
						for _, k := range donorRef.sortedKeys() {
							if _, perr := ref.put(donorRef.m[k]); perr != nil {
								wantErr = ErrBadCheckpoint
								break
							}
						}
					}
				}
				if applied != wantApplied || errClass(err) != errClass(wantErr) {
					t.Fatalf("step %d (%s): applied=%v err=%v, want applied=%v err=%v",
						step, class, applied, err, wantApplied, wantErr)
				}
				checkStoreAgainstRef(t, step, class, s, ref, r)
			}
		})
	}
}

func checkStoreAgainstRef(t *testing.T, step int, class string, s *Store, ref *refStore, r *rng.Source) {
	t.Helper()
	want := ref.digests()
	got := s.Digests()
	if !reflect.DeepEqual(append([]Digest{}, got...), want) {
		t.Fatalf("step %d (%s): Digests differ from recomputation\n got %+v\nwant %+v", step, class, got, want)
	}
	// The caller owns what Digests returns: scribbling on it, appending to
	// it or to a reslice of it leaves the store's answer unchanged.
	if len(got) > 0 {
		got[0].Version += 100
		_ = append(got[:1], Digest{Acc: "zz"})
		_ = append(got, Digest{Acc: "zz"})
		if again := s.Digests(); !reflect.DeepEqual(append([]Digest{}, again...), want) {
			t.Fatalf("step %d (%s): modifying a returned digest list changed the store", step, class)
		}
	}
	if s.Len() != len(ref.m) {
		t.Fatalf("step %d (%s): Len %d, want %d", step, class, s.Len(), len(ref.m))
	}

	accs := []string{}
	for _, k := range ref.sortedKeys() {
		if len(accs) == 0 || accs[len(accs)-1] != k.acc {
			accs = append(accs, k.acc)
		}
	}
	if got := s.Accs(); !reflect.DeepEqual(got, accs) {
		t.Fatalf("step %d (%s): Accs %v, want %v", step, class, got, accs)
	}

	fresh := NewStore(core.Params384)
	for _, k := range ref.sortedKeys() {
		if _, err := fresh.Put(ref.m[k]); err != nil {
			t.Fatal(err)
		}
	}
	a, errA := s.Checkpoint(3)
	b, errB := fresh.Checkpoint(3)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("step %d (%s): Checkpoint differs from a freshly built store's", step, class)
	}

	// A peer summary: some of our digests as-is, some older, newer or
	// re-hashed, some dropped, plus keys we do not hold.
	var theirs []Digest
	for _, d := range want {
		switch r.Uint64() % 6 {
		case 0:
			continue
		case 1:
			d.Version++
		case 2:
			if d.Version > 0 {
				d.Version--
			}
		case 3:
			d.Sum[0] ^= 1
		}
		theirs = append(theirs, d)
	}
	for i := uint64(0); i < r.Uint64()%3; i++ {
		theirs = append(theirs, Digest{Acc: fmt.Sprintf("peer-%d", r.Uint64()%4), Node: "n9", Epoch: 1, Version: 1})
	}
	sortDigestsByKey(theirs)
	ship, wantD, mism := s.Delta(theirs)
	rShip, rWant, rMism := ref.delta(theirs)
	sortDigestsByKey(wantD)
	sortDigestsByKey(rWant)
	if mism != rMism || !reflect.DeepEqual(ship, rShip) || !reflect.DeepEqual(wantD, rWant) {
		t.Fatalf("step %d (%s): Delta differs from recomputation:\n ship %d want %d mismatches %d\n ref ship %d want %d mismatches %d",
			step, class, len(ship), len(wantD), mism, len(rShip), len(rWant), rMism)
	}
}
