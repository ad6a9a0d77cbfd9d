package gossip

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/server"
)

// entryKey is a contribution's identity: one accumulator name, one origin
// node, one epoch of that node's life. Only the owner ever writes a key
// (with a monotone version), which is what makes the map a join-semilattice
// despite HP addition being non-idempotent.
type entryKey struct {
	acc   string
	node  string
	epoch uint64
}

// Store errors.
var (
	// ErrEquivocation marks two envelopes with the same (key, version) but
	// different bytes — an owner violating the monotone-version contract
	// (or a corrupt peer). The store keeps its existing entry.
	ErrEquivocation = errors.New("gossip: equivocating contribution (same version, different envelope)")
	// ErrParams marks an entry whose HP envelope disagrees with the
	// cluster's configured (N, k) parameters.
	ErrParams = errors.New("gossip: contribution parameters mismatch cluster parameters")
	// ErrBadCheckpoint marks an unparseable recovery blob.
	ErrBadCheckpoint = errors.New("gossip: invalid checkpoint blob")
)

// Store is the replicated state: a grow-only map of contributions. Join
// rule per key: keep the higher version; equal versions must carry
// identical bytes. Every mutation validates the envelope decodes to an HP
// partial with the cluster parameters, so junk can never reach a merge.
//
// Each entry's digest hash is computed once, when the entry is stored, and
// the sorted entry order and the Digests list are cached, so a gossip round
// costs work in proportion to what changed since the last one rather than
// to the size of the map.
type Store struct {
	params  core.Params
	entries map[entryKey]*stored
	sorted  []*stored // entries in lessKey order; nil after a key is inserted
	digests []Digest  // Digests() answer; nil after any mutation
}

// stored is one held contribution plus its truncated envelope SHA-256. The
// Env slice is owned by the store and never modified: an update replaces it.
type stored struct {
	Entry
	sum [8]byte
}

// NewStore returns an empty contribution store for cluster parameters p.
func NewStore(p core.Params) *Store {
	return &Store{params: p, entries: make(map[entryKey]*stored)}
}

// Params returns the cluster HP parameters the store enforces.
func (s *Store) Params() core.Params { return s.params }

// Len returns the number of contributions held.
func (s *Store) Len() int { return len(s.entries) }

// decodeEnv unwraps one server FrameHP hand-off envelope and checks its
// parameters against the cluster's.
func (s *Store) decodeEnv(env []byte) (*core.HP, error) {
	d := server.NewFrameDecoder(bytes.NewReader(env), MaxFramePayload)
	f, err := d.Next()
	if err != nil {
		return nil, fmt.Errorf("gossip: bad contribution envelope: %w", err)
	}
	if f.Type != server.FrameHP {
		return nil, fmt.Errorf("gossip: contribution envelope is frame type %q, want %q", f.Type, server.FrameHP)
	}
	h, err := f.HP()
	if err != nil {
		return nil, fmt.Errorf("gossip: bad contribution envelope: %w", err)
	}
	if h.Params() != s.params {
		return nil, fmt.Errorf("%w: got %+v, want %+v", ErrParams, h.Params(), s.params)
	}
	return h, nil
}

// Put joins one remote entry into the map. It returns applied=true when the
// entry replaced (or created) local state. Equal-version envelopes that
// differ byte-for-byte return ErrEquivocation and leave the store
// unchanged; stale or identical entries are a silent no-op.
func (s *Store) Put(e Entry) (applied bool, err error) {
	cur := s.entries[e.key()]
	if cur != nil && e.Version == cur.Version && e.Adds == cur.Adds && e.Frames == cur.Frames && bytes.Equal(e.Env, cur.Env) {
		return false, nil // re-delivery: these bytes were validated when stored
	}
	if _, err := s.decodeEnv(e.Env); err != nil {
		return false, err
	}
	if cur != nil {
		if e.Version < cur.Version {
			return false, nil
		}
		if e.Version == cur.Version {
			return false, fmt.Errorf("%w: %s/%s@%d v%d", ErrEquivocation, e.Acc, e.Node, e.Epoch, e.Version)
		}
	}
	e.Env = append([]byte(nil), e.Env...)
	s.set(cur, e)
	return true, nil
}

// PutOwn records this node's current partial for one accumulator. The
// version is the owner's frame count: it increases exactly when the partial
// changes, so (key, version) names one unique byte string forever.
func (s *Store) PutOwn(acc, node string, epoch uint64, h *core.HP, adds, frames uint64) (changed bool, err error) {
	if h.Params() != s.params {
		return false, fmt.Errorf("%w: got %+v, want %+v", ErrParams, h.Params(), s.params)
	}
	cur := s.entries[entryKey{acc: acc, node: node, epoch: epoch}]
	if cur != nil && cur.Version >= frames {
		return false, nil
	}
	env, err := server.AppendHPFrame(nil, h)
	if err != nil {
		return false, err
	}
	s.set(cur, Entry{
		Acc: acc, Node: node, Epoch: epoch,
		Version: frames, Adds: adds, Frames: frames, Env: env,
	})
	return true, nil
}

// set stores e, hashing its envelope once: over cur when the key is
// already held, else as a new entry. It drops the caches the mutation makes
// stale — the digest list always, the sorted order only for a new key.
func (s *Store) set(cur *stored, e Entry) {
	st := stored{Entry: e}
	sum := sha256.Sum256(e.Env)
	copy(st.sum[:], sum[:8])
	if cur != nil {
		*cur = st
	} else {
		s.entries[e.key()] = &st
		s.sorted = nil
	}
	s.digests = nil
}

// sortedEntries returns the held entries in lessKey order. The slice is
// cached; callers must not modify it.
func (s *Store) sortedEntries() []*stored {
	if s.sorted == nil {
		es := make([]*stored, 0, len(s.entries))
		for _, e := range s.entries {
			es = append(es, e)
		}
		sort.Slice(es, func(i, j int) bool { return lessKey(es[i].key(), es[j].key()) })
		s.sorted = es
	}
	return s.sorted
}

// Digests returns the anti-entropy summary: one Digest per contribution, in
// deterministic sorted-key order, each carrying the truncated SHA-256 of
// the envelope. The list is cached until the next mutation; the caller
// gets its own copy.
func (s *Store) Digests() []Digest {
	if s.digests == nil {
		es := s.sortedEntries()
		s.digests = make([]Digest, len(es))
		for i, e := range es {
			s.digests[i] = Digest{Acc: e.Acc, Node: e.Node, Epoch: e.Epoch, Version: e.Version, Sum: e.sum}
		}
	}
	return append([]Digest(nil), s.digests...)
}

// digestWindow picks the digest summary a node advertises. A list of fewer
// than MaxDigests digests is the whole store. Past that, it returns
// MaxDigests consecutive digests starting at off, wrapping past the end,
// and the offset of the next window. Consecutive windows share one digest,
// so the key ranges they speak for (see coverageOf) tile the whole key
// cycle — including the keys past either end of this store's order, which
// only a wrapped window covers.
func digestWindow(ds []Digest, off int) (window []Digest, next int) {
	n := len(ds)
	if n < MaxDigests {
		return ds, 0
	}
	off %= n
	next = (off + MaxDigests - 1) % n
	if off+MaxDigests <= n {
		return ds[off : off+MaxDigests], next
	}
	window = make([]Digest, 0, MaxDigests)
	window = append(window, ds[off:]...)
	return append(window, ds[:MaxDigests-(n-off)]...), next
}

// coverage is the key range a peer's digest list speaks for: inside it, a
// key the list does not name is one the peer does not hold.
type coverage struct {
	all, none, wrap bool
	lo, hi          entryKey
}

func (c coverage) has(k entryKey) bool {
	switch {
	case c.all:
		return true
	case c.none:
		return false
	case c.wrap:
		return !lessKey(k, c.lo) || !lessKey(c.hi, k)
	}
	return !lessKey(k, c.lo) && !lessKey(c.hi, k)
}

// coverageOf reads a peer's digest list as digestWindow built it and
// returns it in key order with the range it covers. A short list is the
// whole store and covers everything. A full list is a window: sorted, it
// covers [first, last]; rotated once past the end of the key order, it
// covers [first, +inf) and (-inf, last]. A list in any other order still
// names keys, but covers nothing, so no absence is inferred from it.
func coverageOf(ds []Digest) ([]Digest, coverage) {
	descents, at := 0, 0
	for i := 1; i < len(ds); i++ {
		if lessKey(digestKey(&ds[i]), digestKey(&ds[i-1])) {
			descents, at = descents+1, i
		}
	}
	cov := coverage{all: len(ds) < MaxDigests}
	if !cov.all {
		cov.lo, cov.hi = digestKey(&ds[0]), digestKey(&ds[len(ds)-1])
		cov.wrap = descents == 1 && lessKey(cov.hi, cov.lo)
		cov.none = descents > 0 && !cov.wrap
	}
	switch {
	case descents == 0:
		return ds, cov
	case cov.wrap:
		return append(append(make([]Digest, 0, len(ds)), ds[at:]...), ds[:at]...), cov
	}
	sorted := append([]Digest(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return lessKey(digestKey(&sorted[i]), digestKey(&sorted[j])) })
	return sorted, cov
}

func digestKey(d *Digest) entryKey { return entryKey{acc: d.Acc, node: d.Node, epoch: d.Epoch} }

// Delta compares a peer's digest summary against local state. It returns
// the entries the peer is missing or stale on (ship, capped at MaxEntries —
// the next round repairs the remainder), the digests naming state the peer
// has that is newer than ours (want — triggers a pull request), and the
// number of keys where the summaries disagreed (mismatches, the
// digest-mismatch telemetry signal; it also counts same-version digests
// whose truncated hashes differ, i.e. suspected equivocation).
//
// A key the summary does not name counts as missing on the peer only
// inside the summary's coverage: a windowed summary from a large store
// says nothing about the keys outside its window. Both sides are walked
// in key order, so Delta neither hashes nor sorts.
func (s *Store) Delta(theirs []Digest) (ship []Entry, want []Digest, mismatches int) {
	theirs, cov := coverageOf(theirs)
	wantD := func(d Digest) {
		mismatches++
		if len(want) < MaxDigests {
			want = append(want, d)
		}
	}
	// Byte budget keeps a delta inside one frame even with large envelopes;
	// whatever does not fit is repaired by the next round's digests.
	const maxShipBytes = 1 << 19
	shipBytes := 0
	i := 0
	for _, e := range s.sortedEntries() {
		k := e.key()
		for ; i < len(theirs) && lessKey(digestKey(&theirs[i]), k); i++ {
			wantD(theirs[i]) // a key only the peer has
		}
		named := i < len(theirs) && digestKey(&theirs[i]) == k
		var d Digest
		if named {
			d = theirs[i]
			i++
		} else if !cov.has(k) {
			continue
		}
		switch {
		case !named || d.Version < e.Version:
			mismatches++
			if len(ship) < MaxEntries && shipBytes+len(e.Env) <= maxShipBytes {
				ship = append(ship, e.Entry)
				shipBytes += len(e.Env)
			}
		case d.Version == e.Version:
			if d.Sum != e.sum {
				mismatches++ // equivocation suspicion; keep ours, surface via telemetry
			}
		default: // d.Version > e.Version: they are ahead
			wantD(d)
		}
	}
	for ; i < len(theirs); i++ {
		wantD(theirs[i])
	}
	return ship, want, mismatches
}

func lessKey(a, b entryKey) bool {
	if a.acc != b.acc {
		return a.acc < b.acc
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.epoch < b.epoch
}

// Accs returns the accumulator names with at least one contribution,
// sorted.
func (s *Store) Accs() []string {
	out := []string{}
	for _, e := range s.sortedEntries() {
		if len(out) == 0 || out[len(out)-1] != e.Acc {
			out = append(out, e.Acc)
		}
	}
	return out
}

// ClusterInfo is one merged cluster read: the fixed-order join of every
// contribution for one accumulator. Digest is the hex SHA-256 of the merged
// canonical envelope — two nodes have converged on an accumulator iff their
// Digests are equal, and exactness makes that equality bit-for-bit rather
// than approximate.
type ClusterInfo struct {
	Name         string  `json:"name"`
	Sum          float64 `json:"sum"`
	HP           string  `json:"hp"`
	Digest       string  `json:"digest"`
	Adds         uint64  `json:"adds"`
	Frames       uint64  `json:"frames"`
	Contributors int     `json:"contributors"`
	Nodes        int     `json:"nodes"`
	Err          string  `json:"error,omitempty"`
}

// ClusterSum merges every contribution for acc in sorted-key order through
// the engine's checked HP combine. Because HP addition is exact and the
// order is deterministic, every node holding the same contribution map
// returns byte-identical HP text and SHA-256 digest.
func (s *Store) ClusterSum(acc string) (ClusterInfo, error) {
	all := s.sortedEntries()
	lo := sort.Search(len(all), func(i int) bool { return all[i].Acc >= acc })
	hi := lo
	nodes := make(map[string]bool)
	for ; hi < len(all) && all[hi].Acc == acc; hi++ {
		nodes[all[hi].Node] = true
	}

	info := ClusterInfo{Name: acc, Contributors: hi - lo, Nodes: len(nodes)}
	merged := core.NewAccumulator(s.params)
	for _, e := range all[lo:hi] {
		h, err := s.decodeEnv(e.Env)
		if err != nil {
			return info, err
		}
		merged.AddHP(h)
		info.Adds += e.Adds
		info.Frames += e.Frames
	}
	if err := merged.Err(); err != nil {
		info.Err = err.Error()
		return info, err
	}
	env, err := merged.Sum().MarshalBinary()
	if err != nil {
		return info, err
	}
	dg := audit.DigestEnv(env)
	info.Digest = fmt.Sprintf("%x", dg[:])
	text, err := merged.Sum().MarshalText()
	if err != nil {
		return info, err
	}
	info.HP = string(text)
	info.Sum = merged.Float64()
	return info, nil
}

// Checkpoint blob: magic | version | node epoch | entry count | entries
// (wire encoding) | crc32. The node's epoch rides along so a restart can
// bump past it.
var checkpointMagic = []byte("HPGC")

const checkpointVersion = 1

// Checkpoint serializes the contribution map plus the owning node's epoch
// into a self-verifying blob for a CheckpointStore.
func (s *Store) Checkpoint(epoch uint64) ([]byte, error) {
	buf := append([]byte(nil), checkpointMagic...)
	buf = append(buf, checkpointVersion)
	buf = binary.BigEndian.AppendUint64(buf, epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.entries)))
	var err error
	for _, e := range s.sortedEntries() {
		if buf, err = appendEntry(buf, &e.Entry); err != nil {
			return nil, err
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// RestoreCheckpoint joins a checkpoint blob's entries into the store and
// returns the epoch the blob was taken in. The restart bumps past that
// epoch, freezing the old entries (they keep converging via anti-entropy)
// while new local frames accrue under the new epoch.
func (s *Store) RestoreCheckpoint(data []byte) (epoch uint64, err error) {
	const headLen = 4 + 1 + 8 + 4
	if len(data) < headLen+4 || !bytes.Equal(data[:4], checkpointMagic) {
		return 0, fmt.Errorf("%w: bad header", ErrBadCheckpoint)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return 0, fmt.Errorf("%w: checksum mismatch", ErrBadCheckpoint)
	}
	if body[4] != checkpointVersion {
		return 0, fmt.Errorf("%w: version %d", ErrBadCheckpoint, body[4])
	}
	epoch = binary.BigEndian.Uint64(body[5:13])
	count := int(binary.BigEndian.Uint32(body[13:17]))
	d := wireReader{buf: body[headLen:]}
	for i := 0; i < count && d.err == nil; i++ {
		e := d.entry()
		if d.err != nil {
			break
		}
		if _, err := s.Put(e); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	if d.err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadCheckpoint, d.err)
	}
	if len(d.buf) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(d.buf))
	}
	return epoch, nil
}
