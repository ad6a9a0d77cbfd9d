package server

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// countingHook is a ReportHook that counts replica reports, so a test can
// tell an Envelope that flushed the replicas from one served from its memo,
// and that corrupts replica lieTo's next report when lie is set.
type countingHook struct {
	reports atomic.Int64
	lie     atomic.Bool
	lieTo   int
}

func (h *countingHook) OnReport(replica int, env []byte) []byte {
	h.reports.Add(1)
	if replica == h.lieTo && h.lie.CompareAndSwap(true, false) {
		env = bytes.Clone(env)
		env[len(env)-1] ^= 1
	}
	return env
}

// envelopeText is Envelope's HP as canonical text plus its counters.
func envelopeText(t *testing.T, a *Accumulator) (string, uint64, uint64) {
	t.Helper()
	h, adds, frames, err := a.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	txt, err := h.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	return string(txt), adds, frames
}

// TestEnvelopeMemoFollowsWrites: every acked AddFloats and AddHP shows in
// the next Envelope, a second Envelope with no write in between is served
// from the memo without flushing any replica, and mutating the returned HP
// does not reach the memo.
func TestEnvelopeMemoFollowsWrites(t *testing.T) {
	hook := &countingHook{lieTo: -1}
	s := New(Config{Shards: 2, Replicas: 3, Quorum: 2, ReportHook: hook.OnReport})
	defer s.Close()
	a, _, err := s.Create("acc", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	xs := rng.UniformSet(rng.New(41), 600, -1, 1)
	var fed []float64
	for i := 0; i < 6; i++ {
		frame := xs[i*100 : (i+1)*100]
		if i%2 == 0 {
			if err := a.AddFloats(append([]float64(nil), frame...)); err != nil {
				t.Fatal(err)
			}
		} else {
			h, err := core.SumHP(core.Params384, frame)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.AddHP(h); err != nil {
				t.Fatal(err)
			}
		}
		fed = append(fed, frame...)

		before := hook.reports.Load()
		txt, adds, frames := envelopeText(t, a)
		if hook.reports.Load() == before {
			t.Fatalf("frame %d: Envelope after an acked write did not flush the replicas", i)
		}
		if want := oracleHPText(t, core.Params384, fed); txt != want {
			t.Fatalf("frame %d: Envelope %s, oracle %s", i, txt, want)
		}
		if frames != uint64(i+1) {
			t.Fatalf("frame %d: Envelope frames %d, want %d", i, frames, i+1)
		}
		if i%2 == 0 && adds == 0 {
			t.Fatalf("frame %d: Envelope adds 0 after AddFloats", i)
		}

		h, _, _, err := a.Envelope()
		if err != nil {
			t.Fatal(err)
		}
		after := hook.reports.Load()
		h.SetZero() // the caller owns the copy; the memo must not see this
		again, _, _ := envelopeText(t, a)
		if hook.reports.Load() != after {
			t.Fatalf("frame %d: Envelope with no write in between flushed the replicas", i)
		}
		if again != txt {
			t.Fatalf("frame %d: memoized Envelope %s, want %s", i, again, txt)
		}
	}
}

// TestEnvelopeMemoFollowsRestoreAndReseed: a seed restore and a reseed
// after an injected replica lie both invalidate the memo.
func TestEnvelopeMemoFollowsRestoreAndReseed(t *testing.T) {
	hook := &countingHook{lieTo: 1}
	s := New(Config{Shards: 2, Replicas: 3, Quorum: 2, ReportHook: hook.OnReport})
	defer s.Close()
	a, _, err := s.Create("acc", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	xs := rng.UniformSet(rng.New(42), 400, -1, 1)
	feedFloats(t, a, xs[:200], 50)
	envelopeText(t, a) // memoize

	// Restore folds a checkpoint on top of the current state.
	seed, err := core.SumHP(core.Params384, xs[200:300])
	if err != nil {
		t.Fatal(err)
	}
	if err := a.seedRestore(&core.SumCheckpoint{Step: 100, Sum: seed}, 7, ""); err != nil {
		t.Fatal(err)
	}
	txt, adds, frames := envelopeText(t, a)
	if want := oracleHPText(t, core.Params384, xs[:300]); txt != want {
		t.Fatalf("Envelope after restore %s, oracle %s", txt, want)
	}
	if adds != 300 || frames != 4+7 {
		t.Fatalf("Envelope after restore: adds %d frames %d, want 300 and 11", adds, frames)
	}

	// A lie on replica 1 fails a certified read closed and reseeds it.
	hook.lie.Store(true)
	if _, err := a.Certified(); err == nil {
		t.Fatal("lying replica did not fail the certified read")
	}
	before := hook.reports.Load()
	if again, _, _ := envelopeText(t, a); again != txt {
		t.Fatalf("Envelope after reseed %s, want %s", again, txt)
	}
	if hook.reports.Load() == before {
		t.Fatal("Envelope after a reseed was served from the memo")
	}

	// The reseeded replica keeps tracking new frames.
	feedFloats(t, a, xs[300:], 50)
	if txt, _, _ := envelopeText(t, a); txt != oracleHPText(t, core.Params384, xs) {
		t.Fatalf("Envelope after reseed and more frames %s", txt)
	}
}

// TestEnvelopeMemoFreshAfterRecreate: a deleted and re-created name starts
// from an empty accumulator, not from the old one's memo.
func TestEnvelopeMemoFreshAfterRecreate(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	a, _, err := s.Create("acc", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	feedFloats(t, a, []float64{1, 2, 3}, 3)
	envelopeText(t, a)
	if !s.Delete("acc") {
		t.Fatal("delete failed")
	}
	b, created, err := s.Create("acc", core.Params{})
	if err != nil || !created {
		t.Fatalf("re-create: created=%v err=%v", created, err)
	}
	txt, adds, frames := envelopeText(t, b)
	if adds != 0 || frames != 0 || txt != oracleHPText(t, core.Params384, nil) {
		t.Fatalf("re-created accumulator Envelope: %s adds %d frames %d", txt, adds, frames)
	}
	feedFloats(t, b, []float64{0.5}, 1)
	if txt, _, frames := envelopeText(t, b); frames != 1 || txt != oracleHPText(t, core.Params384, []float64{0.5}) {
		t.Fatalf("re-created accumulator after one frame: %s frames %d", txt, frames)
	}
}

// TestEnvelopeConcurrentWritersNeverMissAnAck: concurrent writers and
// Envelope callers. Each Envelope reports at least the frames acked before
// it began, and at quiescence the Envelope equals the serial oracle bit for
// bit.
func TestEnvelopeConcurrentWritersNeverMissAnAck(t *testing.T) {
	const writers, readers, perWriter, frameLen = 4, 3, 60, 16
	s := New(Config{Shards: 2, Replicas: 2, Quorum: 2})
	defer s.Close()
	a, _, err := s.Create("acc", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	xs := rng.UniformSet(rng.New(43), writers*perWriter*frameLen, -1, 1)

	var acked atomic.Uint64
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for f := 0; f < perWriter; f++ {
				off := (w*perWriter + f) * frameLen
				if err := a.AddFloats(append([]float64(nil), xs[off:off+frameLen]...)); err != nil {
					t.Error(err)
					return
				}
				acked.Add(1)
			}
		}(w)
	}
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				floor := acked.Load()
				_, _, frames, err := a.Envelope()
				if err != nil {
					t.Error(err)
					return
				}
				if frames < floor {
					t.Errorf("Envelope reported %d frames after %d were acked", frames, floor)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rwg.Wait()

	txt, adds, frames := envelopeText(t, a)
	if frames != writers*perWriter || adds != uint64(len(xs)) {
		t.Fatalf("quiescent Envelope: frames %d adds %d, want %d and %d", frames, adds, writers*perWriter, len(xs))
	}
	if want := oracleHPText(t, core.Params384, xs); txt != want {
		t.Fatalf("quiescent Envelope %s, oracle %s", txt, want)
	}
}

// TestEnvelopeComputedCounterCountsOnlyMisses: the
// server_envelope_computed_total counter moves with writes, not with calls.
func TestEnvelopeComputedCounterCountsOnlyMisses(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	s := New(Config{Shards: 1})
	defer s.Close()
	a, _, err := s.Create("acc", core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	before := mEnvelopes.Value()
	for frame := 1; frame <= 3; frame++ {
		feedFloats(t, a, []float64{float64(frame)}, 1)
		for call := 0; call < 4; call++ {
			envelopeText(t, a)
		}
		if got := mEnvelopes.Value() - before; got != uint64(frame) {
			t.Fatalf("after %d frames and 4 Envelope calls each: %d envelopes computed, want %d", frame, got, frame)
		}
	}
}
