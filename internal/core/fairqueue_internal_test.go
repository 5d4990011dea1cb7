package core

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ackq"
	"repro/internal/tag"
	"repro/internal/wire"
)

func pwEnv(origin wire.ProcessID, ts uint64) wire.Envelope {
	return wire.Envelope{
		Kind:   wire.KindPreWrite,
		Origin: origin,
		Tag:    tag.Tag{TS: ts, ID: uint32(origin)},
	}
}

func wEnv(origin wire.ProcessID, ts uint64) wire.Envelope {
	e := pwEnv(origin, ts)
	e.Kind = wire.KindWrite
	return e
}

func TestFairQueuePushPopFIFOPerOrigin(t *testing.T) {
	q := newFairQueue()
	q.push(pwEnv(2, 1))
	q.push(pwEnv(2, 2))
	q.push(pwEnv(3, 1))
	if q.len() != 3 {
		t.Fatalf("len = %d", q.len())
	}
	e, ok := q.popFirst(2, 0)
	if !ok || e.Tag.TS != 1 {
		t.Fatalf("pop = %v %v", e, ok)
	}
	e, ok = q.popFirst(2, 0)
	if !ok || e.Tag.TS != 2 {
		t.Fatalf("pop = %v %v", e, ok)
	}
	if _, ok := q.popFirst(2, 0); ok {
		t.Fatal("pop from drained origin succeeded")
	}
	if q.len() != 1 {
		t.Fatalf("len = %d", q.len())
	}
}

func TestFairQueueKindFiltering(t *testing.T) {
	q := newFairQueue()
	q.push(pwEnv(2, 1))
	q.push(wEnv(2, 9))
	q.push(pwEnv(2, 2))

	e, ok := q.popFirst(2, wire.KindWrite)
	if !ok || e.Kind != wire.KindWrite || e.Tag.TS != 9 {
		t.Fatalf("pop write = %v %v", e, ok)
	}
	// Remaining pre-writes keep their relative order.
	e, _ = q.popFirst(2, wire.KindPreWrite)
	if e.Tag.TS != 1 {
		t.Fatalf("first pre_write has ts %d", e.Tag.TS)
	}
	e, _ = q.popFirst(2, wire.KindPreWrite)
	if e.Tag.TS != 2 {
		t.Fatalf("second pre_write has ts %d", e.Tag.TS)
	}
}

func TestFairQueueSelectsLeastServedOrigin(t *testing.T) {
	q := newFairQueue()
	q.push(pwEnv(2, 1))
	q.push(pwEnv(3, 1))
	q.charge(2)
	q.charge(2)
	q.charge(3)
	origin, ok := q.selectOrigin(1, false, 0)
	if !ok || origin != 3 {
		t.Fatalf("selectOrigin = %d %v, want 3", origin, ok)
	}
}

func TestFairQueueTieBreaksByFirstSeen(t *testing.T) {
	q := newFairQueue()
	q.push(pwEnv(5, 1))
	q.push(pwEnv(4, 1))
	origin, ok := q.selectOrigin(1, false, 0)
	if !ok || origin != 5 {
		t.Fatalf("selectOrigin = %d, want first-seen 5", origin)
	}
}

func TestFairQueueSelfInitiationPreference(t *testing.T) {
	q := newFairQueue()
	q.push(pwEnv(2, 1))
	q.charge(2) // origin 2 already served once
	// Self (1) has count 0 and no queued entries: initiation wins.
	origin, ok := q.selectOrigin(1, true, 0)
	if !ok || origin != 1 {
		t.Fatalf("selectOrigin = %d, want self", origin)
	}
	// Once self's count matches, forwarding wins ties.
	q.charge(1)
	origin, _ = q.selectOrigin(1, true, 0)
	if origin != 2 {
		t.Fatalf("selectOrigin = %d, want 2 on tie", origin)
	}
}

func TestFairQueueSelectWithoutSelfWhenEmpty(t *testing.T) {
	q := newFairQueue()
	if _, ok := q.selectOrigin(1, false, 0); ok {
		t.Fatal("selection from empty queue should fail")
	}
	// With includeSelf the caller may initiate even on an empty queue.
	origin, ok := q.selectOrigin(1, true, 0)
	if !ok || origin != 1 {
		t.Fatalf("selectOrigin = %d %v", origin, ok)
	}
}

func TestFairQueueResetCounts(t *testing.T) {
	q := newFairQueue()
	q.charge(2)
	q.charge(3)
	q.resetCounts()
	if q.count(2) != 0 || q.count(3) != 0 {
		t.Fatal("counts survived reset")
	}
}

func TestFairQueueTakeOrigin(t *testing.T) {
	q := newFairQueue()
	q.push(pwEnv(2, 1))
	q.push(wEnv(2, 2))
	q.push(pwEnv(3, 1))
	got := q.takeOrigin(2)
	if len(got) != 2 {
		t.Fatalf("takeOrigin returned %d envelopes", len(got))
	}
	if q.len() != 1 {
		t.Fatalf("len = %d after take", q.len())
	}
	if q.takeOrigin(2) != nil {
		t.Fatal("second take should return nil")
	}
}

func TestFairQueueFIFOPopOrder(t *testing.T) {
	q := newFairQueue()
	q.push(pwEnv(2, 1))
	q.push(pwEnv(3, 1))
	q.push(pwEnv(2, 2))
	var got []string
	for {
		e, ok := q.fifoPop()
		if !ok {
			break
		}
		got = append(got, fmt.Sprintf("%d/%d", e.Origin, e.Tag.TS))
	}
	// First-seen origin drains first in the FIFO ablation.
	want := []string{"2/1", "2/2", "3/1"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fifo order = %v, want %v", got, want)
		}
	}
}

// TestFairQueueNoStarvation is the liveness property behind paper §4.2:
// under round-robin arrivals with a saturated link, every origin's
// messages keep flowing — the gap between any two origins' forwarded
// counts stays bounded.
func TestFairQueueNoStarvation(t *testing.T) {
	prop := func(seed uint32) bool {
		q := newFairQueue()
		origins := []wire.ProcessID{2, 3, 4, 5}
		forwarded := make(map[wire.ProcessID]int)
		rng := seed
		next := func(n int) int {
			rng = rng*1664525 + 1013904223
			return int(rng>>16) % n
		}
		ts := uint64(0)
		for step := 0; step < 2000; step++ {
			// Adversarial arrivals: a biased origin floods the queue.
			arrivals := 1 + next(2)
			for a := 0; a < arrivals; a++ {
				var o wire.ProcessID
				if next(4) < 3 {
					o = origins[0] // flooder
				} else {
					o = origins[1+next(3)]
				}
				ts++
				q.push(pwEnv(o, ts))
			}
			// One send slot per step.
			if origin, ok := q.selectOrigin(1, false, 0); ok {
				if _, popped := q.popFirst(origin, 0); popped {
					q.charge(origin)
					forwarded[origin]++
				}
			}
		}
		// Every origin that had traffic must have been served.
		for _, o := range origins[1:] {
			if forwarded[o] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectStateApplyAndPrune(t *testing.T) {
	o := newObjectState()
	if o.apply(tag.Zero, nil) {
		t.Fatal("zero tag must not apply")
	}
	if !o.apply(tag.Tag{TS: 2, ID: 1}, []byte("a")) {
		t.Fatal("newer tag must apply")
	}
	if o.apply(tag.Tag{TS: 1, ID: 9}, []byte("b")) {
		t.Fatal("older tag must not apply")
	}
	if string(o.value) != "a" {
		t.Fatalf("value = %q", o.value)
	}

	o.pending.add(tag.Tag{TS: 1, ID: 1}, nil)
	o.pending.add(tag.Tag{TS: 2, ID: 5}, nil)
	o.pending.add(tag.Tag{TS: 9, ID: 1}, nil)
	o.prune(tag.Tag{TS: 2, ID: 5})
	if o.pending.size() != 1 {
		t.Fatalf("pending size = %d, want only [9/1]", o.pending.size())
	}
	if _, ok := o.pending.get(tag.Tag{TS: 9, ID: 1}); !ok {
		t.Fatal("high pending entry pruned")
	}
}

func TestObjectStateReadableNow(t *testing.T) {
	o := newObjectState()
	if !o.readableNow() {
		t.Fatal("empty pending must be readable")
	}
	o.pending.add(tag.Tag{TS: 5, ID: 1}, nil)
	if o.readableNow() {
		t.Fatal("pending above stored tag must block reads")
	}
	o.apply(tag.Tag{TS: 6, ID: 1}, []byte("newer"))
	if !o.readableNow() {
		t.Fatal("stored tag dominating pending must be readable")
	}
}

// TestObjectStateParkAndRelease drives the in-place parked-read release
// through applyAndRelease: the queued acks name the released clients and
// the survivors stay parked in the same backing array. The ack sender's
// fast path runs on the enqueueing goroutine, so a recording trySend
// sees every ack synchronously.
func TestObjectStateParkAndRelease(t *testing.T) {
	var q []outFrame
	s := &Server{acks: ackq.NewSharded(nil, func(to wire.ProcessID, f wire.Frame) bool {
		q = append(q, outFrame{to: to, f: f})
		return true
	}, nil)}
	defer s.acks.Stop()
	o := newObjectState()
	o.park(100, 1, tag.Tag{TS: 3, ID: 1})
	o.park(101, 2, tag.Tag{TS: 5, ID: 1})
	s.applyAndRelease(7, o, tag.Tag{TS: 3, ID: 1}, []byte("x"))
	if len(q) != 1 || q[0].to != 100 {
		t.Fatalf("acks after first apply = %+v", q)
	}
	if len(o.parked) != 1 || o.parked[0].client != 101 {
		t.Fatalf("parked = %+v", o.parked)
	}
	s.applyAndRelease(7, o, tag.Tag{TS: 7, ID: 2}, []byte("y"))
	if len(q) != 2 || q[1].to != 101 {
		t.Fatalf("acks after second apply = %+v", q)
	}
	if len(o.parked) != 0 {
		t.Fatalf("parked = %+v", o.parked)
	}
	if got := q[1].f.Env; got.Kind != wire.KindReadAck || string(got.Value) != "y" {
		t.Fatalf("released ack = %+v", &got)
	}
}

func TestMaxPending(t *testing.T) {
	o := newObjectState()
	if !o.maxPending().IsZero() {
		t.Fatal("empty pending must have zero max")
	}
	o.pending.add(tag.Tag{TS: 2, ID: 3}, nil)
	o.pending.add(tag.Tag{TS: 2, ID: 1}, nil)
	if got := o.maxPending(); got != (tag.Tag{TS: 2, ID: 3}) {
		t.Fatalf("maxPending = %s", got)
	}
}

// TestFairQueueInterleavedKindOrder pins the indexed queue's kind-any
// view: pops with kind 0 return the origin's envelopes in arrival
// order even when the kinds interleave across buckets.
func TestFairQueueInterleavedKindOrder(t *testing.T) {
	q := newFairQueue()
	q.push(pwEnv(2, 1))
	q.push(wEnv(2, 2))
	q.push(pwEnv(2, 3))
	q.push(wEnv(2, 4))
	for want := uint64(1); want <= 4; want++ {
		e, ok := q.popFirst(2, 0)
		if !ok || e.Tag.TS != want {
			t.Fatalf("pop %d = %v %v", want, e, ok)
		}
	}
}

// TestFairQueueIndexedMatchesReference drives the indexed queue and a
// naive slice-based reference with the same random operation sequence
// and requires identical results — the invariant suite for the O(1)
// (origin, kind) index.
func TestFairQueueIndexedMatchesReference(t *testing.T) {
	prop := func(seed uint32) bool {
		q := newFairQueue()
		ref := make(map[wire.ProcessID][]wire.Envelope)
		origins := []wire.ProcessID{2, 3, 4}
		kinds := []wire.Kind{0, wire.KindPreWrite, wire.KindWrite}
		rng := seed
		next := func(n int) int {
			rng = rng*1664525 + 1013904223
			return int(rng>>16) % n
		}
		refPop := func(origin wire.ProcessID, k wire.Kind) (wire.Envelope, bool) {
			queue := ref[origin]
			for i := range queue {
				if k == 0 || queue[i].Kind == k {
					env := queue[i]
					ref[origin] = append(queue[:i:i], queue[i+1:]...)
					return env, true
				}
			}
			return wire.Envelope{}, false
		}
		ts := uint64(0)
		for step := 0; step < 500; step++ {
			origin := origins[next(len(origins))]
			k := kinds[next(len(kinds))]
			switch next(4) {
			case 0, 1: // push
				ts++
				env := pwEnv(origin, ts)
				if next(2) == 0 {
					env.Kind = wire.KindWrite
				}
				q.push(env)
				ref[origin] = append(ref[origin], env)
			case 2: // pop first of kind
				got, gok := q.popFirst(origin, k)
				want, wok := refPop(origin, k)
				if gok != wok || !reflect.DeepEqual(got, want) {
					t.Logf("step %d: popFirst(%d,%d) = (%v,%v), want (%v,%v)", step, origin, k, got, gok, want, wok)
					return false
				}
			case 3: // peek + hasKind must agree with the reference head
				got, gok := q.peekFirst(origin, k)
				queue := ref[origin]
				var want wire.Envelope
				wok := false
				for i := range queue {
					if k == 0 || queue[i].Kind == k {
						want, wok = queue[i], true
						break
					}
				}
				if gok != wok || !reflect.DeepEqual(got, want) || q.hasKind(origin, k) != wok {
					return false
				}
			}
		}
		// Drain via takeOrigin and compare full order.
		for _, origin := range origins {
			got := q.takeOrigin(origin)
			want := ref[origin]
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					return false
				}
			}
		}
		return q.len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFairQueueCompaction runs enough interleaved pushes and pops to
// trigger the popped-prefix compaction and checks order survives it.
func TestFairQueueCompaction(t *testing.T) {
	q := newFairQueue()
	next := uint64(1)
	popped := uint64(1)
	for i := 0; i < 50; i++ {
		for j := 0; j < 10; j++ {
			q.push(pwEnv(2, next))
			next++
		}
		for j := 0; j < 9; j++ {
			e, ok := q.popFirst(2, wire.KindPreWrite)
			if !ok || e.Tag.TS != popped {
				t.Fatalf("pop = (%v,%v), want ts %d", e, ok, popped)
			}
			popped++
		}
	}
	if got := q.len(); got != 50 {
		t.Fatalf("len = %d, want 50", got)
	}
	for ; popped < next; popped++ {
		e, ok := q.popFirst(2, 0)
		if !ok || e.Tag.TS != popped {
			t.Fatalf("drain pop = (%v,%v), want ts %d", e, ok, popped)
		}
	}
}
