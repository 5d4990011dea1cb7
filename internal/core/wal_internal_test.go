package core

import (
	"testing"

	"repro/internal/tag"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestReplayRoutesRecordsToTheirLanes stages records on every lane of a
// 4-lane server, kills it, and inspects the reopened server between
// NewServer and Start. Every lane's records share one log, so replay
// must route each record by its object: a lane's in-flight own writes
// and re-queued ring traffic hold exactly its own objects.
func TestReplayRoutesRecordsToTheirLanes(t *testing.T) {
	const objects = 16
	dir := t.TempDir()
	mod := func(c *Config) {
		c.WriteLanes = 4
		c.WAL = wal.Config{Dir: dir}
	}
	h := newStormHarness(t, 0, mod)
	s := h.s
	own := make([]map[wire.ObjectID]bool, len(s.lanes))    // own writes in flight, per lane
	queued := make([]map[wire.ObjectID]bool, len(s.lanes)) // objects with ring traffic to resume
	for i := range s.lanes {
		own[i], queued[i] = map[wire.ObjectID]bool{}, map[wire.ObjectID]bool{}
	}
	for obj := wire.ObjectID(0); obj < objects; obj++ {
		ln := h.lane(obj)
		if obj%2 == 0 {
			// A client write this server initiates: RecInit at commit.
			ln.onWriteRequest(500, &wire.Envelope{Kind: wire.KindWriteRequest, Object: obj, ReqID: uint64(obj) + 1, Value: []byte{byte(obj)}})
			own[ln.idx][obj] = true
		} else {
			// A pre-write forwarded from server 2: RecPreWrite at receive.
			ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Object: obj, Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2, Value: []byte{byte(obj)}})
		}
		queued[ln.idx][obj] = true
	}
	for i := range s.lanes {
		if len(own[i]) == 0 || len(queued[i]) == len(own[i]) {
			t.Fatalf("setup: lane %d has %d own writes of %d objects; want both kinds", i, len(own[i]), len(queued[i]))
		}
	}
	for _, ln := range s.lanes {
		for plan := ln.planRingSend(); plan.ok; plan = ln.planRingSend() {
			ln.commitRingSend(plan)
			<-ln.gatec // the sender's receive, which pairs with each commit
		}
	}
	s.wal.Start()
	for _, ln := range s.lanes {
		if err := s.wal.WaitLane(ln.idx, ln.walSeq, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Kill()

	re := newStormHarness(t, 0, mod).s
	defer re.Stop()
	if re.WALStats().Replayed == 0 {
		t.Fatal("nothing replayed")
	}
	for i, ln := range re.lanes {
		gotOwn := map[wire.ObjectID]bool{}
		for key := range ln.myWrites {
			gotOwn[key.object] = true
		}
		gotQueued := map[wire.ObjectID]bool{}
		for _, origin := range ln.fq.order {
			for _, env := range ln.fq.envelopesOf(origin) {
				gotQueued[env.Object] = true
			}
		}
		if !sameObjects(gotOwn, own[i]) {
			t.Errorf("lane %d own writes after replay: %v, want %v", i, gotOwn, own[i])
		}
		if !sameObjects(gotQueued, queued[i]) {
			t.Errorf("lane %d re-queued objects after replay: %v, want %v", i, gotQueued, queued[i])
		}
	}
}

func sameObjects(a, b map[wire.ObjectID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for obj := range a {
		if !b[obj] {
			return false
		}
	}
	return true
}
