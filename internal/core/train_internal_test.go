package core

import (
	"testing"

	"repro/internal/tag"
	"repro/internal/wire"
)

// TestTrainPlanMultipleInitiations: with an empty forward queue and
// several queued local writes, a train plan fills its slots with
// initiations — and when they hit the same object, each gets a strictly
// larger tag than the previous (object state only moves at commit).
func TestTrainPlanMultipleInitiations(t *testing.T) {
	h := newStormHarness(t, 0, func(c *Config) { c.WriteLanes = 1; c.TrainLength = 8 })
	ln := h.s.lanes[0]
	for i := 0; i < 3; i++ {
		ln.onWriteRequest(500, &wire.Envelope{Kind: wire.KindWriteRequest, Object: 0, ReqID: uint64(i), Value: []byte{byte(i)}})
	}
	plan := ln.planRingSend()
	if !plan.ok || len(plan.items) != 3 {
		t.Fatalf("plan = ok:%v items:%d, want 3 initiations", plan.ok, len(plan.items))
	}
	var prev tag.Tag
	for i, it := range plan.items {
		if !it.initiate || it.env.Kind != wire.KindPreWrite {
			t.Fatalf("item %d is not an initiation: %+v", i, it)
		}
		if !it.env.Tag.After(prev) {
			t.Fatalf("item %d tag %s does not supersede %s", i, it.env.Tag, prev)
		}
		prev = it.env.Tag
	}
	// Committing must pop all three intents and record three in-flight
	// writes under the planned (distinct) tags.
	ln.commitRingSend(plan)
	if len(ln.writeQueue) != 0 {
		t.Fatalf("writeQueue = %d after commit, want 0", len(ln.writeQueue))
	}
	if len(ln.myWrites) != 3 {
		t.Fatalf("myWrites = %d, want 3", len(ln.myWrites))
	}
}

// TestTrainPlanInterleavesForwardsAndInitiations: the per-envelope
// fairness rule alternates between forwarding the least-served origins
// and initiating local writes within one frame.
func TestTrainPlanInterleavesForwardsAndInitiations(t *testing.T) {
	h := newStormHarness(t, 0, func(c *Config) { c.WriteLanes = 1; c.TrainLength = 8 })
	ln := h.s.lanes[0]
	// Two queued forwards from distinct origins, two local writes.
	ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Object: 0, Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2, Value: []byte("a")})
	ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Object: 0, Tag: tag.Tag{TS: 2, ID: 3}, Origin: 3, Value: []byte("b")})
	ln.onWriteRequest(500, &wire.Envelope{Kind: wire.KindWriteRequest, Object: 0, ReqID: 1, Value: []byte("w1")})
	ln.onWriteRequest(500, &wire.Envelope{Kind: wire.KindWriteRequest, Object: 0, ReqID: 2, Value: []byte("w2")})

	plan := ln.planRingSend()
	if !plan.ok || len(plan.items) != 4 {
		t.Fatalf("plan = ok:%v items:%d, want 4", plan.ok, len(plan.items))
	}
	inits, forwards := 0, 0
	for _, it := range plan.items {
		if it.initiate {
			inits++
		} else {
			forwards++
		}
	}
	if inits != 2 || forwards != 2 {
		t.Fatalf("plan has %d initiations and %d forwards, want 2+2", inits, forwards)
	}
	if got := plan.frame.EnvelopeCount(); got != 4 {
		t.Fatalf("frame carries %d envelopes, want 4", got)
	}
	ln.commitRingSend(plan)
	if !ln.fq.empty() || len(ln.writeQueue) != 0 {
		t.Fatalf("commit left fq=%d writeQueue=%d", ln.fq.len(), len(ln.writeQueue))
	}
}
