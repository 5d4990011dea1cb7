package core

import (
	"testing"
	"testing/quick"

	"repro/internal/tag"
	"repro/internal/wire"
)

// TestTrainPlanMultipleInitiations: with an empty forward queue and
// several queued local writes, a train fills its slots with initiations
// — and when they hit the same object, each gets a strictly larger tag
// than the previous.
func TestTrainPlanMultipleInitiations(t *testing.T) {
	h := newStormHarness(t, 0, func(c *Config) { c.TrainLength = 8 })
	ln := h.s.lane
	for i := 0; i < 3; i++ {
		ln.onWriteRequest(500, &wire.Envelope{Kind: wire.KindWriteRequest, Object: 0, ReqID: uint64(i), Value: []byte{byte(i)}})
	}
	of := ln.nextFrame()
	envs := of.f.Envelopes()
	if len(envs) != 3 {
		t.Fatalf("frame carries %d envelopes, want 3 initiations", len(envs))
	}
	var prev tag.Tag
	for i, env := range envs {
		if env.Kind != wire.KindPreWrite || env.Origin != h.s.cfg.ID {
			t.Fatalf("envelope %d is not an initiation: %+v", i, env)
		}
		if !env.Tag.After(prev) {
			t.Fatalf("envelope %d tag %s does not supersede %s", i, env.Tag, prev)
		}
		prev = env.Tag
	}
	// The frame popped all three intents and recorded three in-flight
	// writes under its (distinct) tags.
	if len(ln.writeQueue) != 0 {
		t.Fatalf("writeQueue = %d after the frame, want 0", len(ln.writeQueue))
	}
	if len(ln.myWrites) != 3 {
		t.Fatalf("myWrites = %d, want 3", len(ln.myWrites))
	}
}

// TestTrainPlanInterleavesForwardsAndInitiations: the per-envelope
// fairness rule alternates between forwarding the least-served origins
// and initiating local writes within one frame.
func TestTrainPlanInterleavesForwardsAndInitiations(t *testing.T) {
	h := newStormHarness(t, 0, func(c *Config) { c.TrainLength = 8 })
	ln := h.s.lane
	// Two queued forwards from distinct origins, two local writes.
	ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Object: 0, Tag: tag.Tag{TS: 1, ID: 2}, Origin: 2, Value: []byte("a")})
	ln.onPreWrite(&wire.Envelope{Kind: wire.KindPreWrite, Object: 0, Tag: tag.Tag{TS: 2, ID: 3}, Origin: 3, Value: []byte("b")})
	ln.onWriteRequest(500, &wire.Envelope{Kind: wire.KindWriteRequest, Object: 0, ReqID: 1, Value: []byte("w1")})
	ln.onWriteRequest(500, &wire.Envelope{Kind: wire.KindWriteRequest, Object: 0, ReqID: 2, Value: []byte("w2")})

	of := ln.nextFrame()
	inits, forwards := 0, 0
	for _, env := range of.f.Envelopes() {
		if env.Origin == h.s.cfg.ID {
			inits++
		} else {
			forwards++
		}
	}
	if inits != 2 || forwards != 2 {
		t.Fatalf("frame has %d initiations and %d forwards, want 2+2", inits, forwards)
	}
	if !ln.fq.empty() || len(ln.writeQueue) != 0 {
		t.Fatalf("frame left fq=%d writeQueue=%d", ln.fq.len(), len(ln.writeQueue))
	}
}

// TestTrainFairness replays the no-starvation property through the
// queue handler: trains of K slots, each awarded by the fairness rule and
// charged before the next, must keep serving every origin even against a
// flooder.
func TestTrainFairness(t *testing.T) {
	origins := []wire.ProcessID{2, 3, 4, 5}
	prop := func(seed uint32) bool {
		h := newStormHarness(t, 0, func(c *Config) {
			c.Members = append([]wire.ProcessID{1}, origins...)
			c.TrainLength = 4
		})
		ln := h.s.lane
		forwarded := make(map[wire.ProcessID]int)
		rng := seed
		next := func(n int) int {
			rng = rng*1664525 + 1013904223
			return int(rng>>16) % n
		}
		ts := uint64(0)
		for step := 0; step < 500; step++ {
			arrivals := 1 + next(4)
			for a := 0; a < arrivals; a++ {
				o := origins[0] // flooder
				if next(4) == 3 {
					o = origins[1+next(3)]
				}
				ts++
				ln.fq.push(pwEnv(o, ts))
			}
			// One train per step.
			of := ln.nextFrame()
			for _, env := range of.f.Envelopes() {
				forwarded[env.Origin]++
			}
		}
		for _, o := range origins {
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
