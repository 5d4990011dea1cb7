package scenario

import (
	"path/filepath"
	"time"

	"repro/atomicstore"
)

// Canonical returns the library of canonical adversarial scenarios —
// the regression suite every push runs under -race. Durable scenarios
// place their write-ahead logs under walDir (one subdirectory per
// scenario); pass a fresh temporary directory.
//
// Sequential scenarios are fully deterministic (same seed ⇒ same
// schedule and history); concurrent ones deterministically schedule
// faults over a racing workload and rely on the checker alone.
func Canonical(walDir string) []Scenario {
	return []Scenario{
		{
			// The fault-free control: proves the harness itself (runner,
			// settle, checker wiring) passes a calm cluster.
			Name:    "calm-baseline",
			Script:  "",
			Servers: 3, Ops: 40,
		},
		{
			// Majority/minority split under concurrent write load. No
			// failure detector fires (drops are silent), so every write
			// wedges until the partition heals; reads keep flowing and
			// must stay atomic throughout, and settle proves the healed
			// ring prunes the wedged pre-writes.
			Name: "split-brain-write-storm",
			Script: `
				at 10ms partition 1,2 | 3,4,5
				at 35ms heal
			`,
			Servers: 5, Clients: 4, Concurrent: true, Duration: 60 * time.Millisecond,
		},
		{
			// The deterministic split-brain twin: single-threaded ops
			// across the same partition window. This is the scenario the
			// determinism test replays byte-for-byte.
			Name: "split-brain-sequential",
			Script: `
				at 10ms partition 1 | 2,3
				at 18ms heal
			`,
			Servers: 3, Ops: 30,
		},
		{
			// A link that flaps faster than anyone can react: the ring
			// edge 1<->2 goes dark three times. Writes wedge during the
			// dark windows, recover in between.
			Name: "flapping-link",
			Script: `
				at 6ms drop 100% 1<->2
				at 10ms clear 1<->2
				at 18ms drop 100% 1<->2
				at 22ms clear 1<->2
				at 30ms drop 100% 1<->2
				at 34ms clear 1<->2
			`,
			Servers: 3, Ops: 40,
		},
		{
			// One uniformly slow server: everything into server 3 takes
			// 3ms +0..2ms. The convoy forms behind the slow ring hop;
			// nothing may be lost or reordered into a violation.
			Name:    "one-slow-server-convoy",
			Script:  "at 0s delay 3ms jitter 2ms *->3",
			Servers: 3, Ops: 30,
		},
		{
			// Kill every server mid-storm with a write-ahead log, then
			// restart the full membership: acked writes must survive the
			// replay, torn tails and re-acks are legitimate.
			Name:   "kill-mid-train-restart",
			Script: "at 25ms crash all\nat 29ms restart all",
			Options: []atomicstore.Option{
				atomicstore.WithDurability(filepath.Join(walDir, "kill-mid-train-restart")),
			},
			Servers: 3, Clients: 3, Concurrent: true, Duration: 55 * time.Millisecond,
			Expect: Expect{AllowAckFailures: true, AllowTornTails: true},
		},
		{
			// Asymmetric loss on one successor link: 40% of the frames
			// 1->2 vanish (the reverse direction is clean). Wedged
			// attempts become ghost writes; the history must absorb them.
			Name:    "asymmetric-loss-successor",
			Script:  "at 0s drop 40% 1->2",
			Servers: 5, Ops: 30,
		},
		{
			// Two uncorrelated crashes, no restart: the ring splices
			// twice and the surviving majority carries the store. Crash
			// notices may fail in-flight acks.
			Name:    "crash-minority-no-restart",
			Script:  "at 12ms crash random\nat 24ms crash random",
			Servers: 5, Ops: 40,
			Expect: Expect{AllowAckFailures: true},
		},
		{
			// Jitter larger than the base delay on every ring link:
			// constant reordering of ring traffic, including between the
			// pre-write and write phases of one operation.
			Name:    "jitter-reorder-ring",
			Script:  "at 0s delay 1ms jitter 3ms ring",
			Servers: 3, Ops: 30,
		},
		{
			// Clients cannot reach server 1 at all (their request frames
			// vanish; ring traffic and acks are untouched): every op
			// landing there must fail over with backoff and still
			// linearize.
			Name:    "client-isolation-failover",
			Script:  "at 0s drop 100% clients->1",
			Servers: 3, Ops: 30,
		},
	}
}

// InjectedBug is the self-test of the harness: a calm scenario whose
// recorded history is deliberately falsified with a stale read after
// the run. Run of this scenario MUST fail; a pass means the checker
// wiring has gone vacuous.
func InjectedBug() Scenario {
	return Scenario{
		Name:           "injected-stale-read",
		Script:         "",
		Servers:        3,
		Ops:            20,
		CorruptHistory: true,
	}
}
