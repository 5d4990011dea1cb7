package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/atomicstore"
	"repro/internal/checker"
)

// tick is the virtual time one sequential operation advances the
// scenario clock by: 'at 10ms' in a script fires just before the 10th
// operation. Concurrent scenarios interpret script times as wall-clock
// offsets from workload start instead.
const tick = time.Millisecond

// opBudget is the hard per-operation safety net; real attempt limits
// come from the client options.
const opBudget = 30 * time.Second

// Expect declares which counter invariants a scenario is allowed to
// relax. The unconditional ones (RecoveryBufferLeaks, LaneDrops) can
// never be relaxed.
type Expect struct {
	// AllowAckFailures permits AckSendFailures > 0 — legitimate when
	// servers crash or restart with client acks in flight.
	AllowAckFailures bool
	// AllowTornTails permits WALTornTails > 0 — legitimate after a
	// kill with staged unsynced records.
	AllowTornTails bool
}

// Scenario is one scripted adversarial run against a real cluster.
type Scenario struct {
	// Name identifies the scenario in test names and dumps.
	Name string
	// Script is the fault schedule in the DSL of ParseScript.
	Script string
	// Servers, Objects, Clients size the deployment. Defaults: 3, 2, 2.
	Servers int
	Objects int
	Clients int
	// Ops is the total operation count of a sequential run (default
	// 40); the virtual clock is Ops ticks long.
	Ops int
	// Duration is the wall-clock storm length of a concurrent run
	// (default 60ms); clients issue operations until it elapses.
	Duration time.Duration
	// Concurrent switches from the deterministic single-threaded
	// workload (byte-identical histories per seed) to a goroutine-per-
	// client storm (deterministic fault schedule, racy histories).
	Concurrent bool
	// Seed controls every random draw: operation mix, crash victims,
	// probabilistic drops, delay jitter. Default 1.
	Seed int64
	// Options extend the cluster configuration (and its clients).
	Options []atomicstore.Option
	// Expect relaxes counter invariants the scenario legitimately
	// violates.
	Expect Expect
	// CorruptHistory deliberately falsifies the recorded history after
	// the run — a stale read no atomic register can produce — to prove
	// the harness catches real violations. Such a scenario must fail.
	CorruptHistory bool
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Servers == 0 {
		sc.Servers = 3
	}
	if sc.Objects == 0 {
		sc.Objects = 2
	}
	if sc.Clients == 0 {
		sc.Clients = 2
	}
	if sc.Ops == 0 {
		sc.Ops = 40
	}
	if sc.Duration == 0 {
		sc.Duration = 60 * time.Millisecond
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	return sc
}

// Result is the outcome of one scenario run. Failure is nil when the
// history linearized and every counter invariant held.
type Result struct {
	Scenario Scenario
	Schedule []string
	History  map[atomicstore.ObjectID][]checker.Op
	Counters map[atomicstore.ServerID]atomicstore.Counters
	Failure  error
}

// Dump renders everything needed to replay and debug a failed run:
// name, seed, script, event schedule, per-object history, counters.
func (r *Result) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s seed=%d servers=%d objects=%d clients=%d concurrent=%v\n",
		r.Scenario.Name, r.Scenario.Seed, r.Scenario.Servers, r.Scenario.Objects,
		r.Scenario.Clients, r.Scenario.Concurrent)
	b.WriteString("script:\n")
	for _, line := range strings.Split(strings.TrimRight(r.Scenario.Script, "\n"), "\n") {
		fmt.Fprintf(&b, "  %s\n", strings.TrimSpace(line))
	}
	b.WriteString("schedule:\n")
	for _, line := range r.Schedule {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	b.WriteString("history:\n")
	for _, obj := range sortedObjects(r.History) {
		fmt.Fprintf(&b, "  object %d:\n", obj)
		for _, op := range r.History[obj] {
			inc := ""
			if op.Incomplete {
				inc = " incomplete"
			}
			fmt.Fprintf(&b, "    %v%s\n", op, inc)
		}
	}
	b.WriteString("counters:\n")
	ids := make([]atomicstore.ServerID, 0, len(r.Counters))
	for id := range r.Counters {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(&b, "  server %d: %+v\n", id, r.Counters[id])
	}
	if r.Failure != nil {
		fmt.Fprintf(&b, "failure: %v\n", r.Failure)
	}
	return b.String()
}

func sortedObjects(m map[atomicstore.ObjectID][]checker.Op) []atomicstore.ObjectID {
	objs := make([]atomicstore.ObjectID, 0, len(m))
	for obj := range m {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	return objs
}

// firing is one expanded, scheduled action.
type firing struct {
	at  time.Duration
	seq int
	act Action
}

// expand flattens the script into a sorted firing list; 'every'
// repetitions without an 'until' stop at the horizon.
func expand(script *Script, horizon time.Duration) []firing {
	var fs []firing
	seq := 0
	for _, e := range script.Events {
		if e.Every == 0 {
			fs = append(fs, firing{at: e.At, seq: seq, act: e.Act})
			seq++
			continue
		}
		until := e.Until
		if until == 0 {
			until = horizon
		}
		for t := e.Every; t <= until; t += e.Every {
			fs = append(fs, firing{at: t, seq: seq, act: e.Act})
			seq++
		}
	}
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].at != fs[j].at {
			return fs[i].at < fs[j].at
		}
		return fs[i].seq < fs[j].seq
	})
	return fs
}

type runner struct {
	sc      Scenario
	rng     *rand.Rand
	cluster *atomicstore.Cluster
	eng     *engine
	members []atomicstore.ServerID

	mu       sync.Mutex
	crashed  map[atomicstore.ServerID]bool
	schedule []string
	hist     map[atomicstore.ObjectID][]checker.Op
	clock    int64
	failures []error
}

// Run executes one scenario end to end: start a real cluster, drive
// the scripted faults and workload, heal, settle, then validate the
// per-object histories with the linearizability checker and assert the
// counter invariants. The returned Result carries everything needed to
// replay a failure byte-for-byte.
func Run(sc Scenario) *Result {
	sc = sc.withDefaults()
	res := &Result{Scenario: sc}
	script, err := ParseScript(sc.Script)
	if err != nil {
		res.Failure = err
		return res
	}

	// Scenario-friendly client defaults (fast failover, bounded
	// wedging under partitions); sc.Options may override any of them.
	opts := append([]atomicstore.Option{
		atomicstore.WithAttemptTimeout(150 * time.Millisecond),
		atomicstore.WithMaxAttempts(2),
		atomicstore.WithRetryBackoff(time.Millisecond, 16*time.Millisecond),
	}, sc.Options...)
	cluster, err := atomicstore.StartCluster(sc.Servers, opts...)
	if err != nil {
		res.Failure = err
		return res
	}
	defer cluster.Close()

	r := &runner{
		sc:      sc,
		rng:     rand.New(rand.NewSource(sc.Seed)),
		cluster: cluster,
		eng:     newEngine(sc.Seed, cluster.Members()),
		members: cluster.Members(),
		crashed: make(map[atomicstore.ServerID]bool),
		hist:    make(map[atomicstore.ObjectID][]checker.Op),
	}
	cluster.Network().SetFaultInjector(r.eng)

	clients := make([]*atomicstore.Client, sc.Clients)
	for i := range clients {
		cl, err := cluster.Client()
		if err != nil {
			res.Failure = err
			return res
		}
		defer cl.Close()
		clients[i] = cl
	}

	horizon := time.Duration(sc.Ops) * tick
	if sc.Concurrent {
		horizon = sc.Duration
	}
	firings := expand(script, horizon)
	if sc.Concurrent {
		r.runConcurrent(clients, firings, horizon)
	} else {
		r.runSequential(clients, firings)
	}

	r.settle()
	if sc.CorruptHistory {
		r.corrupt()
	}
	r.collect(res)
	r.check(res)
	res.Schedule = r.schedule
	res.History = r.hist
	res.Failure = errors.Join(r.failures...)
	return res
}

// runSequential is the deterministic mode: a single thread interleaves
// scripted faults and operations on a virtual clock (one tick per op)
// and stamps history with a logical counter, so the same seed and
// script reproduce the schedule and the history byte-for-byte.
func (r *runner) runSequential(clients []*atomicstore.Client, firings []firing) {
	fi := 0
	for op := 0; op < r.sc.Ops; op++ {
		now := time.Duration(op+1) * tick
		for fi < len(firings) && firings[fi].at <= now {
			r.fire(firings[fi].at, firings[fi].act)
			fi++
		}
		r.step(op, clients[op%len(clients)])
	}
	for ; fi < len(firings); fi++ {
		r.fire(firings[fi].at, firings[fi].act)
	}
}

// step issues one sequential operation and records its history entry.
func (r *runner) step(op int, cl *atomicstore.Client) {
	ctx, cancel := context.WithTimeout(context.Background(), opBudget)
	defer cancel()
	obj := atomicstore.ObjectID(r.rng.Intn(r.sc.Objects))
	if r.rng.Intn(100) < 60 {
		v := fmt.Sprintf("v%d", op)
		start := r.stamp()
		tg, attempts, err := cl.WriteDetailed(ctx, obj, []byte(v))
		end := r.stamp()
		r.recordWrite(obj, op, v, start, end, tg, attempts, err)
		if err != nil {
			r.sched(fmt.Sprintf("t=%s op %d: write obj%d %s FAILED after %d attempts: %v",
				time.Duration(op+1)*tick, op, obj, v, attempts, err))
		} else {
			r.sched(fmt.Sprintf("t=%s op %d: write obj%d %s = %s attempts=%d",
				time.Duration(op+1)*tick, op, obj, v, tg, attempts))
		}
		return
	}
	start := r.stamp()
	val, tg, err := cl.Read(ctx, obj)
	end := r.stamp()
	if err != nil {
		r.sched(fmt.Sprintf("t=%s op %d: read obj%d FAILED: %v", time.Duration(op+1)*tick, op, obj, err))
		return // unanswered reads constrain nothing
	}
	r.record(obj, checker.Op{ID: op, Kind: checker.KindRead, Value: string(val), Start: start, End: end, Tag: tg})
	r.sched(fmt.Sprintf("t=%s op %d: read obj%d = %q %s", time.Duration(op+1)*tick, op, obj, val, tg))
}

// runConcurrent is the storm mode: one goroutine per client hammers
// the cluster while the scripted faults fire at wall-clock offsets.
// The fault schedule stays deterministic; the history is checked, not
// reproduced.
func (r *runner) runConcurrent(clients []*atomicstore.Client, firings []firing, horizon time.Duration) {
	stopc := make(chan struct{})
	var wg sync.WaitGroup
	for ci, cl := range clients {
		wg.Add(1)
		go func(ci int, cl *atomicstore.Client) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(r.sc.Seed + int64(ci) + 1))
			for i := 0; ; i++ {
				select {
				case <-stopc:
					return
				default:
				}
				r.stormOp(crng, ci, i, cl)
			}
		}(ci, cl)
	}
	start := time.Now()
	for _, f := range firings {
		if d := time.Until(start.Add(f.at)); d > 0 {
			time.Sleep(d)
		}
		r.fire(f.at, f.act)
	}
	if rem := time.Until(start.Add(horizon)); rem > 0 {
		time.Sleep(rem)
	}
	close(stopc)
	wg.Wait()
}

// stormOp issues one concurrent-mode operation with real-time stamps.
func (r *runner) stormOp(crng *rand.Rand, ci, i int, cl *atomicstore.Client) {
	ctx, cancel := context.WithTimeout(context.Background(), opBudget)
	defer cancel()
	obj := atomicstore.ObjectID(crng.Intn(r.sc.Objects))
	id := ci*1_000_000 + i
	if crng.Intn(100) < 60 {
		v := fmt.Sprintf("c%d-%d", ci, i)
		start := time.Now().UnixNano()
		tg, attempts, err := cl.WriteDetailed(ctx, obj, []byte(v))
		r.recordWrite(obj, id, v, start, time.Now().UnixNano(), tg, attempts, err)
		return
	}
	start := time.Now().UnixNano()
	val, tg, err := cl.Read(ctx, obj)
	if err != nil {
		return
	}
	r.record(obj, checker.Op{ID: id, Kind: checker.KindRead, Value: string(val), Start: start, End: time.Now().UnixNano(), Tag: tg})
}

// recordWrite applies the ghost-write idiom: a failed write, or the
// timed-out earlier attempts of a retried one, may have taken effect
// without an acknowledgement and are recorded as incomplete.
func (r *runner) recordWrite(obj atomicstore.ObjectID, id int, v string, start, end int64, tg atomicstore.Version, attempts int, err error) {
	if err != nil {
		r.record(obj, checker.Op{ID: id, Kind: checker.KindWrite, Value: v, Start: start, Incomplete: true})
		return
	}
	if attempts > 1 {
		r.record(obj, checker.Op{ID: id, Kind: checker.KindWrite, Value: v, Start: start, Incomplete: true})
	}
	r.record(obj, checker.Op{ID: id, Kind: checker.KindWrite, Value: v, Start: start, End: end, Tag: tg})
}

// fire executes one scripted action against the engine or the cluster.
func (r *runner) fire(at time.Duration, a Action) {
	desc := a.String()
	switch a.Kind {
	case ActPartition:
		r.eng.setPartition(a.Groups)
	case ActHeal:
		r.eng.heal()
	case ActCrash:
		ids := r.crashTargets(a.Target)
		r.cluster.Crash(ids...)
		desc = fmt.Sprintf("%s -> %v", desc, ids)
	case ActRestart:
		ids := r.restartTargets(a.Target)
		for _, id := range ids {
			if err := r.cluster.Restart(id); err != nil {
				r.fail(fmt.Errorf("restart %d: %w", id, err))
			}
		}
		desc = fmt.Sprintf("%s -> %v", desc, ids)
	case ActDrop:
		r.eng.addRule(a.Link, a.Pct, 0, 0)
	case ActDelay:
		r.eng.addRule(a.Link, 0, a.Delay, a.Jitter)
	case ActClear:
		if a.HasLink {
			r.eng.clear(&a.Link)
		} else {
			r.eng.clear(nil)
		}
	}
	r.sched(fmt.Sprintf("t=%s fault: %s", at, desc))
}

// crashTargets resolves a crash target to live server ids (random
// draws from the seeded PRNG) and marks them crashed.
func (r *runner) crashTargets(t Target) []atomicstore.ServerID {
	r.mu.Lock()
	defer r.mu.Unlock()
	var live []atomicstore.ServerID
	for _, id := range r.members {
		if !r.crashed[id] {
			live = append(live, id)
		}
	}
	var ids []atomicstore.ServerID
	switch {
	case t.All:
		ids = live
	case t.Random:
		if len(live) > 0 {
			ids = []atomicstore.ServerID{live[r.rng.Intn(len(live))]}
		}
	default:
		if !r.crashed[t.ID] {
			ids = []atomicstore.ServerID{t.ID}
		}
	}
	for _, id := range ids {
		r.crashed[id] = true
	}
	return ids
}

// restartTargets resolves a restart target to crashed server ids (in
// ascending order for 'all') and marks them live again.
func (r *runner) restartTargets(t Target) []atomicstore.ServerID {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ids []atomicstore.ServerID
	switch {
	case t.All:
		for _, id := range r.members {
			if r.crashed[id] {
				ids = append(ids, id)
			}
		}
	default:
		if r.crashed[t.ID] {
			ids = []atomicstore.ServerID{t.ID}
		}
	}
	for _, id := range ids {
		delete(r.crashed, id)
	}
	return ids
}

// settle ends every scenario the same way: remove all faults, then
// prove liveness was restored by writing and reading back every object
// twice. Two rounds let the first round's circulation re-spread tag
// knowledge wedged behind healed partitions before the second asserts
// steady state.
func (r *runner) settle() {
	r.eng.reset()
	r.sched("settle: faults cleared, fresh write+read per object")
	ctx, cancel := context.WithTimeout(context.Background(), opBudget)
	defer cancel()
	cl, err := r.cluster.Client(
		atomicstore.WithAttemptTimeout(250*time.Millisecond),
		atomicstore.WithMaxAttempts(4*r.sc.Servers),
	)
	if err != nil {
		r.fail(fmt.Errorf("settle client: %w", err))
		return
	}
	defer cl.Close()
	for round := 0; round < 2; round++ {
		for obj := 0; obj < r.sc.Objects; obj++ {
			id := 1_000_000_000 + round*1000 + obj
			v := fmt.Sprintf("settle-%d-%d", round, obj)
			start := r.stamp()
			tg, attempts, err := cl.WriteDetailed(ctx, atomicstore.ObjectID(obj), []byte(v))
			end := r.stamp()
			if err != nil {
				r.record(atomicstore.ObjectID(obj), checker.Op{ID: id, Kind: checker.KindWrite, Value: v, Start: start, Incomplete: true})
				r.fail(fmt.Errorf("liveness: settle write round %d object %d: %w", round, obj, err))
				continue
			}
			r.recordWrite(atomicstore.ObjectID(obj), id, v, start, end, tg, attempts, nil)
			start = r.stamp()
			val, rtg, err := cl.Read(ctx, atomicstore.ObjectID(obj))
			end = r.stamp()
			if err != nil {
				r.fail(fmt.Errorf("liveness: settle read round %d object %d: %w", round, obj, err))
				continue
			}
			r.record(atomicstore.ObjectID(obj), checker.Op{ID: id + 500, Kind: checker.KindRead, Value: string(val), Start: start, End: end, Tag: rtg})
		}
	}
}

// corrupt falsifies the history (CorruptHistory): it appends a stale
// read — the oldest completed write's value observed after every other
// operation finished — which no atomic register can produce. The
// checker must catch it; a scenario with this flag passing means the
// harness has gone vacuous.
func (r *runner) corrupt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, obj := range sortedObjects(r.hist) {
		h := r.hist[obj]
		oldest := -1
		completed := 0
		var maxEnd int64
		for i, op := range h {
			if op.End > maxEnd {
				maxEnd = op.End
			}
			if op.Kind != checker.KindWrite || op.Incomplete {
				continue
			}
			completed++
			if oldest < 0 || h[i].Tag.Less(h[oldest].Tag) {
				oldest = i
			}
		}
		if completed < 2 {
			continue
		}
		r.hist[obj] = append(h, checker.Op{
			ID: 1_999_999, Kind: checker.KindRead, Value: h[oldest].Value,
			Start: maxEnd + 1, End: maxEnd + 2, Tag: h[oldest].Tag,
		})
		r.schedule = append(r.schedule, fmt.Sprintf("corrupt: injected stale read of %q %s on object %d", h[oldest].Value, h[oldest].Tag, obj))
		return
	}
	r.failures = append(r.failures, errors.New("corrupt: no object with two completed writes to falsify"))
}

// collect snapshots every live server's counters.
func (r *runner) collect(res *Result) {
	res.Counters = make(map[atomicstore.ServerID]atomicstore.Counters)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range r.members {
		if !r.crashed[id] {
			res.Counters[id] = r.cluster.Counters(id)
		}
	}
}

// check runs the end-of-scenario gates: a non-empty linearizable
// history per object and the counter invariants.
func (r *runner) check(res *Result) {
	total := 0
	for _, obj := range sortedObjects(r.hist) {
		h := r.hist[obj]
		total += len(h)
		if err := checker.CheckTagged(h); err != nil {
			r.fail(fmt.Errorf("object %d: %w", obj, err))
		}
	}
	if total == 0 {
		r.fail(errors.New("no operations recorded (vacuous run)"))
	}
	for _, id := range sortedServers(res.Counters) {
		snap := res.Counters[id]
		if snap.RecoveryBufferLeaks != 0 {
			r.fail(fmt.Errorf("server %d: RecoveryBufferLeaks = %d, want 0", id, snap.RecoveryBufferLeaks))
		}
		if snap.LaneDrops != 0 {
			r.fail(fmt.Errorf("server %d: LaneDrops = %d, want 0", id, snap.LaneDrops))
		}
		if !r.sc.Expect.AllowAckFailures && snap.AckSendFailures != 0 {
			r.fail(fmt.Errorf("server %d: AckSendFailures = %d, want 0", id, snap.AckSendFailures))
		}
		if !r.sc.Expect.AllowTornTails && snap.WALTornTails != 0 {
			r.fail(fmt.Errorf("server %d: WALTornTails = %d, want 0", id, snap.WALTornTails))
		}
	}
}

func sortedServers(m map[atomicstore.ServerID]atomicstore.Counters) []atomicstore.ServerID {
	ids := make([]atomicstore.ServerID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// stamp returns the next history timestamp: a logical counter in
// sequential mode (byte-identical histories), wall-clock nanoseconds
// in concurrent mode.
func (r *runner) stamp() int64 {
	if r.sc.Concurrent {
		return time.Now().UnixNano()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock++
	return r.clock
}

func (r *runner) record(obj atomicstore.ObjectID, op checker.Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hist[obj] = append(r.hist[obj], op)
}

func (r *runner) sched(line string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.schedule = append(r.schedule, line)
}

func (r *runner) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures = append(r.failures, err)
}
