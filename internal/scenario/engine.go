package scenario

import (
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// engine is the runner's transport.FaultInjector: partition state plus
// an ordered list of loss/delay rules, evaluated per frame. Every
// probabilistic choice is a pure hash of (seed, rule, link, frame), so
// a frame's fate is independent of delivery order and goroutine
// interleaving — two runs with the same seed and the same rule
// install sequence drop and delay exactly the same frames.
type engine struct {
	seed    int64
	members map[wire.ProcessID]bool

	mu     sync.Mutex
	group  map[wire.ProcessID]int // partition group per server; absent = unrestricted
	rules  []rule
	nextID uint64
}

// rule is one installed loss or delay rule. A frame is judged by the
// first rule whose link matches it.
type rule struct {
	id     uint64 // per-run install counter, salts the frame hash
	link   LinkSpec
	pct    int           // >0: drop probability
	delay  time.Duration // >0: added latency
	jitter time.Duration // extra 0..jitter, hash-drawn per frame
}

func newEngine(seed int64, members []wire.ProcessID) *engine {
	e := &engine{seed: seed, members: make(map[wire.ProcessID]bool, len(members))}
	for _, id := range members {
		e.members[id] = true
	}
	return e
}

// Verdict implements transport.FaultInjector.
func (e *engine) Verdict(from, to wire.ProcessID, f *wire.Frame) transport.FaultVerdict {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.group) > 0 && e.members[from] && e.members[to] {
		gf, okf := e.group[from]
		gt, okt := e.group[to]
		if okf && okt && gf != gt {
			return transport.FaultVerdict{Drop: true}
		}
	}
	for _, r := range e.rules {
		if !r.link.matches(from, to, e.isMember) {
			continue
		}
		if r.pct > 0 && int(e.frameHash(r.id, from, to, f)%100) < r.pct {
			return transport.FaultVerdict{Drop: true}
		}
		if r.delay > 0 {
			d := r.delay
			if r.jitter > 0 {
				d += time.Duration(e.frameHash(^r.id, from, to, f) % uint64(r.jitter))
			}
			return transport.FaultVerdict{Delay: d}
		}
		return transport.FaultVerdict{} // first matching rule decides
	}
	return transport.FaultVerdict{}
}

func (e *engine) isMember(id wire.ProcessID) bool { return e.members[id] }

// frameHash mixes the seed, a per-rule salt, the link, and the frame's
// identity (kind, object, tag, origin, request id) into a
// uniform 64-bit value. Retries of a timed-out request carry a fresh
// ReqID, so they re-roll the dice; re-deliveries of the same frame do
// not.
func (e *engine) frameHash(salt uint64, from, to wire.ProcessID, f *wire.Frame) uint64 {
	env := &f.Env
	h := uint64(e.seed) ^ (salt * 0x9E3779B97F4A7C15)
	h = mix64(h ^ uint64(from)<<32 ^ uint64(to))
	h = mix64(h ^ uint64(env.Kind)<<56 ^ uint64(env.Object)<<24 ^ uint64(env.Origin))
	h = mix64(h ^ env.Tag.TS ^ uint64(env.Tag.ID)<<32)
	h = mix64(h ^ env.ReqID)
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// setPartition installs partition groups (servers not listed stay
// unrestricted), replacing any previous partition.
func (e *engine) setPartition(groups [][]wire.ProcessID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.group = make(map[wire.ProcessID]int)
	for i, g := range groups {
		for _, id := range g {
			e.group[id] = i
		}
	}
}

// heal removes the partition; loss/delay rules stay.
func (e *engine) heal() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.group = nil
}

// addRule appends a loss or delay rule.
func (e *engine) addRule(link LinkSpec, pct int, delay, jitter time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextID++
	e.rules = append(e.rules, rule{id: e.nextID, link: link, pct: pct, delay: delay, jitter: jitter})
}

// clear removes every rule, or — given a link — only rules installed
// with that exact link spec.
func (e *engine) clear(link *LinkSpec) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if link == nil {
		e.rules = nil
		return
	}
	kept := e.rules[:0]
	for _, r := range e.rules {
		if r.link != *link {
			kept = append(kept, r)
		}
	}
	e.rules = kept
}

// reset removes partition and rules both (the runner's end-of-run
// heal before the settle phase).
func (e *engine) reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.group = nil
	e.rules = nil
}
