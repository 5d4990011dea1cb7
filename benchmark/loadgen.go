package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/atomicstore"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/tag"
	"repro/internal/wal"
)

const (
	kindWrite = 0
	kindRead  = 1
)

// timeline places the measured phase on the time base of now(): the
// warm-up ends at start, and the phase is numWindows equal windows.
type timeline struct {
	start, window, end int64
}

func newTimeline(warm, measure time.Duration) timeline {
	start := now() + int64(warm)
	window := int64(measure) / numWindows
	return timeline{start: start, window: window, end: start + numWindows*window}
}

// windowOf returns the window an instant falls in, or -1 outside the
// measured phase.
func (t timeline) windowOf(at int64) int {
	if at < t.start || at >= t.end {
		return -1
	}
	return int((at - t.start) / t.window)
}

// clientSpan is one client call of a traced run.
type clientSpan struct {
	op         uint64
	start, end int64
	object     uint32
	attempts   uint16
	conn       uint8
	kind       uint8
	failed     bool
}

// sink collects what one load-generator goroutine observed. Exactly
// one goroutine owns a sink at a time, so nothing here is locked;
// every sample is kept, because the percentiles must be exact.
type sink struct {
	lat      [numWindows][2][]int64 // latency by window of completion and kind
	failed   [numWindows]int
	attempts int64 // client attempts of the measured writes
	writes   int64
	late     [numWindows][]int64 // open loop: actual send minus due time
	maxLat   int64
	spans    []clientSpan
}

// runner drives one store with one workload. It outlives a phase: the
// per-connection op index keeps counting, so every write of a run has
// its own (conn, seq) identity.
type runner struct {
	w       *workload
	st      *store
	streams [][]op
	next    []atomic.Uint64 // per connection: ops issued so far
	nonce   uint32
	hist    *history
	verdict *verdict
}

func newRunner(w *workload, st *store, seed int64, v *verdict) *runner {
	r := &runner{w: w, st: st, nonce: uint32(seed), verdict: v, next: make([]atomic.Uint64, numConns)}
	for c := 0; c < numConns; c++ {
		r.streams = append(r.streams, genStream(w, seed, c, streamLen))
	}
	return r
}

// measurement is a workload measured on one store: the loop and, when
// the loop has no reads, the read-back phase after it.
type measurement []*phaseResult

func (m measurement) main() *phaseResult { return m[0] }

// reads is the phase the read metrics come from.
func (m measurement) reads() *phaseResult { return m[len(m)-1] }

func (m measurement) acked() (n int) {
	for _, p := range m {
		n += p.acked()
	}
	return n
}

func (m measurement) failures() (n int) {
	for _, p := range m {
		n += p.failures()
	}
	return n
}

func (m measurement) spans() (all []clientSpan) {
	for _, p := range m {
		all = append(all, p.spans...)
	}
	return all
}

// measure runs the workload's loop and, when the loop has no reads, a
// read-back phase a tenth as long: both connections read the registers
// the loop wrote, one read in flight each, every value and version
// checked like any other read. On the write-only workloads that is
// where read_p50_us comes from — the driver wants every end-to-end
// metric from every workload — and it is the read latency of a ring
// that has just been written, not of one under write load. README.md
// has what was tried first and why it could not carry a bound.
func (r *runner) measure(warm, dur time.Duration, trace bool) measurement {
	m := measurement{r.run(warm, dur, trace)}
	if r.w.readBack() {
		back := *r.w
		back.inflight, back.ratePerSec, back.readPct = 1, 0, 100
		rb := &runner{w: &back, st: r.st, next: r.next, nonce: r.nonce, verdict: r.verdict}
		for c := 0; c < numConns; c++ {
			rb.streams = append(rb.streams, genStream(&back, int64(r.nonce), c, streamLen))
		}
		m = append(m, rb.run(warm/10, dur/10, trace))
	}
	return m
}

// phaseResult is one measured phase, merged over the goroutines.
type phaseResult struct {
	tl     timeline
	lat    [numWindows][2][]int64 // sorted
	pooled [2][]int64             // sorted, all windows
	failed [numWindows]int
	cpu    [numWindows]time.Duration

	attempts, writes int64
	late             [numWindows][]int64 // sorted
	due, sent        int64               // open loop: ops scheduled in the phase, ops sent
	maxLat           int64
	spans            []clientSpan

	counters [2]core.CounterSnapshot // at the phase's start and end, summed over servers
	walStats [2]wal.Stats
}

func (p *phaseResult) acked() int { return len(p.pooled[kindWrite]) + len(p.pooled[kindRead]) }

func (p *phaseResult) failures() int {
	n := 0
	for _, f := range p.failed {
		n += f
	}
	return n
}

func (p *phaseResult) seconds() float64 { return float64(p.tl.end-p.tl.start) / 1e9 }

// opGrace is how long an operation in flight when the phase ends may
// still take before it counts as unanswered.
const opGrace = 5 * time.Second

// run measures one phase: warm-up, then numWindows windows.
func (r *runner) run(warm, measure time.Duration, trace bool) *phaseResult {
	tl := newTimeline(warm, measure)
	ctx, cancel := context.WithDeadline(context.Background(),
		origin.Add(time.Duration(tl.end)).Add(opGrace))
	defer cancel()

	res := &phaseResult{tl: tl}
	var cpuAt [numWindows + 1]time.Duration
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for k := 0; k <= numWindows; k++ {
			time.Sleep(time.Duration(tl.start + int64(k)*tl.window - now()))
			cpuAt[k] = cpuTime()
			if k == 0 || k == numWindows {
				i := k / numWindows
				if r.st.ring != nil {
					res.counters[i] = r.st.ring.counters()
					res.walStats[i] = r.st.ring.walStats()
				}
			}
		}
	}()

	var sinks []*sink
	if r.w.openLoop() {
		sinks = r.runOpen(ctx, tl, trace, res)
	} else {
		sinks = r.runClosed(ctx, tl, trace)
	}
	sampler.Wait()

	for k := 0; k < numWindows; k++ {
		res.cpu[k] = cpuAt[k+1] - cpuAt[k]
	}
	for _, s := range sinks {
		for k := 0; k < numWindows; k++ {
			for kind := 0; kind < 2; kind++ {
				res.lat[k][kind] = append(res.lat[k][kind], s.lat[k][kind]...)
			}
			res.failed[k] += s.failed[k]
			res.late[k] = append(res.late[k], s.late[k]...)
		}
		res.attempts += s.attempts
		res.writes += s.writes
		res.maxLat = max(res.maxLat, s.maxLat)
		res.spans = append(res.spans, s.spans...)
	}
	for k := 0; k < numWindows; k++ {
		for kind := 0; kind < 2; kind++ {
			slices.Sort(res.lat[k][kind])
			res.pooled[kind] = append(res.pooled[kind], res.lat[k][kind]...)
		}
		slices.Sort(res.late[k])
	}
	slices.Sort(res.pooled[kindWrite])
	slices.Sort(res.pooled[kindRead])
	return res
}

func (r *runner) runClosed(ctx context.Context, tl timeline, trace bool) []*sink {
	var wg sync.WaitGroup
	sinks := make([]*sink, 0, numConns*r.w.inflight)
	for c := 0; c < numConns; c++ {
		for k := 0; k < r.w.inflight; k++ {
			s := &sink{}
			sinks = append(sinks, s)
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				buf := make([]byte, r.w.valueBytes)
				for now() < tl.end {
					r.do(ctx, tl, c, r.next[c].Add(1)-1, buf, s, 0, trace)
				}
			}(c)
		}
	}
	wg.Wait()
	return sinks
}

// runOpen offers the workload's rate on a fixed schedule, one pacer
// per connection. An operation's latency counts from its due time, so
// a stall shows as the wait it imposes on everything scheduled behind
// it instead of silently slowing the generator down.
func (r *runner) runOpen(ctx context.Context, tl timeline, trace bool, res *phaseResult) []*sink {
	interval := int64(time.Second) * numConns / int64(r.w.ratePerSec)
	// The schedule starts a little ahead of now: a timer armed for an
	// instant already past fires at once, and every later tick would
	// inherit that offset as lateness.
	first := now() + int64(20*time.Millisecond)
	perConn := int((tl.end - first) / interval)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var sinks []*sink
	for c := 0; c < numConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// The free list is the in-flight cap: with every sink out,
			// the pacer blocks, and that wait is lateness.
			free := make(chan *sink, r.w.openCap)
			for i := 0; i < r.w.openCap; i++ {
				free <- &sink{}
			}
			unsent := &sink{}
			offset := int64(c) * interval / numConns
			tick, err := newTicker(first+offset, interval)
			if err != nil {
				r.verdict.fail(fmt.Errorf("open-loop pacer: %w", err))
				return
			}
			defer tick.close()
			var due, sent int64
			for k := 0; k < perConn; {
				n, err := tick.wait()
				if err != nil {
					r.verdict.fail(fmt.Errorf("open-loop pacer: %w", err))
					return
				}
				// n ops fell due since the last wake-up; more than one
				// means the pacer was held up, and their latency counts
				// from when they were due all the same.
				for ; n > 0 && k < perConn; n, k = n-1, k+1 {
					at := first + offset + int64(k)*interval
					measured := tl.windowOf(at) >= 0
					if measured {
						due++
					}
					// An op whose turn comes after the phase has ended (the
					// pacer was held up across the end) is still sent, late
					// like any other; only a backlog beyond the grace
					// period is given up on and counted as failed.
					late := now() - tl.end
					if late >= int64(opGrace/2) {
						if measured {
							unsent.failed[tl.windowOf(at)]++
						}
						continue
					}
					s := <-free
					if measured && late < 0 {
						sent++
					}
					idx := r.next[c].Add(1) - 1
					go func() {
						r.do(ctx, tl, c, idx, nil, s, at, trace)
						free <- s
					}()
				}
			}
			mine := []*sink{unsent}
			for i := 0; i < r.w.openCap; i++ {
				mine = append(mine, <-free)
			}
			mu.Lock()
			sinks = append(sinks, mine...)
			res.due += due
			res.sent += sent
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return sinks
}

// do issues one operation, records it, and checks what came back.
// due is the scheduled send time of an open-loop op, 0 in a closed
// loop; buf is the caller's reusable payload buffer, or nil.
func (r *runner) do(ctx context.Context, tl timeline, conn int, idx uint64, buf []byte, s *sink, due int64, trace bool) {
	o := r.streams[conn][idx%uint64(len(r.streams[conn]))]
	cl := r.st.clients[conn]
	floor := r.st.gates.floor(o.object)

	var (
		val      []byte
		ver      tag.Tag
		err      error
		attempts = 1
		kind     = kindRead
		hkind    = checker.KindRead
	)
	start := now()
	if o.read {
		val, ver, err = cl.Read(ctx, atomicstore.ObjectID(o.object))
	} else {
		kind, hkind = kindWrite, checker.KindWrite
		if buf == nil {
			buf = make([]byte, r.w.valueBytes)
		}
		fillPayload(buf, uint32(conn), o.object, idx, r.nonce)
		val = buf
		ver, attempts, err = cl.WriteDetailed(ctx, atomicstore.ObjectID(o.object), buf)
	}
	end := now()
	from := start
	if due != 0 {
		from = due
	}
	if trace {
		s.spans = append(s.spans, clientSpan{op: idx, start: from, end: end, object: o.object,
			attempts: uint16(attempts), conn: uint8(conn), kind: uint8(kind), failed: err != nil})
	}

	if err != nil {
		// A failure counts wherever it happened, warm-up and grace
		// period included: no workload here is meant to lose an op.
		s.failed[min(max(int((end-tl.start)/tl.window), 0), numWindows-1)]++
		r.hist.record(conn, idx, o.object, val, checker.Op{Kind: hkind, Start: start, Incomplete: true})
		return
	}
	if k := tl.windowOf(end); k >= 0 {
		s.lat[k][kind] = append(s.lat[k][kind], end-from)
		s.maxLat = max(s.maxLat, end-from)
		if !o.read {
			s.attempts += int64(attempts)
			s.writes++
		}
		if due != 0 {
			s.late[k] = append(s.late[k], start-due)
		}
	}

	if verr := checkVersion(floor, ver, !o.read); verr != nil {
		r.verdict.fail(fmt.Errorf("conn %d op %d object %d: %w", conn, idx, o.object, verr))
	}
	r.st.gates.observe(o.object, ver)
	if o.read {
		id, perr := checkPayload(val, o.object, r.w.valueBytes, r.nonce)
		if perr == nil && !r.wasSent(id) {
			perr = fmt.Errorf("value names write (conn %d, seq %d), which was never sent", id.conn, id.seq)
		}
		if perr != nil {
			r.verdict.fail(fmt.Errorf("conn %d op %d read of object %d: %w", conn, idx, o.object, perr))
		}
	}
	r.hist.record(conn, idx, o.object, val, checker.Op{Kind: hkind, Start: start, End: end, Tag: ver})
}

// wasSent reports whether some write of this run carried the identity.
func (r *runner) wasSent(id payloadID) bool {
	if id.conn == setupConn {
		return id.seq == 0
	}
	return id.conn < numConns && id.seq < r.next[id.conn].Load()
}

// ticker paces one open-loop connection off a periodic timerfd read
// through the runtime's poller. A goroutine sleeping in nanosleep on a
// locked thread keeps its P in syscall state until sysmon retakes it;
// with two pacers on a two-core host that starves the in-process
// servers and the generator ran milliseconds late. time.Sleep rounds
// an idle P's wait up to a millisecond. A timerfd parks the goroutine
// without a P and wakes it through epoll at hrtimer precision, and the
// expiry count it returns keeps the schedule absolute: a late wake-up
// delays no later op.
type ticker struct {
	f *os.File
}

// newTicker starts a ticker whose first expiry is at the instant first
// (on the clock of now()) and which then expires every interval ns.
func newTicker(first, interval int64) (*ticker, error) {
	const (
		clockMonotonic = 1
		tfdNonblock    = syscall.O_NONBLOCK
		tfdCloexec     = syscall.O_CLOEXEC
	)
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	spec := struct{ interval, value syscall.Timespec }{
		syscall.NsecToTimespec(interval),
		syscall.NsecToTimespec(max(first-now(), 1)),
	}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		_ = syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	// The descriptor is non-blocking, so os.NewFile hands it to the poller.
	return &ticker{f: os.NewFile(fd, "timerfd")}, nil
}

// wait blocks until the timer has expired at least once since the last
// call and returns how many times it did.
func (t *ticker) wait() (int64, error) {
	var buf [8]byte
	if _, err := t.f.Read(buf[:]); err != nil {
		return 0, err
	}
	return int64(binary.NativeEndian.Uint64(buf[:])), nil
}

func (t *ticker) close() { _ = t.f.Close() }
