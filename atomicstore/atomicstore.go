// Package atomicstore is the public façade of the repository: a
// high-throughput atomic (linearizable) multi-register store built on
// the ring protocol of Guerraoui, Kostić, Levy and Quéma (ICDCS 2007).
//
// Three entry points cover every deployment shape:
//
//   - StartCluster runs an n-server ring in-process over the in-memory
//     transport — the quickest way to a working store, and the harness
//     the examples and tests build on.
//   - Join runs one server of a real TCP ring (one call per host).
//   - Dial connects a client to a running TCP ring.
//
// All three open connections through the versioned session handshake
// (DESIGN.md §8): servers and clients assert their wire version, lane
// fanout, and ring membership at connect time, and misconfigured peers
// are rejected with a typed *wire.HandshakeError instead of corrupting
// ring state at runtime.
//
// A minimal round trip:
//
//	c, err := atomicstore.StartCluster(3)
//	if err != nil { ... }
//	defer c.Close()
//	cl, err := c.Client()
//	if err != nil { ... }
//	defer cl.Close()
//	ver, err := cl.Write(ctx, 0, []byte("hello"))
//	v, ver, err := cl.Read(ctx, 0)
//
// Behavior is tuned with functional options: WithWriteLanes picks the
// ring lane fanout, WithTrainLength the per-frame ring message budget
// (frame trains), WithPinnedServer pins a client to one server, and so
// on.
package atomicstore

import (
	"log/slog"
	"time"

	"repro/internal/tag"
	"repro/internal/wal"
	"repro/internal/wire"
)

// ServerID identifies a server (its position in the initial ring
// membership doubles as its ring order).
type ServerID = wire.ProcessID

// ObjectID names one atomic register of the store.
type ObjectID = wire.ObjectID

// Version is the totally-ordered version a write was committed at; a
// read returns the version of the value it observed. The zero Version
// means "never written".
type Version = tag.Tag

// Option tunes a cluster, server, or client.
type Option func(*config)

// config collects every knob; each constructor reads the subset that
// applies to it.
type config struct {
	lanes           int
	trainLength     int
	logger          *slog.Logger
	attemptTimeout  time.Duration
	maxAttempts     int
	pinned          ServerID
	clientID        ServerID
	noPiggyback     bool
	noElision       bool
	noFairness      bool
	walDir          string
	walAudit        bool
	retryBackoff    time.Duration
	retryBackoffMax time.Duration
}

func buildConfig(base config, opts []Option) config {
	for _, o := range opts {
		o(&base)
	}
	return base
}

// WithWriteLanes sets the ring lane fanout: the write path is sharded
// over n independent ring lanes (lane = hash(object) mod n), each with
// its own event loop and — between session peers — its own successor
// connection. Every server of a cluster must use the same value; the
// handshake enforces it. Zero means the default (4); negative means a
// single lane.
func WithWriteLanes(n int) Option { return func(c *config) { c.lanes = n } }

// WithTrainLength sets the maximum number of ring messages one frame
// may carry ("frame trains"): a saturated lane drains up to n
// fairness-selected messages into a single frame, amortizing per-frame
// costs. Zero means the default (8); 1 (or negative) keeps the classic
// framing; at most wire.MaxFrameEnvelopes (16).
func WithTrainLength(n int) Option { return func(c *config) { c.trainLength = n } }

// WithLogger routes debug events to l; by default they are discarded.
func WithLogger(l *slog.Logger) Option { return func(c *config) { c.logger = l } }

// WithAttemptTimeout bounds one client request attempt before the
// client fails over to another server. Zero means 2s.
func WithAttemptTimeout(d time.Duration) Option { return func(c *config) { c.attemptTimeout = d } }

// WithMaxAttempts bounds the servers tried per client operation.
func WithMaxAttempts(n int) Option { return func(c *config) { c.maxAttempts = n } }

// WithRetryBackoff tunes the client's failover backoff: base is the
// delay before the first retry, growing exponentially with the client's
// consecutive-failure streak (jittered, reset by any success) up to
// max. Zero keeps the defaults (2ms base, 250ms cap); a negative base
// disables backoff so retries fire immediately.
func WithRetryBackoff(base, max time.Duration) Option {
	return func(c *config) {
		c.retryBackoff = base
		c.retryBackoffMax = max
	}
}

// WithPinnedServer makes a client contact the given server first for
// every request (failing over on timeout like any client). Useful to
// drive or observe a chosen server.
func WithPinnedServer(id ServerID) Option { return func(c *config) { c.pinned = id } }

// WithClientID fixes a client's process id. Ids must be unique across
// every process of a deployment (servers and clients); by default
// clients draw from a high auto-assigned range.
func WithClientID(id ServerID) Option { return func(c *config) { c.clientID = id } }

// WithoutPiggyback disables bundling a write-phase ring message with a
// pre-write-phase message in one frame (ablation; the paper's §4.2
// mechanism stays on by default).
func WithoutPiggyback() Option { return func(c *config) { c.noPiggyback = true } }

// WithoutValueElision makes write-phase ring messages carry the full
// value instead of only the tag (ablation; elision stays on by
// default).
func WithoutValueElision() Option { return func(c *config) { c.noElision = true } }

// WithoutFairness replaces the nb_msg fairness rule with plain FIFO
// forwarding (ablation).
func WithoutFairness() Option { return func(c *config) { c.noFairness = true } }

// WALStats is a snapshot of one server's write-ahead-log counters.
type WALStats = wal.Stats

// WithDurability gives each server a write-ahead log under dir (one
// subdirectory per server id): committed ring frames are appended as
// one batch and leave the server only after one fdatasync covers the
// whole train, so an acknowledged write is durable at every server, and
// a restarted server replays its log — before rejoining the ring — to
// serve every write it ever acknowledged. A cluster (or Join) started
// without this option keeps the in-memory-only behavior.
func WithDurability(dir string) Option { return func(c *config) { c.walDir = dir } }

// WithWALAudit appends a chained Merkle batch-root record per WAL sync,
// making each server's log tamper-evident (verify offline with the
// atomicstore-server -wal-verify flag or wal.Verify).
func WithWALAudit() Option { return func(c *config) { c.walAudit = true } }
