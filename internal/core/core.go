// Package core implements the high-throughput atomic storage algorithm of
// Guerraoui, Kostić, Levy and Quéma (ICDCS 2007).
//
// Servers are organized around a ring and communicate only with their ring
// successor. A write is disseminated twice around the ring: a pre_write
// phase announces the new value to every server, then a write phase
// installs it; the client is acknowledged when the write message returns
// to the originating server, so a completed write is stored on every
// available server (write-all-available). A read is served locally by any
// single server — no inter-server communication — which is what makes read
// throughput grow linearly with the number of servers. Atomicity under
// this read-one scheme is preserved by the pre-write barrier: a server
// that knows of a pre-written-but-not-yet-written value delays its reads
// until the corresponding write (or a newer one) arrives, preventing the
// read-inversion anomaly.
//
// The ring is resilient to the crash of all but one server: a broken
// connection to the successor is interpreted as a crash (perfect failure
// detection, reasonable inside a cluster), the predecessor splices the
// ring and retransmits its pending pre-writes and its current value, and
// the alive predecessor of a crashed server adopts the messages the
// crashed server originated.
//
// A fairness rule keeps the ring live under saturation: each server
// interleaves initiating its own writes with forwarding its predecessor's
// messages, always serving the origin with the smallest
// forwarded-message count (nb_msg).
package core

import (
	"fmt"
	"io"
	"log/slog"

	"repro/internal/wal"
	"repro/internal/wire"
)

// Config configures one storage server.
type Config struct {
	// ID is this server's process id; it must appear in Members.
	ID wire.ProcessID
	// Members is the initial ring membership in ring order. All servers
	// must be configured with the same order.
	Members []wire.ProcessID

	// DisablePiggyback turns off bundling a write-phase message with a
	// pre-write-phase message in one frame (paper §4.2, mechanism (2)).
	// The zero value — piggybacking on — is the paper's configuration.
	DisablePiggyback bool
	// DisableFairness replaces the nb_msg fairness rule with plain FIFO
	// forwarding that always prefers forwarding over initiating local
	// writes. This is the strawman the paper argues against (a busy
	// server's own writers starve); used as an ablation.
	DisableFairness bool
	// DisableValueElision makes write-phase ring messages carry the full
	// value, as in the paper's pseudo-code. By default the value is
	// elided: every server already stores it in its pending set from the
	// pre-write phase, and the write phase only needs the tag. Elision
	// is what makes a completed write cost ~one payload per link instead
	// of two, matching the paper's measured ~80% of link rate write
	// throughput (DESIGN.md §3.6).
	DisableValueElision bool

	// WriteLanes is the number of independent ring lanes the write path
	// is sharded over: each object belongs to lane hash(ObjectID) mod
	// WriteLanes, and each lane runs its own event loop, forward queue,
	// and send slot, so independent objects' ring traffic
	// pipelines in parallel. Every server of a cluster must use the
	// same value (like Members). Zero means DefaultWriteLanes; negative
	// means 1 (the single-loop pre-lane behavior); at most MaxWriteLanes.
	WriteLanes int
	// TrainLength is the maximum number of ring envelopes one outbound
	// frame may carry ("frame trains", DESIGN.md §9): the lane's queue
	// handler drains up to TrainLength fairness-selected messages into
	// one frame, amortizing the per-frame costs of a saturated ring.
	// Every wire-v4 peer decodes trains. Zero means DefaultTrainLength;
	// 1 (or negative) keeps the classic framing — one fairness-selected
	// primary plus at most one opposite-phase piggyback; at most
	// wire.MaxFrameEnvelopes.
	TrainLength int

	// WAL configures the durable write-ahead log (DESIGN.md §13). An
	// empty WAL.Dir disables durability entirely — the pre-WAL behavior.
	// WAL.Lanes is ignored: the server pins it to its resolved WriteLanes,
	// giving each lane its own staging buffer in front of the server's
	// one log file. Every outgoing ring frame is gated on a sync
	// covering the records its envelopes staged, so an acknowledged
	// write is durable at every server that applied it; wal.SyncTrain
	// is the only sync policy.
	WAL wal.Config

	// Logger receives debug events; nil discards them.
	Logger *slog.Logger
}

// DefaultWriteLanes is the lane fanout used when Config.WriteLanes is
// zero. Lanes buy pipelining (in-flight ring frames), not just CPU
// parallelism, so the default does not scale down with GOMAXPROCS.
const DefaultWriteLanes = 4

// MaxWriteLanes bounds the lane fanout: the lane index travels in one
// byte of the frame header.
const MaxWriteLanes = 256

// DefaultTrainLength is the per-frame envelope budget used when
// Config.TrainLength is zero. Longer trains amortize per-frame costs
// further but add nothing once they exceed the queue depth a saturated
// lane actually accumulates (EXPERIMENTS.md's train-length sweep).
const DefaultTrainLength = 8

// writeLanes resolves WriteLanes to a lane count.
func (c *Config) writeLanes() int {
	if c.WriteLanes < 0 {
		return 1
	}
	if c.WriteLanes == 0 {
		return DefaultWriteLanes
	}
	return c.WriteLanes
}

// trainLength resolves TrainLength to a per-frame envelope budget; 1 is
// the classic primary+piggyback framing. The piggyback ablation caps
// the frame at one envelope elsewhere, so it forces 1 here too.
func (c *Config) trainLength() int {
	if c.DisablePiggyback || c.TrainLength < 0 {
		return 1
	}
	if c.TrainLength == 0 {
		return DefaultTrainLength
	}
	return c.TrainLength
}

// Validate checks the configuration without building a server, so
// callers can fail before acquiring resources (listeners, endpoints).
func (c *Config) Validate() error { return c.validate() }

// validate checks the configuration.
func (c *Config) validate() error {
	if len(c.Members) == 0 {
		return errNoMembers
	}
	if c.WriteLanes > MaxWriteLanes {
		return fmt.Errorf("core: WriteLanes %d exceeds %d", c.WriteLanes, MaxWriteLanes)
	}
	if c.TrainLength > wire.MaxFrameEnvelopes {
		return fmt.Errorf("core: TrainLength %d exceeds %d", c.TrainLength, wire.MaxFrameEnvelopes)
	}
	for _, m := range c.Members {
		if m == c.ID {
			return nil
		}
	}
	return errNotMember
}

// SessionHello returns the HELLO this server asserts when opening or
// accepting session connections: its wire version, resolved lane
// fanout, ring-membership hash, and capabilities. Endpoints built from
// it reject peers with a different WriteLanes or membership at
// handshake time instead of misrouting ring frames at runtime.
func (c *Config) SessionHello() wire.Hello {
	return wire.Hello{
		Version:        wire.HelloVersion,
		From:           c.ID,
		Lanes:          uint16(c.writeLanes()),
		Link:           wire.LinkGeneral,
		MembershipHash: wire.MembershipHash(c.Members),
		Capabilities:   wire.CapLaneLinks,
	}
}

// logger returns the configured logger or a discarding one.
func (c *Config) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}
