// Command atomicstore-server runs one storage server of the ring over
// real TCP. Every server must be started with the same -servers list (the
// ring order); each serves clients on its own address and holds one
// session connection to its ring successor. Peers whose wire version,
// lane count, or membership disagree are rejected at handshake time; a
// server runs one lane, so a peer from an older build started with
// several is refused.
//
// Example — a three-server ring on one machine:
//
//	atomicstore-server -id 1 -servers 1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003
//	atomicstore-server -id 2 -servers 1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003
//	atomicstore-server -id 3 -servers 1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003
//
// In a federation, every server runs with the full federation map and
// joins only its own ring (";" separates rings, in ring order; servers
// of other rings are never contacted — rings share nothing):
//
//	atomicstore-server -federation 1=h:7001,2=h:7002;1=h:7003,2=h:7004 -ring-id 0 -id 1
//	atomicstore-server -federation 1=h:7001,2=h:7002;1=h:7003,2=h:7004 -ring-id 1 -id 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/atomicstore"
	"repro/internal/wal"
	"repro/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "atomicstore-server: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id          = flag.Uint("id", 0, "this server's process id (must appear in -servers, or in ring -ring-id of -federation)")
		serversFlag = flag.String("servers", "", "comma-separated id=host:port ring membership, in ring order")
		fedFlag     = flag.String("federation", "", "full federation map, rings separated by \";\" (each ring in -servers notation); mutually exclusive with -servers")
		ringID      = flag.Int("ring-id", 0, "which ring of -federation this server joins (0-based)")
		verbose     = flag.Bool("v", false, "verbose logging")
		noPiggy     = flag.Bool("no-piggyback", false, "disable write/pre-write piggybacking (ablation)")
		noElide     = flag.Bool("no-elision", false, "ship full values in write-phase messages (ablation)")
		noFair      = flag.Bool("no-fairness", false, "FIFO forwarding instead of the nb_msg rule (ablation)")
		train       = flag.Int("train", 0, "max ring messages per frame (frame trains; 0 = default 8, 1 = classic piggyback)")
		walDir      = flag.String("wal-dir", "", "write-ahead-log directory; empty runs without durability")
		walAudit    = flag.Bool("wal-audit", false, "append a chained Merkle batch-root record per WAL sync (tamper evidence; check with -wal-verify)")
		walVerify   = flag.Bool("wal-verify", false, "verify the WAL under -wal-dir offline (CRCs, audit roots, chain) and exit without serving")
	)
	flag.Parse()

	if *walVerify {
		if *walDir == "" {
			return fmt.Errorf("-wal-verify needs -wal-dir")
		}
		return verifyWAL(*walDir)
	}

	var ring []atomicstore.Member
	switch {
	case *fedFlag != "" && *serversFlag != "":
		return fmt.Errorf("use either -servers or -federation, not both")
	case *fedFlag != "":
		rings, err := atomicstore.ParseFederation(*fedFlag)
		if err != nil {
			return err
		}
		if *ringID < 0 || *ringID >= len(rings) {
			return fmt.Errorf("-ring-id %d out of range: federation has %d rings", *ringID, len(rings))
		}
		ring = rings[*ringID]
	default:
		if *ringID != 0 {
			return fmt.Errorf("-ring-id needs -federation")
		}
		var err error
		if ring, err = atomicstore.ParseRing(*serversFlag); err != nil {
			return err
		}
	}
	self := atomicstore.ServerID(*id)

	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	opts := []atomicstore.Option{
		atomicstore.WithTrainLength(*train),
		atomicstore.WithLogger(logger),
	}
	if *noPiggy {
		opts = append(opts, atomicstore.WithoutPiggyback())
	}
	if *noElide {
		opts = append(opts, atomicstore.WithoutValueElision())
	}
	if *noFair {
		opts = append(opts, atomicstore.WithoutFairness())
	}
	if *walDir != "" {
		opts = append(opts, atomicstore.WithDurability(*walDir))
		if *walAudit {
			opts = append(opts, atomicstore.WithWALAudit())
		}
	} else if *walAudit {
		return fmt.Errorf("-wal-audit needs -wal-dir")
	}

	srv, err := atomicstore.Join(self, ring, opts...)
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	logger.Info("serving", "id", self, "addr", srv.Addr(), "ring", ring)
	if *fedFlag != "" {
		fmt.Printf("atomicstore-server %d (federation ring %d) listening on %s\n", self, *ringID, srv.Addr())
	} else {
		fmt.Printf("atomicstore-server %d listening on %s\n", self, srv.Addr())
	}

	// Validate the session with the ring successor in the background:
	// a handshake rejection means the cluster is misconfigured (wrong
	// -servers on some host, or a peer binary of another wire version) and this process should die
	// loudly rather than retry forever; mere unreachability is normal
	// while the other hosts boot. Once shutdown begins the check stays
	// silent: closing the server fails an attempt still in flight, and
	// nothing may be logged after "shutting down".
	checkc := make(chan error, 1)
	var checkMu sync.Mutex
	stopping := false
	go func() {
		for attempt := 1; ; attempt++ {
			err := srv.CheckRing()
			checkMu.Lock()
			if stopping {
				checkMu.Unlock()
				return
			}
			var herr *wire.HandshakeError
			if errors.As(err, &herr) {
				checkMu.Unlock()
				checkc <- err
				return
			}
			if err == nil {
				logger.Info("ring session validated with successor")
				checkMu.Unlock()
				return
			}
			// Not the typed rejection, but persistent failure still
			// deserves a visible diagnostic: it may be a raw endpoint
			// or a foreign service on the port, which close the
			// connection without a classifiable reply. Warn on the
			// first failure and periodically after, Debug in between.
			if attempt == 1 || attempt%30 == 0 {
				logger.Warn("cannot validate ring session with successor; still retrying",
					"attempt", attempt, "err", err)
			} else {
				logger.Debug("successor not ready", "err", err)
			}
			checkMu.Unlock()
			time.Sleep(time.Second)
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-checkc:
		return fmt.Errorf("ring misconfigured: %w", err)
	case <-sigc:
	}
	checkMu.Lock()
	stopping = true
	checkMu.Unlock()
	fmt.Println("shutting down")
	if *walDir != "" {
		// Close flushes and syncs the WAL (no torn tail at next start);
		// do it before reporting so the counters include the final sync.
		err := srv.Close()
		st := srv.WALStats()
		fmt.Printf("wal: %d records staged, %d syncs, %d bytes synced, %d zero-fill bytes, %d rotations, %d replayed at start, %d torn tails repaired\n",
			st.Appends, st.Syncs, st.SyncBytes, st.ZeroFillBytes, st.Rotations, st.Replayed, st.TornTails)
		return err
	}
	return nil
}

// verifyWAL scans a WAL directory offline: the directory itself when it
// holds a MANIFEST, otherwise every server-*/ subdirectory WithDurability
// created under it.
func verifyWAL(dir string) error {
	var dirs []string
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err == nil {
		dirs = append(dirs, dir)
	} else {
		matches, err := filepath.Glob(filepath.Join(dir, "server-*"))
		if err != nil {
			return err
		}
		for _, m := range matches {
			if _, err := os.Stat(filepath.Join(m, "MANIFEST")); err == nil {
				dirs = append(dirs, m)
			}
		}
	}
	if len(dirs) == 0 {
		return fmt.Errorf("no WAL manifest under %s", dir)
	}
	failed := 0
	for _, d := range dirs {
		res, err := wal.Verify(d)
		if err != nil {
			failed++
			fmt.Printf("%s: FAIL: %v\n", d, err)
			continue
		}
		line := fmt.Sprintf("%s: ok — %d segments, %d records, %d audit roots",
			d, res.Segments, res.Records, res.Roots)
		if res.Unrooted > 0 {
			line += fmt.Sprintf(", %d unrooted", res.Unrooted)
		}
		if res.TornTail {
			line += " (torn tail; repaired at next start)"
		}
		fmt.Println(line)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d WAL directories failed verification", failed, len(dirs))
	}
	return nil
}
