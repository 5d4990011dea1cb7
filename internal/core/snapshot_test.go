package core_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/tag"
	"repro/internal/wire"
)

// TestSnapshotReadsRaceLaneApplies hammers the lock-free read fast path
// from many reader goroutines while a writer drives lane applies on the
// same object. Under -race this exercises the snapshot publication
// discipline (stores by the owning lane only, loads anywhere); the
// functional assertions pin the two properties lock-freedom must not
// cost: per-reader tag monotonicity (regular reads would show tag
// regressions) and read values matching their tags.
func TestSnapshotReadsRaceLaneApplies(t *testing.T) {
	c := newCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	const obj = wire.ObjectID(7)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// One writer per server keeps applies, prunes, and snapshot
	// republishes flowing on the object's lane everywhere.
	for _, id := range c.members {
		wcl := c.pinnedClient(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				val := []byte{byte(i), byte(i >> 8)}
				if _, err := wcl.Write(ctx, obj, val); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				i++
			}
		}()
	}

	// Readers hammer the fast path on every server and check tags never
	// regress within one reader's session (atomic-register regularity
	// the snapshot path must preserve).
	for r := 0; r < 6; r++ {
		rcl := c.pinnedClient(c.members[r%len(c.members)])
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last tag.Tag
			for {
				select {
				case <-stop:
					return
				default:
				}
				val, tg, err := rcl.Read(ctx, obj)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if tg.Less(last) {
					t.Errorf("read tag regressed: %s after %s", tg, last)
					return
				}
				last = tg
				if !tg.IsZero() && len(val) != 2 {
					t.Errorf("read value %q does not match any written value", val)
					return
				}
			}
		}()
	}

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
}
