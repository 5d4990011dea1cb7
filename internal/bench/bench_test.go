package bench

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"
)

func cell(t *testing.T, e Experiment, row, col int) float64 {
	t.Helper()
	if row >= len(e.Table.Rows) || col >= len(e.Table.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d) in table:\n%s", e.ID, row, col, e.Table.String())
	}
	raw := strings.TrimSuffix(e.Table.Rows[row][col], "x")
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", e.ID, row, col, raw)
	}
	return v
}

func TestFig1Shapes(t *testing.T) {
	e := Fig1()
	latA, tputA := cell(t, e, 0, 1), cell(t, e, 0, 2)
	latB, tputB := cell(t, e, 1, 1), cell(t, e, 1, 2)
	if latA != 4 || latB != 2 {
		t.Fatalf("latencies A=%v B=%v, want 4 and 2", latA, latB)
	}
	if tputB < 2.5*tputA {
		t.Fatalf("B's throughput %v not ~3x A's %v", tputB, tputA)
	}
}

func TestSec41ExactFormulae(t *testing.T) {
	e := Sec41Latency()
	for i, n := range ServerCounts {
		if got := cell(t, e, i, 1); got != 2 {
			t.Fatalf("n=%d: read latency %v, want 2", n, got)
		}
		if got := cell(t, e, i, 3); got != float64(2*n+2) {
			t.Fatalf("n=%d: write latency %v, want %d", n, got, 2*n+2)
		}
	}
}

func TestSec42ExactRates(t *testing.T) {
	e := Sec42Throughput()
	for i, n := range ServerCounts {
		if got := cell(t, e, i, 1); got < 0.9 || got > 1.1 {
			t.Fatalf("n=%d: write rate %v, want ~1", n, got)
		}
		if got := cell(t, e, i, 3); got < 0.95*float64(n) {
			t.Fatalf("n=%d: read rate %v, want ~%d", n, got, n)
		}
	}
}

func TestFig3aLinearReads(t *testing.T) {
	e := Fig3a()
	perServer := cell(t, e, 0, 2)
	if perServer < 80 || perServer > 95 {
		t.Fatalf("per-server read Mbit/s = %v, want ~89", perServer)
	}
	// Linearity: total at n=8 ~4x total at n=2.
	total2, total8 := cell(t, e, 0, 1), cell(t, e, len(ServerCounts)-1, 1)
	if ratio := total8 / total2; ratio < 3.6 || ratio > 4.4 {
		t.Fatalf("8-vs-2 server scaling = %v, want ~4", ratio)
	}
}

func TestFig3bFlatWrites(t *testing.T) {
	e := Fig3b()
	first := cell(t, e, 0, 1)
	if first < 70 || first > 90 {
		t.Fatalf("write Mbit/s = %v, want ~80", first)
	}
	for i := range ServerCounts {
		got := cell(t, e, i, 1)
		if got < 0.9*first || got > 1.1*first {
			t.Fatalf("write throughput not flat: row %d = %v vs %v", i, got, first)
		}
	}
}

func TestFig3cShapes(t *testing.T) {
	e := Fig3c()
	last := len(ServerCounts) - 1
	// Writes flat ~80 at scale.
	if got := cell(t, e, last, 3); got < 70 {
		t.Fatalf("contended writes = %v, want ~80", got)
	}
	// Reads grow with n.
	if cell(t, e, last, 1) < 2*cell(t, e, 0, 1) {
		t.Fatal("contended reads did not scale with servers")
	}
}

func TestFig3dSharedNetwork(t *testing.T) {
	e := Fig3d()
	last := len(ServerCounts) - 1
	w := cell(t, e, last, 3)
	if w < 30 || w > 60 {
		t.Fatalf("shared-network writes = %v, want ~45", w)
	}
	// Both classes substantially below the dedicated-network rates.
	if cell(t, e, last, 2) > 60 {
		t.Fatalf("shared-network per-server reads = %v, expected well below 89", cell(t, e, last, 2))
	}
}

func TestFig4Shapes(t *testing.T) {
	e := Fig4()
	reads0 := cell(t, e, 0, 1)
	for i := range ServerCounts {
		if got := cell(t, e, i, 1); got != reads0 {
			t.Fatalf("read latency not constant: %v vs %v", got, reads0)
		}
	}
	// Write latency strictly increasing.
	prev := 0.0
	for i := range ServerCounts {
		got := cell(t, e, i, 2)
		if got <= prev {
			t.Fatalf("write latency not increasing at row %d: %v after %v", i, got, prev)
		}
		prev = got
	}
}

func TestComparisonShapes(t *testing.T) {
	e := Comparison()
	lastRow := len(e.Table.Rows) - 1
	// Ring reads scale with n; every baseline's reads stay ~flat.
	if cell(t, e, lastRow, 1) < 2*cell(t, e, 0, 1) {
		t.Fatal("ring reads did not scale in comparison")
	}
	if cell(t, e, lastRow, 3) > 1.5*cell(t, e, 0, 3) {
		t.Fatal("quorum reads scaled; they must not")
	}
	if cell(t, e, lastRow, 4) > 1.2 {
		t.Fatal("chain reads exceeded the single-tail bound")
	}
	if total := cell(t, e, lastRow, 6); total > 1.2 {
		t.Fatalf("tob total rate = %v, want ~1", total)
	}
}

func TestAblationsShapes(t *testing.T) {
	e := Ablations()
	baseline := cell(t, e, 0, 1)
	noPiggy := cell(t, e, 1, 1)
	if ratio := noPiggy / baseline; ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("no-piggyback ratio = %v, want ~0.5", ratio)
	}
}

func TestCollisionsShapes(t *testing.T) {
	e := Collisions()
	bcastSwitched, bcastCollide := cell(t, e, 0, 1), cell(t, e, 0, 2)
	ringSwitched, ringCollide := cell(t, e, 1, 1), cell(t, e, 1, 2)
	if bcastCollide > 0.85*bcastSwitched {
		t.Fatalf("broadcast unharmed by collisions: %v vs %v", bcastCollide, bcastSwitched)
	}
	if ringCollide < 0.95*ringSwitched {
		t.Fatalf("ring harmed by collisions: %v vs %v", ringCollide, ringSwitched)
	}
}

func TestAllIncludesEveryExperiment(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || len(e.Table.Rows) == 0 {
			t.Fatalf("experiment %q empty", e.Title)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig1", "sec4.1", "sec4.2", "fig3a", "fig3b", "fig3c", "fig3d", "fig4", "cmp", "ablations", "collisions"} {
		if !ids[want] {
			t.Fatalf("experiment %q missing from All()", want)
		}
	}
}

func TestAsyncValidationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("async validation is wall-clock bound")
	}
	ctx := context.Background()
	reads, err := AsyncReadScaling(ctx, []int{2, 3}, 1, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads.Table.Rows) != 2 {
		t.Fatalf("rows = %d", len(reads.Table.Rows))
	}
	if cell(t, reads, 0, 1) <= 0 {
		t.Fatal("async read rate not positive")
	}
	writes, err := AsyncWriteThroughput(ctx, []int{2}, 1, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, writes, 0, 1) <= 0 {
		t.Fatal("async write rate not positive")
	}
}
