package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/checker"
)

// runAndReport runs one scenario, failing the test with the full
// replay dump on violation. When SCENARIO_ARTIFACT_DIR is set (CI),
// the dump is also written there for offline replay; SCENARIO_SEED
// overrides the scripted seed for replays.
func runAndReport(t *testing.T, sc Scenario) *Result {
	t.Helper()
	if s := os.Getenv("SCENARIO_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SCENARIO_SEED %q: %v", s, err)
		}
		sc.Seed = seed
	}
	res := Run(sc)
	if res.Failure != nil {
		dump := res.Dump()
		if dir := os.Getenv("SCENARIO_ARTIFACT_DIR"); dir != "" {
			if err := os.MkdirAll(dir, 0o755); err == nil {
				_ = os.WriteFile(filepath.Join(dir, res.Scenario.Name+".dump"), []byte(dump), 0o644)
			}
		}
		t.Fatalf("scenario failed:\n%s", dump)
	}
	return res
}

// TestCanonicalScenarios runs the whole canonical library — every
// scenario ends in the linearizability checker and the counter
// invariants.
func TestCanonicalScenarios(t *testing.T) {
	for _, sc := range Canonical(t.TempDir()) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			runAndReport(t, sc)
		})
	}
}

// TestScenarioDeterminism is the acceptance gate for the determinism
// contract: the same seed and script must produce the identical event
// schedule and the identical history, byte for byte, across two
// independent runs (fresh cluster each).
func TestScenarioDeterminism(t *testing.T) {
	var sc Scenario
	for _, c := range Canonical(t.TempDir()) {
		if c.Name == "split-brain-sequential" {
			sc = c
			break
		}
	}
	if sc.Name == "" {
		t.Fatal("split-brain-sequential not in the canonical library")
	}
	a := runAndReport(t, sc)
	b := runAndReport(t, sc)
	if !reflect.DeepEqual(a.Schedule, b.Schedule) {
		t.Errorf("schedules differ across identical runs:\nrun A:\n%s\nrun B:\n%s", a.Dump(), b.Dump())
	}
	if !reflect.DeepEqual(a.History, b.History) {
		t.Errorf("histories differ across identical runs:\nrun A:\n%s\nrun B:\n%s", a.Dump(), b.Dump())
	}
}

// TestInjectedBugIsCaught proves the harness is not vacuous: a run
// whose history is deliberately falsified must fail the checker, and
// its dump must carry the seed and script needed to replay it.
func TestInjectedBugIsCaught(t *testing.T) {
	res := Run(InjectedBug())
	if res.Failure == nil {
		t.Fatal("harness passed a deliberately falsified history")
	}
	if !errors.Is(res.Failure, checker.ErrNotLinearizable) {
		t.Fatalf("falsified history failed for the wrong reason: %v", res.Failure)
	}
	dump := res.Dump()
	for _, want := range []string{"seed=", "schedule:", "history:", "failure:"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump lacks %q:\n%s", want, dump)
		}
	}
}

// TestScriptErrorSurfacesInResult pins the failure path for malformed
// scripts: Run reports the parse error instead of panicking.
func TestScriptErrorSurfacesInResult(t *testing.T) {
	res := Run(Scenario{Name: "bad-script", Script: "at 10ms frobnicate"})
	if res.Failure == nil {
		t.Fatal("malformed script did not fail the run")
	}
}
