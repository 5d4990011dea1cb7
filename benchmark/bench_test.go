package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload for one second, traced, with the layer
// probes, and asserts only that every named metric comes out finite and
// with its unit and that the correctness gates pass. It asserts nothing
// about time: under `go test ./...` the host is busy with other
// packages, so the pacing limits and the ten-sample tail rule are off.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := defaultRunConfig(w, 7, time.Second, true, dir)
			cfg.setupRounds, cfg.minTail, cfg.enforcePacing, cfg.probes = 1, 0, false, 20
			cfg.spans = filepath.Join(dir, "spans.jsonl")
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("correctness gates: %s", res.Violation)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			checkMetrics(t, endToEndMetrics, res.EndToEnd, true)
			checkMetrics(t, perLayerMetrics, res.PerLayer, false)
			if !w.durable {
				for _, name := range []string{"wal.syncs_per_write", "wal.records_per_sync", "wal.bytes_per_user_byte", "wal.replayed_records"} {
					if v := res.PerLayer[name].Value; v != 0 {
						t.Errorf("%s = %g on a workload without the WAL", name, v)
					}
				}
			} else if res.PerLayer["wal.syncs_per_write"].Value == 0 || res.PerLayer["wal.replayed_records"].Value == 0 {
				t.Errorf("durable workload shows no WAL activity: %+v", res.PerLayer)
			}

			var line bytes.Buffer
			if err := printDriverLine(&line, res); err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line.Bytes(), &parsed); err != nil {
				t.Fatalf("driver line: %v", err)
			}
			if parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil || len(parsed.Metrics) != len(perLayerMetrics) {
				t.Errorf("driver line incomplete: %s", line.String())
			}
			checkSpans(t, cfg.spans)
		})
	}
}

func checkMetrics(t *testing.T, defs []metricDef, got map[string]metric, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("got %d metrics, want %d", len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %g", d.name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %g, must be positive", d.name, m.Value)
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			Name string
			ID   uint64
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.Name == "" || s.ID == 0 {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		seen[s.Name]++
	}
	for _, name := range []string{"workload", "client.write", "client.read", "core.memnet_op", "wire.encode", "wire.decode", "tcpnet.echo", "wal.append_sync"} {
		if seen[name] == 0 {
			t.Errorf("no %s span in %s (have %v)", name, path, seen)
		}
	}
}

// TestManifest keeps BENCHMARK.json and the metric tables here in step.
func TestManifest(t *testing.T) {
	var mf manifest
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec has %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in spec", i, w.Name, workloads[i].name)
		}
	}
	if len(mf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec has %d", len(mf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range mf.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %v, spec %v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(mf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec has %d", len(mf.PerLayer), len(perLayerMetrics))
	}
	for i, m := range mf.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %v, spec %v", i, m, d)
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := make([]int64, 200)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 100}, {0.95, 190}, {0.005, 1}} {
		if got, err := percentile(sorted, c.p, 10); err != nil || got != c.want {
			t.Errorf("p%g = %d, %v; want %d", c.p*100, got, err, c.want)
		}
	}
	// p95 of 200 has exactly ten samples beyond it; p96 has eight.
	if _, err := percentile(sorted, 0.96, 10); err == nil {
		t.Error("p96 of 200 samples was not refused")
	}
	if _, err := percentile(nil, 0.5, 0); err == nil {
		t.Error("percentile of no samples was not refused")
	}
}

func TestPayload(t *testing.T) {
	for _, size := range []int{128, 1024, 29} {
		buf := make([]byte, size)
		fillPayload(buf, 1, 42, 123456, 9)
		id, err := checkPayload(buf, 42, size, 9)
		if err != nil || id != (payloadID{conn: 1, seq: 123456}) {
			t.Fatalf("size %d: round trip gave %+v, %v", size, id, err)
		}
		if id := keyID(payloadKey(buf)); id != (payloadID{conn: 1, seq: 123456}) {
			t.Errorf("size %d: key decodes to %+v", size, id)
		}
		if _, err := checkPayload(buf, 43, size, 9); err == nil {
			t.Errorf("size %d: value accepted for another object", size)
		}
		if _, err := checkPayload(buf, 42, size, 8); err == nil {
			t.Errorf("size %d: value accepted for another run", size)
		}
		buf[size-1] ^= 1
		if _, err := checkPayload(buf, 42, size, 9); err == nil {
			t.Errorf("size %d: corrupt filler accepted", size)
		}
	}
}

func TestVersionGate(t *testing.T) {
	g := newGates(2)
	if f := g.floor(1); !f.IsZero() {
		t.Fatalf("fresh gate at %s", f)
	}
	v5 := g.floor(0)
	v5.TS, v5.ID = 5, 2
	g.observe(1, v5)
	older := v5
	older.TS = 4
	g.observe(1, older) // never lowers
	if f := g.floor(1); f != v5 {
		t.Errorf("gate at %s, want %s", f, v5)
	}
	if err := checkVersion(v5, v5, false); err != nil {
		t.Errorf("read at the floor refused: %v", err)
	}
	if err := checkVersion(v5, v5, true); err == nil {
		t.Error("write at the floor accepted")
	}
	if err := checkVersion(v5, older, false); err == nil {
		t.Error("stale read accepted")
	}
}

// TestCompare checks that -compare passes equal files and flags a
// metric that got worse by more than its bound, in either direction of
// "better".
func TestCompare(t *testing.T) {
	var mf manifest
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &mf); err != nil {
		t.Fatal(err)
	}
	mk := func(scale map[string]float64) resultFile {
		f := resultFile{Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			r := &result{Workload: w.name, Correct: true, Attempted: 10, EndToEnd: map[string]metric{}}
			for _, d := range endToEndMetrics {
				s := 1.0
				if v, ok := scale[d.name]; ok {
					s = v
				}
				r.EndToEnd[d.name] = metric{Value: 100 * s, Unit: d.unit}
			}
			f.Workloads[w.name] = &workloadResult{EndToEnd: r}
		}
		return f
	}
	base := mk(nil)
	var out strings.Builder
	if n := compareFiles(&out, &mf, &base, &base); n != 0 {
		t.Errorf("equal files: %d exceeded\n%s", n, out.String())
	}
	slower := mk(map[string]float64{"write_p50_us": 1.5})
	if n := compareFiles(&out, &mf, &base, &slower); n != len(workloads) {
		t.Errorf("write_p50_us +50%%: %d exceeded, want %d", n, len(workloads))
	}
	if n := compareFiles(&out, &mf, &slower, &base); n != 0 {
		t.Errorf("write_p50_us improved: %d exceeded", n)
	}
	less := mk(map[string]float64{"goodput_ops_s": 0.5})
	if n := compareFiles(&out, &mf, &base, &less); n != len(workloads) {
		t.Errorf("goodput halved: %d exceeded, want %d", n, len(workloads))
	}
}
