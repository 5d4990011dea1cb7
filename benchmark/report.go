package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// printResult prints every metric by name with its unit; end-to-end
// metrics with the per-window values their median was taken from and
// the sample count behind each.
func printResult(w io.Writer, res *result) {
	line := func(name string, m metric) {
		fmt.Fprintf(w, "%s %s %.6g %s", res.Workload, name, m.Value, m.Unit)
		if len(m.Windows) != 0 {
			fmt.Fprintf(w, "  windows=%.6g", m.Windows)
		}
		if len(m.Samples) != 0 {
			fmt.Fprintf(w, "  n=%d", m.Samples)
		}
		fmt.Fprintln(w)
	}
	for _, d := range endToEndMetrics {
		line(d.name, res.EndToEnd[d.name])
	}
	fmt.Fprintf(w, "%s failed_ops_ratio %.6g ratio  (%d failed of %d attempted)\n",
		res.Workload, ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	if res.Traced {
		for _, d := range perLayerMetrics {
			line(d.name, res.PerLayer[d.name])
		}
		for _, name := range sortedKeys(res.Extra) {
			line(name, res.Extra[name])
		}
	}
	if res.Correct {
		fmt.Fprintf(w, "%s correctness ok\n", res.Workload)
	} else {
		fmt.Fprintf(w, "%s correctness FAILED: %s\n", res.Workload, res.Violation)
	}
}

// printDriverLine prints the one-line result object: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func printDriverLine(w io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	src := res.EndToEnd
	if res.Traced {
		src = res.PerLayer
	}
	for name, m := range src {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultFile is what `go run ./benchmark` leaves in <out>/result.json
// and what -compare reads.
type resultFile struct {
	Meta      meta                       `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd *result `json:"end_to_end"`
	Traced   *result `json:"traced,omitempty"`
}

// meta records what a number depends on besides the code.
type meta struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	Time       string  `json:"time"`
	Conns      int     `json:"client_connections"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Kernel     string  `json:"kernel"`
	WALFS      string  `json:"wal_filesystem"`
}

func hostMeta(seed int64, seconds float64) meta {
	m := meta{
		Seed: seed, Seconds: seconds, Commit: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
		Conns: numConns, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Kernel: kernelRelease(), WALFS: fsType("."),
	}
	// Outside a git checkout (the driver's) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// fsType names the filesystem under path. The durable workload's
// numbers mean little on tmpfs, where fdatasync is free.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	default:
		return fmt.Sprintf("%#x", uint32(st.Type))
	}
}

// manifest is the part of BENCHMARK.json -compare needs.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// runCompare prints, per workload and end-to-end metric, how result
// file b differs from a, against the metric's BENCHMARK.json bound,
// and fails when b is worse than a by more than a bound.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two result files, got %d arguments", len(args))
	}
	var mf manifest
	if err := readJSON("BENCHMARK.json", &mf); err != nil {
		return fmt.Errorf("bounds: %w (run from the repository root)", err)
	}
	var a, b resultFile
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	fmt.Printf("a: %s seed=%d commit=%s\nb: %s seed=%d commit=%s\n",
		args[0], a.Meta.Seed, a.Meta.Commit, args[1], b.Meta.Seed, b.Meta.Commit)
	if n := compareFiles(os.Stdout, &mf, &a, &b); n != 0 {
		return fmt.Errorf("%d comparisons outside their bounds", n)
	}
	return nil
}

// compareFiles prints the comparison table and returns how many rows
// are outside their bounds; a missing, failed or incorrect workload
// counts as one.
func compareFiles(w io.Writer, mf *manifest, a, b *resultFile) int {
	fmt.Fprintf(w, "%-18s %-15s %12s %12s %8s %7s\n", "workload", "metric", "a", "b", "worse", "bound")
	exceeded := 0
	for _, wl := range mf.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			fmt.Fprintf(w, "%-18s missing from a result file\n", wl.Name)
			exceeded++
			continue
		}
		for _, m := range mf.EndToEnd {
			va, vb := ra.EndToEnd.EndToEnd[m.Name].Value, rb.EndToEnd.EndToEnd[m.Name].Value
			worse := ratio(vb-va, va)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound || va == 0 {
				verdict = "  EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(w, "%-18s %-15s %12.6g %12.6g %+7.1f%% %6.0f%%%s\n",
				wl.Name, m.Name, va, vb, worse*100, m.Bound*100, verdict)
		}
		for _, r := range []*result{ra.EndToEnd, rb.EndToEnd} {
			if r.Failed != 0 || !r.Correct {
				fmt.Fprintf(w, "%-18s failed=%d correct=%t\n", wl.Name, r.Failed, r.Correct)
				exceeded++
			}
		}
	}
	return exceeded
}
