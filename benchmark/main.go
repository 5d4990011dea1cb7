// Command benchmark is the repository's one benchmark: a 3-server ring
// over real loopback TCP with product defaults, driven from 2 client
// connections through four workloads, reporting named end-to-end
// metrics and — traced — per-layer metrics taken from outside the
// program. See README.md beside this file and BENCHMARK.json at the
// repository root.
//
//	go run ./benchmark                        all four workloads, 15 s each
//	go run ./benchmark -trace 1               ... plus the traced run of each
//	go run ./benchmark -workload ring_write   one workload (the driver's form)
//	go run ./benchmark -compare a.json b.json two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this workload in this process; empty runs all four, each in a child process")
		seed    = flag.Int64("seed", 1, "workload seed: the op streams are generated from it")
		seconds = flag.Float64("seconds", 15, "measured seconds per run (twenty windows)")
		trace   = flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics and writing spans")
		out     = flag.String("out", filepath.Join(".bench_work", "out"), "directory for result files and span JSONL")
		compare = flag.Bool("compare", false, "compare two result files (arguments) against the BENCHMARK.json bounds")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *name == "":
		err = runAll(*seed, *seconds, *trace != 0, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace != 0, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its metrics by
// name, then the result object the driver reads as the last line.
func runOne(name string, seed int64, seconds float64, trace bool, out string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds %g", seconds)
	}
	workDir := filepath.Join(".bench_work", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	cfg := defaultRunConfig(w, seed, time.Duration(seconds*float64(time.Second)), trace, workDir)
	if trace {
		cfg.spans = filepath.Join(out, "spans-"+w.name+".jsonl")
	}
	fmt.Printf("# %s seed=%d seconds=%g trace=%t wal_fs=%s\n", w.name, seed, seconds, trace, fsType(workDir))
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if err := writeJSON(resultPath(out, w.name, trace), res); err != nil {
		return err
	}
	if trace {
		fmt.Printf("# spans: %s\n", cfg.spans)
	}
	if err := printDriverLine(os.Stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("correctness gate failed: %s", res.Violation)
	}
	return nil
}

func resultPath(out, workload string, trace bool) string {
	kind := "e2e"
	if trace {
		kind = "traced"
	}
	return filepath.Join(out, workload+"-"+kind+".json")
}

// runAll runs every workload in a fresh child process of this command,
// so CPU time, peak RSS and GC state do not leak from one workload into
// the next, and merges their results into <out>/result.json.
func runAll(seed int64, seconds float64, trace bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Meta: hostMeta(seed, seconds), Workloads: map[string]*workloadResult{}}
	var failed []string
	for i := range workloads {
		w := &workloads[i]
		wr := &workloadResult{}
		file.Workloads[w.name] = wr
		modes := []bool{false}
		if trace {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(btoi(traced)), "-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s (trace=%t): %v", w.name, traced, err))
				continue
			}
			var res result
			if err := readJSON(resultPath(out, w.name, traced), &res); err != nil {
				return err
			}
			if traced {
				wr.Traced = &res
			} else {
				wr.EndToEnd = &res
			}
		}
	}
	path := filepath.Join(out, "result.json")
	if err := writeJSON(path, file); err != nil {
		return err
	}
	fmt.Printf("# result file: %s\n", path)
	if len(failed) != 0 {
		return fmt.Errorf("%d runs failed: %v", len(failed), failed)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
