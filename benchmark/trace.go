package main

import (
	"bufio"
	"encoding/json"
	"os"
)

// Span lines of the JSONL file. start_ns/end_ns are on the run's
// monotonic clock; an open-loop client span starts at the op's due time.
type spanLine struct {
	Name     string `json:"name"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	Workload string `json:"workload,omitempty"`
	Calls    int    `json:"calls,omitempty"` // probe spans: calls timed together
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

type clientLine struct {
	Name     string `json:"name"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"`
	Conn     uint8  `json:"conn"`
	Op       uint64 `json:"op"`
	Object   uint32 `json:"object"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Attempts uint16 `json:"attempts"`
	Failed   bool   `json:"failed,omitempty"`
}

// writeSpans writes a traced run's spans: the workload span with one
// child per client call, the memnet substitution run with one child
// per op, and the probe spans. Spans stay in memory until the run has
// ended, so writing them costs the measured phases nothing.
func writeSpans(path, workload string, main, mem measurement, probes []probeSpan) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	id := uint64(0)

	phase := func(m measurement, line spanLine, write, read string) error {
		id++
		line.ID, line.Start, line.End = id, m.main().tl.start, m.reads().tl.end
		if err := enc.Encode(line); err != nil {
			return err
		}
		parent := id
		spans := m.spans()
		for i := range spans {
			s := &spans[i]
			id++
			name := read
			if s.kind == kindWrite {
				name = write
			}
			if err := enc.Encode(clientLine{Name: name, ID: id, Parent: parent, Conn: s.conn, Op: s.op,
				Object: s.object, Start: s.start, End: s.end, Attempts: s.attempts, Failed: s.failed}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := phase(main, spanLine{Name: "workload", Workload: workload}, "client.write", "client.read"); err != nil {
		return err
	}
	if err := phase(mem, spanLine{Name: "core.memnet"}, "core.memnet_op", "core.memnet_op"); err != nil {
		return err
	}
	for _, s := range probes {
		id++
		if err := enc.Encode(spanLine{Name: s.name, ID: id, Calls: s.n, Start: s.start, End: s.end}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
