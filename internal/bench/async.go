package bench

import (
	"context"
	"fmt"
	"time"

	"repro/atomicstore"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AsyncReadScaling validates on the real implementation that total read
// throughput grows with the number of servers (the shape of Figure 3a;
// absolute numbers depend on the host, so the table reports ops/s and
// the scaling factor relative to n=2).
func AsyncReadScaling(ctx context.Context, counts []int, perServerClients int, duration time.Duration) (Experiment, error) {
	table := stats.Table{
		Title:   "Async validation — read throughput scaling (real goroutine implementation)",
		Columns: []string{"servers", "reads/s", "scale vs n=2", "p50 latency"},
	}
	var base float64
	for _, n := range counts {
		res, err := RunAsyncWorkload(ctx, n, perServerClients, 0, duration)
		if err != nil {
			return Experiment{}, err
		}
		if base == 0 {
			base = res.ReadOpsPerSec
		}
		scale := 0.0
		if base > 0 {
			scale = res.ReadOpsPerSec / base
		}
		table.AddRow(
			fmt.Sprint(n),
			fmt.Sprintf("%.0f", res.ReadOpsPerSec),
			fmt.Sprintf("%.2fx", scale),
			res.ReadLatency.P50.String(),
		)
	}
	return Experiment{
		ID:    "async-read-scaling",
		Title: "Real implementation: read capacity is not eroded by cluster size",
		Table: table,
		Notes: "In-process, every server shares the host's cores, so total ops/s is CPU-bound " +
			"and cannot grow with n on one machine. The validated property is that reads involve " +
			"no inter-server coordination: per-cluster read throughput stays in one band as n grows, " +
			"where a quorum system's reads slow down with n. The linear-scaling shape itself is " +
			"reproduced in the round-model experiments (fig3a), where each server has its own links.",
	}, nil
}

// AsyncWriteThroughput validates that write throughput does not degrade
// as servers are added (the shape of Figure 3b).
func AsyncWriteThroughput(ctx context.Context, counts []int, perServerClients int, duration time.Duration) (Experiment, error) {
	table := stats.Table{
		Title:   "Async validation — write throughput vs servers (real implementation)",
		Columns: []string{"servers", "writes/s", "p50 latency"},
	}
	for _, n := range counts {
		res, err := RunAsyncWorkload(ctx, n, 0, perServerClients, duration)
		if err != nil {
			return Experiment{}, err
		}
		table.AddRow(
			fmt.Sprint(n),
			fmt.Sprintf("%.0f", res.WriteOpsPerSec),
			res.WriteLatency.P50.String(),
		)
	}
	return Experiment{
		ID:    "async-write-throughput",
		Title: "Real implementation: write throughput stays in one band as n grows",
		Table: table,
		Notes: "Write latency grows with n (two ring traversals), so per-client rates fall; aggregate completions stay in one band as in Figure 3b.",
	}, nil
}

// RunAsyncWorkload runs one measured workload on a fresh in-process
// cluster of n servers built with opts: readersPer reading and
// writersPer writing clients pinned to each server.
func RunAsyncWorkload(ctx context.Context, n, readersPer, writersPer int, duration time.Duration, opts ...atomicstore.Option) (workload.Result, error) {
	cluster, err := atomicstore.StartCluster(n, opts...)
	if err != nil {
		return workload.Result{}, err
	}
	defer func() { _ = cluster.Close() }()

	var readers, writers []workload.Storage
	var clients []*atomicstore.Client
	defer func() {
		for _, cl := range clients {
			_ = cl.Close()
		}
	}()
	attach := func(id atomicstore.ServerID, count int, into *[]workload.Storage) error {
		for i := 0; i < count; i++ {
			cl, err := cluster.Client(atomicstore.WithPinnedServer(id), atomicstore.WithAttemptTimeout(10*time.Second))
			if err != nil {
				return err
			}
			clients = append(clients, cl)
			*into = append(*into, cl)
		}
		return nil
	}
	for _, id := range cluster.Members() {
		if err := attach(id, readersPer, &readers); err != nil {
			return workload.Result{}, err
		}
		if err := attach(id, writersPer, &writers); err != nil {
			return workload.Result{}, err
		}
	}
	res := workload.Run(ctx, workload.Config{
		Readers:     readers,
		Writers:     writers,
		Concurrency: 4,
		Duration:    duration,
		Warmup:      duration / 5,
	})
	return res, nil
}
