// Package repro_test hosts the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation (see DESIGN.md §5 for
// the experiment index and EXPERIMENTS.md for recorded results). The
// figure benchmarks run the round-model simulator and report the paper's
// headline metrics via b.ReportMetric; the async benchmarks exercise the
// real goroutine implementation end to end.
package repro_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/atomicstore"
	"repro/internal/bench"
	"repro/internal/netsim"
	"repro/internal/simstore"
	"repro/internal/workload"
)

// reportSimRing runs one simulated ring configuration per iteration and
// reports rates.
func reportSimRing(b *testing.B, cfg simstore.RingConfig, n, readersPer, readPipe, writersPer, writePipe, rounds, warmup int) (readRate, writeRate, bottleneck float64) {
	b.Helper()
	cal := netsim.DefaultCalibration()
	for i := 0; i < b.N; i++ {
		m := &simstore.Metrics{WarmupRounds: warmup}
		ring := make([]int, n)
		for j := range ring {
			ring[j] = j + 1
		}
		var procs []netsim.Process
		for _, id := range ring {
			procs = append(procs, &simstore.RingServer{IDNum: id, Ring: ring, Cal: cal, Cfg: cfg})
		}
		next := 1000
		for _, id := range ring {
			for r := 0; r < readersPer; r++ {
				next++
				procs = append(procs, &simstore.Client{IDNum: next, Server: id, Reads: true, Pipeline: readPipe, Cal: cal, M: m})
			}
			for w := 0; w < writersPer; w++ {
				next++
				procs = append(procs, &simstore.Client{IDNum: next, Server: id, Reads: false, Pipeline: writePipe, Cal: cal, M: m})
			}
		}
		sim := netsim.MustNew(netsim.Config{SharedNetwork: cfg.SharedNetwork}, procs...)
		sim.Run(rounds)
		m.Finish(rounds)
		readRate = m.ReadRate()
		writeRate = m.WriteRate()
		bottleneck = sim.Stats().BottleneckBytesPerRound()
	}
	return readRate, writeRate, bottleneck
}

// BenchmarkFig1 regenerates the motivating comparison of Figure 1.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := bench.Fig1()
		if len(e.Table.Rows) != 2 {
			b.Fatalf("unexpected fig1 rows: %v", e.Table.Rows)
		}
	}
}

// BenchmarkSec41Latency checks the §4.1 latency formulae per ring size.
func BenchmarkSec41Latency(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			cal := netsim.DefaultCalibration()
			var lat float64
			for i := 0; i < b.N; i++ {
				m := &simstore.Metrics{}
				ring := make([]int, n)
				var procs []netsim.Process
				for j := range ring {
					ring[j] = j + 1
				}
				for _, id := range ring {
					procs = append(procs, &simstore.RingServer{IDNum: id, Ring: ring, Cal: cal})
				}
				procs = append(procs, &simstore.Client{IDNum: 1000, Server: 1, Reads: false, Pipeline: 1, Cal: cal, M: m})
				sim := netsim.MustNew(netsim.Config{}, procs...)
				rounds := 20 * (2*n + 2)
				sim.Run(rounds)
				m.Finish(rounds)
				lat = m.MeanWriteLatency()
			}
			b.ReportMetric(lat, "write-rounds")
			b.ReportMetric(float64(2*n+2), "expected-rounds")
		})
	}
}

// BenchmarkSec42Throughput checks the §4.2 throughput claims.
func BenchmarkSec42Throughput(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			readRate, _, _ := reportSimRing(b, simstore.RingConfig{}, n, 2, 2, 0, 0, 800, 200)
			_, writeRate, _ := reportSimRing(b, simstore.RingConfig{}, n, 0, 0, 2, 2, 1500, 400)
			b.ReportMetric(readRate, "reads/round")
			b.ReportMetric(writeRate, "writes/round")
		})
	}
}

// BenchmarkFig3aReadThroughput sweeps the read-scaling chart.
func BenchmarkFig3aReadThroughput(b *testing.B) {
	cal := netsim.DefaultCalibration()
	for _, n := range bench.ServerCounts {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			readRate, _, bb := reportSimRing(b, simstore.RingConfig{}, n, 2, 2, 0, 0, 1200, 300)
			b.ReportMetric(cal.ThroughputMbps(readRate, bb), "Mbit/s")
		})
	}
}

// BenchmarkFig3bWriteThroughput sweeps the flat-writes chart.
func BenchmarkFig3bWriteThroughput(b *testing.B) {
	cal := netsim.DefaultCalibration()
	for _, n := range bench.ServerCounts {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			_, writeRate, bb := reportSimRing(b, simstore.RingConfig{}, n, 0, 0, 2, 2, 1500, 400)
			b.ReportMetric(cal.ThroughputMbps(writeRate, bb), "Mbit/s")
		})
	}
}

// BenchmarkFig3cContentionSeparate sweeps the dual-network contention
// chart.
func BenchmarkFig3cContentionSeparate(b *testing.B) {
	benchContention(b, false)
}

// BenchmarkFig3dContentionShared sweeps the shared-network contention
// chart.
func BenchmarkFig3dContentionShared(b *testing.B) {
	benchContention(b, true)
}

func benchContention(b *testing.B, shared bool) {
	b.Helper()
	cal := netsim.DefaultCalibration()
	for _, n := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			cfg := simstore.RingConfig{SharedNetwork: shared}
			readPipe := 6 * n
			if readPipe < 24 {
				readPipe = 24
			}
			writePipe := 2 * n
			if writePipe < 16 {
				writePipe = 16
			}
			readRate, writeRate, bb := reportSimRing(b, cfg, n, 1, readPipe, 1, writePipe, 4000, 1000)
			b.ReportMetric(cal.ThroughputMbps(readRate, bb), "read-Mbit/s")
			b.ReportMetric(cal.ThroughputMbps(writeRate, bb), "write-Mbit/s")
		})
	}
}

// BenchmarkFig4Latency sweeps the latency chart.
func BenchmarkFig4Latency(b *testing.B) {
	cal := netsim.DefaultCalibration()
	for _, n := range []int{2, 5, 8} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			var read, write float64
			for i := 0; i < b.N; i++ {
				e := readWriteLatency(n)
				read, write = e[0], e[1]
			}
			bb := float64(cal.PayloadFrameBytes())
			b.ReportMetric(cal.LatencyMillis(read, bb), "read-ms")
			b.ReportMetric(cal.LatencyMillis(write, bb), "write-ms")
		})
	}
}

// readWriteLatency measures isolated latencies in rounds.
func readWriteLatency(n int) [2]float64 {
	cal := netsim.DefaultCalibration()
	run := func(reads bool, rounds int) float64 {
		m := &simstore.Metrics{}
		ring := make([]int, n)
		var procs []netsim.Process
		for j := range ring {
			ring[j] = j + 1
		}
		for _, id := range ring {
			procs = append(procs, &simstore.RingServer{IDNum: id, Ring: ring, Cal: cal})
		}
		procs = append(procs, &simstore.Client{IDNum: 1000, Server: 1, Reads: reads, Pipeline: 1, Cal: cal, M: m})
		sim := netsim.MustNew(netsim.Config{}, procs...)
		sim.Run(rounds)
		m.Finish(rounds)
		if reads {
			return m.MeanReadLatency()
		}
		return m.MeanWriteLatency()
	}
	return [2]float64{run(true, 200), run(false, 30*(2*n+2))}
}

// BenchmarkComparisonBaselines regenerates the §4.2 baseline comparison.
func BenchmarkComparisonBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := bench.Comparison()
		if len(e.Table.Rows) == 0 {
			b.Fatal("empty comparison")
		}
	}
}

// BenchmarkAblationPiggyback quantifies piggybacking (DESIGN.md §5).
func BenchmarkAblationPiggyback(b *testing.B) {
	for _, piggy := range []bool{true, false} {
		b.Run("piggyback="+strconv.FormatBool(piggy), func(b *testing.B) {
			cfg := simstore.RingConfig{DisablePiggyback: !piggy}
			_, writeRate, _ := reportSimRing(b, cfg, 4, 0, 0, 2, 2, 1500, 400)
			b.ReportMetric(writeRate, "writes/round")
		})
	}
}

// BenchmarkAblationFairness contrasts the nb_msg rule with FIFO
// forwarding.
func BenchmarkAblationFairness(b *testing.B) {
	for _, fair := range []bool{true, false} {
		b.Run("fairness="+strconv.FormatBool(fair), func(b *testing.B) {
			cfg := simstore.RingConfig{DisableFairness: !fair}
			_, writeRate, _ := reportSimRing(b, cfg, 4, 0, 0, 2, 2, 1500, 400)
			b.ReportMetric(writeRate, "writes/round")
		})
	}
}

// BenchmarkAblationValueElision compares elided write-phase messages
// (default) with full-value writes (the paper's literal pseudo-code) on
// the real implementation. (The old pending-mode ablation is gone:
// receive-time pending is the default since the one-lock commit path.)
func BenchmarkAblationValueElision(b *testing.B) {
	for _, elide := range []bool{true, false} {
		b.Run("elision="+strconv.FormatBool(elide), func(b *testing.B) {
			var opts []atomicstore.Option
			if !elide {
				opts = append(opts, atomicstore.WithoutValueElision())
			}
			res := runAsync(b, 3, 1, 1, opts...)
			b.ReportMetric(res.ReadOpsPerSec, "reads/s")
			b.ReportMetric(res.WriteOpsPerSec, "writes/s")
		})
	}
}

// BenchmarkAsyncReadScaling validates read scaling on the real
// implementation (shape of Figure 3a).
func BenchmarkAsyncReadScaling(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			res := runAsync(b, n, 2, 0)
			b.ReportMetric(res.ReadOpsPerSec, "reads/s")
		})
	}
}

// BenchmarkAsyncWriteThroughput validates flat writes on the real
// implementation (shape of Figure 3b).
func BenchmarkAsyncWriteThroughput(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			res := runAsync(b, n, 0, 2)
			b.ReportMetric(res.WriteOpsPerSec, "writes/s")
		})
	}
}

// BenchmarkAsyncMixedContention validates the contended mix end to end.
func BenchmarkAsyncMixedContention(b *testing.B) {
	res := runAsync(b, 4, 1, 1)
	b.ReportMetric(res.ReadOpsPerSec, "reads/s")
	b.ReportMetric(res.WriteOpsPerSec, "writes/s")
}

// runAsync drives the real implementation for a short measured window.
func runAsync(b *testing.B, n, readersPer, writersPer int, opts ...atomicstore.Option) workload.Result {
	b.Helper()
	var res workload.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.RunAsyncWorkload(context.Background(), n, readersPer, writersPer, 400*time.Millisecond, opts...)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}
