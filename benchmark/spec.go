package main

import "time"

// Deployment shape shared by every workload: the paper's ring is
// measured with every server up, and the two client connections match
// the two cores of the probe host so the in-process load generator
// does not outnumber the servers.
const (
	numServers = 3
	numConns   = 2
)

// workload is one traffic mix. Every field is an input property the
// system's behaviour depends on; the reason each mix exists is in why
// (repeated in BENCHMARK.json and README.md).
type workload struct {
	name string
	why  string

	// inflight is the closed-loop window per connection. Zero selects
	// the open loop, which offers ratePerSec evenly over the
	// connections and caps each at openCap operations in flight.
	inflight   int
	ratePerSec int
	openCap    int

	// readPct is the share of reads in the loop. A workload with none
	// ends with a read-back phase instead (see runner.measure), because
	// the driver wants read latency from every workload.
	readPct int

	valueBytes int
	objects    int
	durable    bool

	// history is how many of the first operations are kept for
	// checker.CheckTagged.
	history int
}

func (w *workload) openLoop() bool { return w.inflight == 0 }

// readBack reports whether the loop has no reads of its own.
func (w *workload) readBack() bool { return w.readPct == 0 }

var workloads = []workload{
	{
		name:       "ring_write",
		why:        "closed loop 2x16, all writes of 1 KiB on 64 objects, WAL off: ring pipeline (lanes, trains, codec, tcpnet) is all the work; then read-back",
		inflight:   16,
		valueBytes: 1024,
		objects:    64,
	},
	{
		name:       "durable_write",
		why:        "the ring_write op stream with the WAL on in train sync on real disk: the fdatasync send gate dominates; ends with kill, restart, read-back",
		inflight:   16,
		valueBytes: 1024,
		objects:    64,
		durable:    true,
	},
	{
		name:       "read_mostly_open",
		why:        "open loop 5000 ops/s, 95% reads, 128 B on 1024 objects, WAL off: service time from idle, where batching cannot help and linger shows",
		ratePerSec: 5000,
		openCap:    512,
		readPct:    95,
		valueBytes: 128,
		objects:    1024,
	},
	{
		name:       "contended_mixed",
		why:        "closed loop 2x8, 50% reads on 4 hot objects, 1 KiB, WAL off: reads park behind pre-writes, writes share lanes, fairness decides",
		inflight:   8,
		readPct:    50,
		valueBytes: 1024,
		objects:    4,
		history:    20000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one metric. The regression bounds live only in
// BENCHMARK.json, which -compare reads; the smoke test checks that the
// names and units here and there agree.
type metricDef struct {
	name   string
	unit   string
	better string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"goodput_ops_s", "ops/s", "higher"},
	{"write_p50_us", "us", "lower"},
	{"read_p50_us", "us", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayerMetrics are emitted by every traced run. A traced run may
// print more (the p99.9 tails, when the sample supports them); those
// are not registered because a run cannot always produce them.
var perLayerMetrics = []metricDef{
	{"client.write_p95_us", "us", "lower"},
	{"client.read_p95_us", "us", "lower"},
	{"client.write_p99_us", "us", "lower"},
	{"client.read_p99_us", "us", "lower"},
	{"client.max_us", "us", "lower"},
	{"client.attempts_per_op", "ratio", "lower"},
	{"client.ops_attempted", "count", "higher"},
	{"client.ops_failed", "count", "lower"},

	{"process.cpu_us_per_op", "us", "lower"},

	{"wire.encode_ns_per_frame", "ns", "lower"},
	{"wire.decode_ns_per_frame", "ns", "lower"},
	{"wire.frame_bytes", "bytes", "lower"},
	{"wire.allocs_per_round_trip", "count", "lower"},

	{"tcpnet.echo_rtt_p50_us", "us", "lower"},
	{"tcpnet.echo_msgs_per_s", "1/s", "higher"},
	{"tcpnet.egress_ns_per_frame", "ns", "lower"},

	{"core.ring_frames_per_write", "ratio", "lower"},
	{"core.envelopes_per_frame", "ratio", "higher"},
	{"core.ack_fast_share", "ratio", "higher"},
	{"core.ack_send_failures", "count", "lower"},
	{"core.lane_drops", "count", "lower"},
	{"core.recovery_buffer_leaks", "count", "lower"},
	{"core.memnet_write_p50_us", "us", "lower"},
	{"core.memnet_read_p50_us", "us", "lower"},
	{"core.memnet_goodput_ops_s", "ops/s", "higher"},

	{"wal.syncs_per_write", "ratio", "lower"},
	{"wal.records_per_sync", "ratio", "higher"},
	{"wal.bytes_per_user_byte", "ratio", "lower"},
	{"wal.append_ns", "ns", "lower"},
	{"wal.sync_wait_p50_us", "us", "lower"},
	{"wal.replay_s", "s", "lower"},
	{"wal.replayed_records", "count", "lower"},
	{"wal.torn_tails", "count", "lower"},

	{"share.wal_of_write_p50", "ratio", "lower"},
	{"share.wal_off_write_p50_us", "us", "lower"},
	{"share.wal_on_write_p50_us", "us", "lower"},
	{"share.sockets_of_write_p50", "ratio", "lower"},

	{"loadgen.late_p50_us", "us", "lower"},
	{"loadgen.late_p95_us", "us", "lower"},
	{"loadgen.sent_ratio", "ratio", "higher"},
	{"loadgen.trace_overhead_pct", "%", "lower"},
}

// Validity limits of the open-loop generator: beyond them the run
// measured the generator, not the store.
const (
	maxLateP95   = 300 * time.Microsecond
	minSentRatio = 0.99
)

const (
	minTailBeyond = 10 // samples required beyond a reported percentile
	numWindows    = 20 // every end-to-end metric is taken over these
	setupRounds   = 15 // setup_s is the median of this many set-ups
)
