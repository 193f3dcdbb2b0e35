package main

// The benchmark's fixed vocabulary: workloads, end-to-end metrics with
// their regression bounds, and per-layer metrics. BENCHMARK.json at the
// repository root mirrors these tables (spec_test.go keeps them equal), and
// README.md explains each row.

// Clock tags say what a number was measured on: wall time, the device
// model's virtual time, or an event count.
const (
	clockWall  = "wall"
	clockModel = "model"
	clockCount = "count"
)

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before -compare (and the driver) call it a regression.
	// Per-layer metrics carry none.
	Bound float64
	Clock string
	// Only names the single workload the metric exists on ("" = all).
	Only string
}

type workloadSpec struct {
	Name string
	// Op is the primary operation the latency metrics time.
	Op  string
	Why string
}

var workloads = []workloadSpec{
	{"browse-warm", "step", "128-object working set fits every cache, so a step+PNG is pure per-request overhead: net/http, JSON, admission, cursor, prefetch bookkeeping, mux round trips"},
	{"browse-cold", "step", "two disjoint 2048-hit lists, 8x the PNG and miniature LRUs: every step is a PNG-cache miss, a sharded batch fetch and a PNG encode"},
	{"open-view", "open", "uniform opens over 4096 objects through a block cache 1/8 of the corpus: descriptor, piece reads, device model, present, full-screen PNG"},
	{"query-planned", "query", "256-query battery over 200k synthetic docs: planner, postings, scatter/gather and id-list framing; PNG and block cache idle"},
	{"publish-browse", "step", "300/s open-loop Server.Publish beside a browse-warm client, crossing a seal and a merge per shard: what reads pay for writes"},
	{"voice-stream", "stream", "credit-based PCM streams of 0.9 MB spoken objects over cluster clients: the audio half, wire streams, read-ahead; no gateway"},
}

// endToEnd lists what a user of the system would see. Bounds come from
// the spread of ten seeds per workload on the 2-core reference box
// (README.md, "Noise"): each is about three times the widest interquartile
// spread any workload showed, and the timing ones also leave room for the
// 5-8 % the box itself drifts between one series of runs and the next.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: clockWall},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20, Clock: clockWall},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15, Clock: clockWall},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Clock: clockWall},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0, Clock: clockCount},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05, Clock: clockCount},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.03, Clock: clockCount},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.20, Clock: clockWall},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20, Clock: clockCount},
	{Name: "first_byte_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, Clock: clockWall},
	{Name: "stream_mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.20, Clock: clockWall},
	{Name: "writes_per_s", Unit: "1/s", Better: "higher", Bound: 0.02, Clock: clockWall, Only: "publish-browse"},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, Clock: clockWall, Only: "publish-browse"},
	{Name: "write_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Clock: clockWall, Only: "publish-browse"},
}

// contractEndToEnd is the subset BENCHMARK.json may carry: the driver
// wants every end-to-end metric on every workload and never zero, which
// rules out fail_ratio (reported as failed/attempted instead) and the
// publish-only write metrics (reported per layer as loadgen.write*).
func contractEndToEnd() []metricSpec {
	var out []metricSpec
	for _, m := range endToEnd {
		if m.Only == "" && m.Name != "fail_ratio" {
			out = append(out, m)
		}
	}
	return out
}

// perLayer lists the traced run's numbers, one module per prefix.
var perLayer = []metricSpec{
	{Name: "http.self_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "gateway.handler_self_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "gateway.step_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "gateway.png_miss_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "gateway.view_png_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "gateway.png_hit_ratio", Unit: "ratio", Better: "higher", Clock: clockCount},
	{Name: "gateway.shed", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "gateway.push_dropped", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "workstation.step_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "workstation.open_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "workstation.open_self_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "workstation.prefetch_hit_ratio", Unit: "ratio", Better: "higher", Clock: clockCount},
	{Name: "workstation.prefetch_dropped", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "workstation.backend_calls_per_op", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "cluster.self_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "cluster.miniatures_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "cluster.fanout", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "cluster.failovers", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "wire.rtt_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "wire.local_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "wire.tcp_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "wire.raw_tcp_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "wire.mux_tcp_self_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "wire.inflight_max", Unit: "count", Better: "higher", Clock: clockCount},
	{Name: "wire.stream_chunks_per_op", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "wire.stream_chunk_gap_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "wire.reconnects", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "server.miniature_encoded_ns", Unit: "ns", Better: "lower", Clock: clockWall},
	{Name: "server.descriptor_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "server.read_piece_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "server.query_planned_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "server.publish_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "server.encoded_hit_ratio", Unit: "ratio", Better: "higher", Clock: clockCount},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher", Clock: clockCount},
	{Name: "server.piece_reads_per_op", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "server.bytes_out_per_op", Unit: "B", Better: "lower", Clock: clockCount},
	{Name: "server.device_waits", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "server.device_wait_ms", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "server.readahead_blocks", Unit: "count", Better: "higher", Clock: clockCount},
	{Name: "server.shed", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "index.search_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "index.hits_per_query", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "index.segments", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "index.seals", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "index.merges", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "disk.reads_per_op", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "disk.writes_per_op", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "disk.busy_model_ms_per_op", Unit: "ms", Better: "lower", Clock: clockModel},
	{Name: "pool.fresh_ratio", Unit: "ratio", Better: "lower", Clock: clockCount},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Clock: clockCount},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "loadgen.writes_per_s", Unit: "1/s", Better: "higher", Clock: clockWall},
	{Name: "loadgen.write_p50_ms", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "loadgen.write_p95_ms", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "loadgen.write_late_p99_ms", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "trace.coverage_ratio", Unit: "ratio", Better: "higher", Clock: clockWall},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Clock: clockWall},
	{Name: "trace.ladder_agreement_ratio", Unit: "ratio", Better: "higher", Clock: clockWall},
}

// value labels a measured number with its metric's unit, direction and
// clock. A name missing from specs is a bug in the benchmark.
func value(specs []metricSpec, name string, v float64, samples int) metricValue {
	for _, m := range specs {
		if m.Name == name {
			return metricValue{Value: v, Unit: m.Unit, Better: m.Better, Clock: m.Clock, Samples: samples}
		}
	}
	panic("metric not in spec: " + name)
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
