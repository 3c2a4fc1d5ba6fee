package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// runSeconds is how long one run measures; BENCHMARK.json carries it to
// the driver, which passes it back as --seconds.
const runSeconds = 20

// metricDef is one row of the benchmark's contract.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the numbers a caller of Store.Run would see, reported by
// every workload from the untraced closed-loop window, corrected for the
// machine's speed during the run (speed.go). The bounds are what ten-seed
// repeats on the 2-core sandbox support: at least twice the widest
// interquartile spread seen. See README.md, Steadiness.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"txn_per_s", "1/s", "higher", 0.20},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"txn_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_txn", "ms", "lower", 0.20},
}

// frameNames are the frames the codec probes measure.
var frameNames = []string{"readreq", "readresp", "writereq1k", "committop"}

// ladderRates are the open-loop ladder's offered rates, txn/s.
var ladderRates = []int{150, 300, 600}

// perLayer are the single-layer numbers of the traced run, grouped by the
// module on the serving path they belong to. They carry no bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "higher"} }
	defs := []metricDef{
		// cluster: coordinator and replica state machine.
		lower("cluster.rpcs_per_txn", "count"),
		lower("cluster.notifies_per_txn", "count"),
		lower("cluster.coord_self_us_per_txn", "us"),
		lower("cluster.dm_handle_us_p50", "us"),
		lower("cluster.dm_handle_us_per_txn", "us"),
		lower("cluster.busy_retries_per_ktxn", "count"),
		lower("cluster.restarts_per_ktxn", "count"),
		lower("cluster.hedges_per_ktxn", "count"),
		lower("cluster.aborts_per_ktxn", "count"),
		lower("cluster.restart_dm_ms", "ms"),
		lower("cluster.replayed_records", "count"),
		lower("cluster.n1_txn_p50_us", "us"),
		lower("quorum.has_quorum_ns", "ns"),
		// transport/tcp: sockets and the gob frame codec.
		lower("tcp.rpc_us_p50", "us"),
		lower("tcp.rpc_us_p99", "us"),
		lower("tcp.wire_us_p50", "us"),
		lower("tcp.wire_bytes_per_txn", "bytes"),
		lower("tcp.echo_rtt_us_p50", "us"),
	}
	for _, f := range frameNames {
		defs = append(defs,
			lower("tcp.frame_encode_ns."+f, "ns"),
			lower("tcp.frame_decode_ns."+f, "ns"),
			lower("tcp.frame_bytes."+f, "bytes"),
			lower("tcp.frame_allocs."+f, "count"),
		)
	}
	defs = append(defs,
		lower("sim.msgs_per_txn", "count"),
		lower("sim.echo_rtt_us_p50", "us"),
		// wal: log appends, group commit, fsync.
		lower("wal.appends_per_txn", "count"),
		lower("wal.fsyncs_per_txn", "count"),
		higher("wal.records_per_fsync", "count"),
		lower("wal.flush_ms_p50", "ms"),
		lower("wal.flush_ms_p99", "ms"),
		lower("wal.sync_ms_p50", "ms"),
		lower("wal.write_bytes_per_txn", "bytes"),
		lower("wal.write_amp", "ratio"),
		lower("wal.snapshots", "count"),
		lower("wal.snapshot_ms_p50", "ms"),
		lower("wal.append_us_p50.solo", "us"),
		lower("process.allocs_per_txn", "count"),
		lower("process.alloc_kb_per_txn", "kb"),
		lower("process.gc_pause_ms", "ms"),
		lower("process.peak_rss_mb", "mb"),
		// client: the load generator's own view.
		lower("client.txn_p50_ms", "ms"),
		lower("client.txn_p99_ms", "ms"),
		lower("client.txn_p999_ms", "ms"),
		lower("client.fail_share", "ratio"),
	)
	for _, r := range ladderRates {
		defs = append(defs, lower(fmt.Sprintf("client.open_p50_ms.r%d", r), "ms"))
	}
	for _, r := range ladderRates {
		defs = append(defs, lower(fmt.Sprintf("client.open_p99_ms.r%d", r), "ms"))
	}
	return append(defs,
		lower("client.sched_lag_p99_ms", "ms"),
		higher("client.slo_rate_per_s", "1/s"),
		lower("trace.overhead_share", "ratio"),
		lower("trace.unmatched_spans", "count"),
		higher("checker.events", "count"),
		lower("checker.violations", "count"),
		lower("durable.lost_acked_writes", "count"),
	)
}

// metricSet holds the values of one run, by metric name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the result's metric map: exactly the metrics of defs, each
// with its unit, zero where the workload does not exercise the layer.
func (r *result) fill(defs []metricDef, vals metricSet) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		if v := vals[d.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("bench: metric %s measured %v, which the result line cannot carry", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	var stray []string
	for name := range vals {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return fmt.Errorf("bench: measured metrics missing from the manifest: %v", stray)
	}
	return nil
}

// manifestJSON renders BENCHMARK.json from the tables above, so the file
// at the repository root and the program cannot disagree (TestManifest
// holds the checked-in copy to this output).
func manifestJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
