package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeConfig is -smoke with every file under the test's temp directory.
func smokeConfig(t *testing.T, seconds float64) config {
	c := newConfig(11, seconds, true, io.Discard)
	dir := t.TempDir()
	c.scratch, c.outDir = filepath.Join(dir, "scratch"), filepath.Join(dir, "out")
	if testing.Verbose() {
		c.log = os.Stderr
	}
	return c
}

// Every workload, both kinds of run, end to end at toy size: the program's
// outputs are checked (no lost acknowledged write, no checker violation,
// no failed call), every metric of the manifest is reported under its
// unit, and the layering shows — the WAL is silent without durability,
// the wire is silent on the sim.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			timed, err := runTimed(w, smokeConfig(t, 0.4))
			if err != nil {
				t.Fatal(err)
			}
			if !timed.Correct || timed.Attempted < 1 {
				t.Fatalf("timed run: correct=%v attempted=%d failed=%d", timed.Correct, timed.Attempted, timed.Failed)
			}
			checkMetrics(t, endToEnd, timed)
			for _, d := range endToEnd {
				if timed.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v; end-to-end metrics are never zero", d.name, timed.Metrics[d.name].Value)
				}
			}

			c := smokeConfig(t, 0.6)
			traced, err := runTraced(w, c)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced run not correct: %d of %d failed, violations %v, lost %v", traced.Failed, traced.Attempted,
					traced.Metrics["checker.violations"].Value, traced.Metrics["durable.lost_acked_writes"].Value)
			}
			checkMetrics(t, perLayer, traced)
			if _, err := os.Stat(filepath.Join(c.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
			v := func(name string) float64 { return traced.Metrics[name].Value }
			for _, name := range []string{"cluster.rpcs_per_txn", "cluster.coord_self_us_per_txn", "cluster.dm_handle_us_p50",
				"cluster.n1_txn_p50_us", "quorum.has_quorum_ns", "tcp.echo_rtt_us_p50", "sim.echo_rtt_us_p50",
				"wal.append_us_p50.solo", "tcp.frame_bytes.readreq", "tcp.frame_encode_ns.writereq1k",
				"process.allocs_per_txn", "client.txn_p50_ms", "checker.events"} {
				if v(name) <= 0 {
					t.Errorf("%s = %v, want a positive measurement", name, v(name))
				}
			}
			for _, name := range []string{"wal.appends_per_txn", "wal.fsyncs_per_txn", "wal.sync_ms_p50", "wal.write_bytes_per_txn", "wal.write_amp"} {
				if got := v(name); w.durable != (got > 0) {
					t.Errorf("%s = %v on a workload with durable=%v", name, got, w.durable)
				}
			}
			for _, name := range []string{"tcp.rpc_us_p50", "tcp.wire_us_p50", "tcp.wire_bytes_per_txn"} {
				if got := v(name); (w.network == "tcp") != (got > 0) {
					t.Errorf("%s = %v on network %s", name, got, w.network)
				}
			}
			if got := v("sim.msgs_per_txn"); (w.network == "sim") != (got > 0) {
				t.Errorf("sim.msgs_per_txn = %v on network %s", got, w.network)
			}
			if w.durable && v("cluster.replayed_records") <= 0 {
				t.Errorf("RestartDM replayed %v records", v("cluster.replayed_records"))
			}
		})
	}
}

func checkMetrics(t *testing.T, defs []metricDef, res *result) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, manifest has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing from the result", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("metric %s reported in %q, manifest says %q", d.name, m.Unit, d.unit)
		}
	}
}

// -repeat and -compare, end to end on one workload at toy size.
func TestRepeatAndCompare(t *testing.T) {
	c := smokeConfig(t, 0.3)
	var table strings.Builder
	c.log = &table
	a, b := filepath.Join(t.TempDir(), "a.json"), filepath.Join(t.TempDir(), "b.json")
	if err := repeatRuns(c, "sim_nested_n5", 2, a); err != nil {
		t.Fatal(err)
	}
	c.seed += 100
	if err := repeatRuns(c, "sim_nested_n5", 2, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "spread/bound") || !strings.Contains(table.String(), "txn_per_s") {
		t.Errorf("-repeat printed no summary table:\n%s", table.String())
	}
	var cmp strings.Builder
	if err := compareFiles(&cmp, a, b); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(cmp.String(), "\n") {
		if strings.HasPrefix(line, "sim_nested_n5") {
			rows++
			if !regexp.MustCompile(`(within bound|regressed|improved|unresolved)$`).MatchString(line) {
				t.Errorf("row without a verdict: %q", line)
			}
		}
	}
	if rows != len(endToEnd) {
		t.Errorf("-compare printed %d rows for one workload, want one per end-to-end metric (%d):\n%s", rows, len(endToEnd), cmp.String())
	}
}

// BENCHMARK.json at the repository root is generated from the tables in
// manifest.go (`go run ./bench -manifest > BENCHMARK.json`); this holds the
// checked-in copy to them, and the tables to the driver's limits.
func TestManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(want))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range endToEnd {
		check(d.name)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		if d.name == "setup_s" {
			setup = d.unit == "s" && d.better == "lower"
		}
	}
	if !setup {
		t.Errorf("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
		if !unit.MatchString(d.unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.name, d.unit)
		}
	}
	for _, d := range perLayer {
		check(d.name)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
	// 4 + 22 runs per workload, each a window plus set-up, warm-up and
	// read-back (under 14 s on the sandbox), plus two cold builds, must fit
	// the driver's 3420 s.
	runs := 4 + 22*len(workloads)
	if total := time.Duration(runs)*(runSeconds+14)*time.Second + 2*time.Minute; total > 3420*time.Second {
		t.Errorf("%d runs of %d s windows need about %v, over the driver's 3420 s", runs, runSeconds, total)
	}
}
