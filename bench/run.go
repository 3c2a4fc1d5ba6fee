package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/checker"
)

// config is what one run needs beyond its workload.
type config struct {
	seed    int64
	seconds float64 // length of the measured part
	keys    int
	clients int // closed-loop callers sharing one Store

	warmup      time.Duration // untimed, before every measured part
	setups      int           // how many times set-up is repeated for setup_s
	probeBudget time.Duration // per probe

	scratch string // WAL directories live here; removed after the run
	outDir  string // traces are written here
	log     io.Writer
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// slices is how many equal parts a timed window is cut into; throughput
// and CPU cost are reported as the median part, so one disturbed stretch
// of a shared machine does not move them.
const slices = 10

// traceSegments is how many stretches the traced pass alternates between
// recording off and on.
const traceSegments = 8

// fullHistoryTxns caps how many transactions go through the checker's
// cross-item serializability pass, which is quadratic in time and memory;
// per-item linearizability is checked over the whole history.
const fullHistoryTxns = 500

// walDirFor returns a fresh, empty WAL directory under the scratch root.
func (c config) walDirFor(tag string) (string, error) {
	dir := filepath.Join(c.scratch, tag)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// setUp opens the workload's cluster and preloads it: what setup_s times.
func setUp(w workload, p *plan, c config, tag string, in instruments) (*deployment, string, error) {
	dir := ""
	if w.durable {
		var err error
		if dir, err = c.walDirFor(tag); err != nil {
			return nil, "", err
		}
	}
	d, err := deploy(w, p, c.seed, dir, in)
	if err != nil {
		return nil, "", err
	}
	if err := d.preload(p); err != nil {
		d.close()
		return nil, "", fmt.Errorf("workload %s: preload: %w", w.name, err)
	}
	return d, dir, nil
}

// warmUp runs the untimed lead-in and, on the fault workload, stops the
// replica and lets the callers notice before anything is measured.
func warmUp(w workload, d *deployment, execs []*executor, c config) error {
	runClosed(execs, c.warmup, 1, false)
	if w.stopDM == "" {
		return nil
	}
	if err := d.store.StopDM(w.stopDM); err != nil {
		return err
	}
	runClosed(execs, c.warmup/4, 1, false)
	return nil
}

func executors(d *deployment, p *plan, n int, t *tracer) []*executor {
	execs := make([]*executor, n)
	for i := range execs {
		execs[i] = newExecutor(d.store, p, i, t)
	}
	return execs
}

// readBack counts acknowledged writes the store no longer returns. On a
// durable workload the store is first closed and reopened from its WAL
// directory alone, so what is read is what the logs kept.
func readBack(w workload, p *plan, c config, d *deployment, dir string, execs []*executor) (*deployment, int, error) {
	acks := mergeAcks(execs)
	if w.durable {
		d.close()
		var err error
		if d, err = deploy(w, p, c.seed, dir, instruments{}); err != nil {
			return nil, 0, fmt.Errorf("workload %s: reopen: %w", w.name, err)
		}
	}
	lost, err := d.lostWrites(p, acks, c.clients)
	if err != nil {
		return d, lost, fmt.Errorf("workload %s: read back: %w", w.name, err)
	}
	return d, lost, nil
}

// runTimed is a --trace 0 run: set-up (repeated), warm-up, one untraced
// closed-loop window, read-back. It reports the end-to-end metrics.
func runTimed(w workload, c config) (*result, error) {
	p := newPlan(w, c.seed, c.keys, c.clients, planTxns)
	var (
		d      *deployment
		dir    string
		setupS []float64
	)
	for i := 0; i < c.setups; i++ {
		if d != nil {
			d.close()
		}
		speed := startSpeedometer()
		t0 := time.Now()
		var err error
		d, dir, err = setUp(w, p, c, "timed", instruments{})
		took := time.Since(t0)
		factor := speedFactor(speed.finish(), 0, math.MaxInt64)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds()/factor)
	}
	defer func() { d.close() }()
	execs := executors(d, p, c.clients, nil)
	if err := warmUp(w, d, execs, c); err != nil {
		return nil, err
	}
	runtime.GC() // start every window from a collected heap, not wherever set-up left it
	win := runClosed(execs, c.window(), slices, true)

	var lost int
	var err error
	if d, lost, err = readBack(w, p, c, d, dir, execs); err != nil {
		return nil, err
	}

	vals := metricSet{}
	vals.set("setup_s", median(setupS))
	rates, costs := win.sliceRatesAndCosts()
	vals.set("txn_per_s", median(rates))
	vals.set("cpu_ms_per_txn", median(costs))
	reads, writes, all := win.latencies(isRead), win.latencies(isWrite), win.latencies(isAny)
	vals.set("read_p50_ms", percentile(win.corrected(isRead), 0.5))
	vals.set("write_p50_ms", percentile(win.corrected(isWrite), 0.5))
	vals.set("txn_p95_ms", percentile(win.corrected(isAny), 0.95))

	fmt.Fprintf(c.log, "workload %s seed %d: %d closed-loop callers, %.0f s window in %d slices, %d keys\n",
		w.name, c.seed, c.clients, c.seconds, slices, c.keys)
	fmt.Fprintf(c.log, "  no message delay is injected: latency is this machine's loopback, scheduler and disk, not a network's\n")
	if w.durable {
		fmt.Fprintf(c.log, "  WAL flush policy: default (fsync on, group commit on)\n")
	}
	fmt.Fprintf(c.log, "  ops_attempted %d  ops_failed %d  fail_share %.5f  committed %d (%d reads, %d writes)  lost_acked_writes %d\n",
		win.attempted, win.failed, float64(win.failed)/float64(max(win.attempted, 1)), len(all), len(reads), len(writes), lost)
	fmt.Fprintf(c.log, "  speed factor %.4f over %d readings: the metrics below are measured / factor (txn_per_s: x factor), slice by slice\n",
		win.factorAll(), len(win.speed))
	fmt.Fprintf(c.log, "  as measured, whole window: %.2f txn/s, read p50 %.4f ms, write p50 %.4f ms, p95 %.4f ms, p99 %.4f ms\n",
		float64(len(all))/win.dur.Seconds(), percentile(reads, 0.5), percentile(writes, 0.5), percentile(all, 0.95), percentile(all, 0.99))
	fmt.Fprintf(c.log, "  per slice, txn/s x factor:%s\n", formatSlices(rates))
	if q, ok := highestPercentile(len(all)); ok {
		fmt.Fprintf(c.log, "  highest percentile with >=10 samples beyond it: p%g = %.4f ms (n=%d)\n", q*100, percentile(all, q), len(all))
	}
	if win.firstErr != nil {
		fmt.Fprintf(c.log, "  first error: %v\n", win.firstErr)
	}

	res := &result{Attempted: win.attempted, Failed: win.failed}
	if err := res.fill(endToEnd, vals); err != nil {
		return nil, err
	}
	res.Correct = lost == 0 && len(reads) > 0 && len(writes) > 0 && failShareOK(win)
	printMetrics(c.log, endToEnd, res)
	return res, nil
}

func formatSlices(vals []float64) string {
	out := ""
	for _, v := range vals {
		out += fmt.Sprintf(" %.1f", v)
	}
	return out
}

// failShareOK holds a window to the failure limit: 1% of attempts, on the
// fault workload as on the others.
func failShareOK(win *window) bool {
	return win.attempted > 0 && float64(win.failed) <= 0.01*float64(win.attempted)
}

func printMetrics(out io.Writer, defs []metricDef, res *result) {
	for _, d := range defs {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}

// counters is a snapshot of every cumulative count the program already
// exports; per-layer metrics are differences of two of them.
type counters struct {
	aborts, restarts, busy, hedges int64
	walAppends, walFlushes         int64
	walFlushSeen                   map[string]int // FlushLatency samples per replica, to window the histogram
	simSent                        int64
	mallocs, allocBytes, gcPauseNs uint64
}

func snapshotCounters(d *deployment) counters {
	st := &d.store.Stats
	c := counters{
		aborts: st.Aborts.Value(), restarts: st.Restarts.Value(),
		busy: st.BusyRetries.Value(), hedges: st.Hedges.Value(),
		walFlushSeen: map[string]int{},
	}
	for _, dm := range d.dms {
		if m := d.store.WALMetrics(dm); m != nil {
			c.walAppends += m.Appends.Value()
			c.walFlushes += m.Flushes.Value()
			c.walFlushSeen[dm] = m.FlushLatency.Count()
		}
	}
	if d.simNet != nil {
		c.simSent = d.simNet.Stats().Sent
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcPauseNs = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	return c
}

// flushLatencies returns the median over replicas of the WAL flush p50 and
// p99 inside the window that began at `before`.
func flushLatencies(d *deployment, before counters) (p50, p99 float64) {
	var p50s, p99s []float64
	for _, dm := range d.dms {
		if m := d.store.WALMetrics(dm); m != nil {
			s := m.FlushLatency.SnapshotAfter(before.walFlushSeen[dm])
			if s.Count > 0 {
				p50s = append(p50s, ms(s.P50))
				p99s = append(p99s, ms(s.P99))
			}
		}
	}
	if len(p50s) == 0 {
		return 0, 0
	}
	return median(p50s), median(p99s)
}

// runTraced is a --trace 1 run. The measured time is split between an
// untraced counter pass (the program's own counters, read as differences
// across it), the open-loop ladder, and the traced pass on a second store
// opened with the decorators; probes and a single-replica baseline run
// first. It reports the per-layer metrics.
func runTraced(w workload, c config) (*result, error) {
	p := newPlan(w, c.seed, c.keys, c.clients, planTxns)
	vals := metricSet{}
	if err := runProbes(vals, p.filler, filepath.Join(c.scratch, "probe-wal"), c.probeBudget); err != nil {
		return nil, err
	}
	if err := baselineN1(w, p, c, vals); err != nil {
		return nil, err
	}
	counted, planPos, err := counterPass(w, p, c, vals)
	if err != nil {
		return nil, err
	}
	traced, err := tracedPass(w, p, c, vals, planPos)
	if err != nil {
		return nil, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		vals.set("process.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	fmt.Fprintf(c.log, "  no message delay is injected; wal.* is zero without a WAL, tcp.* span metrics are zero on the sim\n")
	res := &result{
		Correct:   failShareOK(counted) && vals["durable.lost_acked_writes"] == 0 && vals["checker.violations"] == 0,
		Attempted: counted.attempted + traced.attempted,
		Failed:    counted.failed + traced.failed,
	}
	if err := res.fill(perLayer, vals); err != nil {
		return nil, err
	}
	printMetrics(c.log, perLayer, res)
	return res, nil
}

// counterPass runs the workload as the timed window runs it — same callers,
// bare program — and reads the program's own counters as differences across
// it; then the ladder, a replica restart (durable workloads) and the
// read-back, all on the same store. It returns the closed-loop window and
// how far the first caller got in its plan.
func counterPass(w workload, p *plan, c config, vals metricSet) (*window, int, error) {
	d, dir, err := setUp(w, p, c, "counters", instruments{})
	if err != nil {
		return nil, 0, err
	}
	defer func() { d.close() }()
	execs := executors(d, p, c.clients, nil)
	if err := warmUp(w, d, execs, c); err != nil {
		return nil, 0, err
	}
	before := snapshotCounters(d)
	win := runClosed(execs, c.window()*3/10, 1, false)
	after := snapshotCounters(d)
	n := float64(len(win.samples))
	if n == 0 {
		return nil, 0, fmt.Errorf("workload %s: counter pass committed nothing (first error: %v)", w.name, win.firstErr)
	}
	perK := func(a, b int64) float64 { return 1000 * float64(b-a) / n }
	vals.set("cluster.busy_retries_per_ktxn", perK(before.busy, after.busy))
	vals.set("cluster.restarts_per_ktxn", perK(before.restarts, after.restarts))
	vals.set("cluster.hedges_per_ktxn", perK(before.hedges, after.hedges))
	vals.set("cluster.aborts_per_ktxn", perK(before.aborts, after.aborts))
	vals.set("process.allocs_per_txn", float64(after.mallocs-before.mallocs)/n)
	vals.set("process.alloc_kb_per_txn", float64(after.allocBytes-before.allocBytes)/1024/n)
	vals.set("process.gc_pause_ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6)
	all := win.latencies(isAny)
	vals.set("client.txn_p50_ms", percentile(all, 0.5))
	vals.set("client.txn_p99_ms", percentile(all, 0.99))
	vals.set("client.txn_p999_ms", percentile(all, 0.999))
	vals.set("client.fail_share", float64(win.failed)/float64(win.attempted))
	if d.simNet != nil {
		vals.set("sim.msgs_per_txn", float64(after.simSent-before.simSent)/n)
	}
	if flushes := after.walFlushes - before.walFlushes; flushes > 0 {
		appends := after.walAppends - before.walAppends
		vals.set("wal.appends_per_txn", float64(appends)/n)
		vals.set("wal.fsyncs_per_txn", float64(flushes)/n)
		vals.set("wal.records_per_fsync", float64(appends)/float64(flushes))
		p50, p99 := flushLatencies(d, before)
		vals.set("wal.flush_ms_p50", p50)
		vals.set("wal.flush_ms_p99", p99)
	}

	runLadder(c, execs, vals)

	if w.durable {
		t0 := time.Now()
		stats, err := d.store.RestartDM("dm0")
		if err != nil {
			return nil, 0, fmt.Errorf("workload %s: restart dm0: %w", w.name, err)
		}
		vals.set("cluster.restart_dm_ms", ms(time.Since(t0)))
		vals.set("cluster.replayed_records", float64(stats.Replayed))
	}
	var lost int
	if d, lost, err = readBack(w, p, c, d, dir, execs); err != nil {
		return nil, 0, err
	}
	vals.set("durable.lost_acked_writes", float64(lost))
	return win, execs[0].pos, nil
}

// tracedPass opens a second store with the decorators and the history
// recorder installed, drives it with one caller, and reduces the spans and
// the recorded history to metrics. It returns the recorded stretches as one
// window.
func tracedPass(w workload, p *plan, c config, vals metricSet, planPos int) (*window, error) {
	tr, hist := newTracer(), checker.NewRecorder()
	d, _, err := setUp(w, p, c, "traced", instruments{tracer: tr, history: hist})
	if err != nil {
		return nil, err
	}
	execs := executors(d, p, 1, tr)
	execs[0].pos = planPos // carry on in the plan, not over the counter pass's stretch again
	if err := warmUp(w, d, execs, c); err != nil {
		d.close()
		return nil, err
	}
	// Recording alternates off and on in equal stretches, so the two sides
	// of trace.overhead_share see the same machine; the pause lets detached
	// sweeps of the last transaction finish on the side they started on.
	bare, traced := &window{}, &window{}
	userBytes := 0
	for seg := 0; seg < traceSegments; seg++ {
		on := seg%2 == 1
		tr.on.Store(on)
		wrote := execs[0].wroteBytes
		win := runClosed(execs, c.window()*4/10/traceSegments, 1, false)
		time.Sleep(5 * time.Millisecond)
		into := bare
		if on {
			into = traced
			userBytes += execs[0].wroteBytes - wrote
		}
		into.samples = append(into.samples, win.samples...)
		into.attempted += win.attempted
		into.failed += win.failed
		if into.firstErr == nil {
			into.firstErr = win.firstErr
		}
	}
	d.close() // drains detached sweeps, so their spans end before recording stops
	tr.on.Store(false)

	spans := tr.snapshot()
	sm := analyze(spans, w.network == "tcp")
	if sm.txns == 0 {
		return nil, fmt.Errorf("workload %s: traced pass committed nothing (first error: %v)", w.name, traced.firstErr)
	}
	if sm.frameEncodeFailed > 0 {
		return nil, fmt.Errorf("workload %s: %d observed frames failed to encode", w.name, sm.frameEncodeFailed)
	}
	vals.set("cluster.rpcs_per_txn", sm.rpcsPerTxn)
	vals.set("cluster.notifies_per_txn", sm.notifiesPerTxn)
	vals.set("cluster.coord_self_us_per_txn", sm.coordSelfUsPerTxn)
	vals.set("cluster.dm_handle_us_p50", sm.dmHandleUsP50)
	vals.set("cluster.dm_handle_us_per_txn", sm.dmHandleUsPerTxn)
	vals.set("tcp.rpc_us_p50", sm.rpcUsP50)
	vals.set("tcp.rpc_us_p99", sm.rpcUsP99)
	vals.set("tcp.wire_us_p50", sm.wireUsP50)
	vals.set("tcp.wire_bytes_per_txn", sm.wireBytesPerTxn)
	vals.set("wal.sync_ms_p50", sm.walSyncMsP50)
	vals.set("wal.write_bytes_per_txn", float64(sm.walWriteBytes)/float64(sm.txns))
	vals.set("wal.snapshots", float64(sm.walSnapshots))
	vals.set("wal.snapshot_ms_p50", sm.walSnapshotMsP50)
	if userBytes > 0 {
		vals.set("wal.write_amp", float64(sm.walWriteBytes)/float64(userBytes))
	}
	vals.set("trace.overhead_share", overheadShare(bare, traced))
	vals.set("trace.unmatched_spans", float64(sm.unmatched))
	tracePath := filepath.Join(c.outDir, "trace-"+w.name+".json")
	if err := writeSpans(tracePath, spans); err != nil {
		return nil, err
	}

	history := hist.History()
	vals.set("checker.events", float64(history.Events()))
	violations := 0
	for _, h := range history.Histories() {
		if err := h.Verify(); err != nil {
			violations++
			fmt.Fprintf(c.log, "  checker: %v\n", err)
		}
	}
	if len(history.Txns) > fullHistoryTxns {
		history.Txns = history.Txns[:fullHistoryTxns]
	}
	if err := history.Verify(); err != nil {
		violations++
		fmt.Fprintf(c.log, "  checker: %v\n", err)
	}
	vals.set("checker.violations", float64(violations))
	fmt.Fprintf(c.log, "workload %s seed %d, traced run: counter pass %d callers, traced pass 1 caller, %d spans in %s\n",
		w.name, c.seed, c.clients, len(spans), tracePath)
	return traced, nil
}

// overheadShare is how much slower the recorded stretches ran than the
// unrecorded ones: the mean of the read-txn and write-txn median ratios,
// minus one. The two kinds are compared apart because the median of a
// read/write mix sits on the boundary between two modes and jumps.
func overheadShare(bare, traced *window) float64 {
	var ratios []float64
	for _, keep := range []func(sample) bool{isRead, isWrite} {
		if b, t := percentile(bare.latencies(keep), 0.5), percentile(traced.latencies(keep), 0.5); b > 0 && t > 0 {
			ratios = append(ratios, t/b)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range ratios {
		sum += r
	}
	return sum/float64(len(ratios)) - 1
}

// baselineN1 runs the workload's own transactions against one volatile
// replica on the zero-latency sim: what the same calls cost with no
// replication, no sockets and no log.
func baselineN1(w workload, p *plan, c config, vals metricSet) error {
	w.network, w.replicas, w.durable, w.stopDM = "sim", 1, false, ""
	d, _, err := setUp(w, p, c, "n1", instruments{})
	if err != nil {
		return err
	}
	defer d.close()
	execs := executors(d, p, 1, nil)
	runClosed(execs, c.probeBudget/2, 1, false)
	win := runClosed(execs, 2*c.probeBudget, 1, false)
	if len(win.samples) == 0 {
		return fmt.Errorf("workload %s: single-replica baseline committed nothing: %v", w.name, win.firstErr)
	}
	vals.set("cluster.n1_txn_p50_us", 1000*percentile(win.latencies(isAny), 0.5))
	return nil
}

// runLadder offers the workload at each ladder rate for a tenth of the
// measured time, on the counter pass's store.
func runLadder(c config, execs []*executor, vals metricSet) {
	rng := rand.New(rand.NewSource(c.seed ^ 0x6c61646472)) // "laddr": a stream of its own
	rungDur := c.window() / 10
	var lag []float64
	sloRate := 0.0
	for _, rate := range ladderRates {
		due := poissonSchedule(rng, float64(rate), rungDur)
		giveUp := rungDur * 5 / 4 // a rung the store cannot keep up with is cut short, not waited out
		r := runRung(due, len(execs), giveUp, func(worker, _ int) error {
			e := execs[worker]
			return e.run(context.Background(), e.next())
		})
		lag = append(lag, r.schedLag...)
		p50, p99 := r.p(0.5), r.p(0.99)
		limit := ms(giveUp) // an arrival never served waited about this long
		vals.set(fmt.Sprintf("client.open_p50_ms.r%d", rate), min(p50, limit))
		vals.set(fmt.Sprintf("client.open_p99_ms.r%d", rate), min(p99, limit))
		if p99 <= sloMs {
			sloRate = float64(rate)
		}
	}
	vals.set("client.sched_lag_p99_ms", percentile(sorted(lag), 0.99))
	vals.set("client.slo_rate_per_s", sloRate)
}
