package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"padico/internal/telemetry"
)

// perRound is the median over rounds of f: host metrics are taken per
// round and their median reported, so a burst of noise from the machine
// moves a few rounds, not the result. Rounds whose simulation stopped
// in set-up have no timed phase and are left out.
func perRound(rounds []roundOutcome, f func(r roundOutcome) float64) float64 {
	var xs []float64
	for _, r := range rounds {
		if r.timed() {
			xs = append(xs, f(r))
		}
	}
	return median(xs)
}

// pooled is the virtual outcome of a run's first cycle: every
// instance's ops pooled.
type pooled struct {
	attempted, failed int
	good              int64
	lat               []float64
}

func pool(first []roundOutcome) pooled {
	var p pooled
	for _, r := range first {
		p.attempted += r.attempted
		p.failed += r.failed
		p.good += r.good
		p.lat = append(p.lat, r.lat...)
	}
	sort.Float64s(p.lat)
	return p
}

// endToEnd derives the end-to-end metrics of a run of k instances.
// Host metrics are medians over rounds. Latencies pool every op of the
// first cycle. Goodput is the median over that cycle's instances: an
// instance whose replication stalls on a transfer timeout (two minutes
// of virtual time) would otherwise halve a whole run's figure.
func endToEnd(w *workload, rounds []roundOutcome) map[string]metric {
	k := w.params.instances
	p := pool(rounds[:k])
	tailV, _ := tail(p.lat, w.params.tailPct)
	goodput := perRound(rounds[:k], func(r roundOutcome) float64 { return float64(r.good) / 1e6 / r.vgood.Seconds() })
	return map[string]metric{
		"ops_per_s":          {perRound(rounds, func(r roundOutcome) float64 { return float64(r.attempted) / r.wall.Seconds() }), "1/s"},
		"host_cpu_ms_per_op": {perRound(rounds, func(r roundOutcome) float64 { return r.cpu.Seconds() * 1e3 / float64(r.attempted) }), "ms"},
		"alloc_mb_per_op":    {perRound(rounds, func(r roundOutcome) float64 { return float64(r.alloc) / 1e6 / float64(r.attempted) }), "MB"},
		"max_rss_mb":         {maxRSSBytes() / 1e6, "MB"},
		"setup_s":            {perRound(rounds, func(r roundOutcome) float64 { return r.setup.Seconds() }), "s"},
		"v_latency_p50_us":   {quantile(p.lat, 0.5), "us"},
		"v_latency_tail_us":  {tailV, "us"},
		"v_goodput_mbps":     {goodput, "MB/s"},
		"op_ok_ratio":        {1 - float64(p.failed)/float64(p.attempted), "ratio"},
	}
}

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(w *workload, seed uint64, budget time.Duration) (result, error) {
	rounds, _, err := playRounds(w, seed, false, budget)
	k := w.params.instances
	res, err := checked(rounds, k, err)
	if err != nil {
		return res, err
	}
	res.Metrics = endToEnd(w, rounds)
	printEndToEnd(w, rounds, res.Metrics)
	return res, nil
}

// checked turns the rounds of a run into a result header. A run whose
// rounds diverged in virtual time is reported as incorrect; any other
// error aborts the run.
func checked(rounds []roundOutcome, k int, err error) (result, error) {
	if err != nil && !errors.Is(err, errDiverged) {
		return result{}, err
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
	}
	p := pool(rounds[:min(k, len(rounds))])
	return result{Correct: err == nil, Attempted: p.attempted, Failed: p.failed}, nil
}

// printEndToEnd prints the human-readable table: every end-to-end
// metric by name with its unit, the failure ratio with its counts, and
// the tail's percentile and sample count.
func printEndToEnd(w *workload, rounds []roundOutcome, m map[string]metric) {
	k := w.params.instances
	p := pool(rounds[:k])
	_, pct := tail(p.lat, w.params.tailPct)
	note("workload %s: %d rounds over %d instances, %d ops per cycle (closed loop, 2 clients)", w.name, len(rounds), k, p.attempted)
	for _, key := range sortedKeys(m) {
		note("  %-20s %14.6g %s", key, m[key].Value, m[key].Unit)
	}
	note("  %-20s %14.6g (%d failed of %d attempted)", "op_fail_ratio", float64(p.failed)/float64(p.attempted), p.failed, p.attempted)
	note("  v_latency_tail_us is p%g over %d ops (failed ones with the time they took)", pct, len(p.lat))
	reasons := map[string]int{}
	var slow []span
	for _, r := range rounds[:k] {
		for _, s := range r.spans {
			if s.top && !s.ok {
				reasons[s.name+": "+failClass(s.failWhat)]++
			}
			slow = append(slow, s)
		}
	}
	for _, key := range sortedKeys(reasons) {
		note("  failed %dx %s", reasons[key], key)
	}
	for _, r := range rounds[:k] {
		switch {
		case r.aborted != nil && !r.timed():
			note("  instance %d aborted in set-up, its %d ops counted failed: %v", r.inst, r.attempted, r.aborted)
		case r.aborted != nil:
			note("  instance %d aborted: %v", r.inst, r.aborted)
		}
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].v1.Sub(slow[i].v0) > slow[j].v1.Sub(slow[j].v0) })
	for _, s := range slow[:min(3, len(slow))] {
		note("  slowest: %s (op %d, client %d) took %v of virtual time", s.name, s.op, s.client, s.v1.Sub(s.v0))
	}
}

// failClass strips object names and node ids from an error message,
// so failures group by cause.
func failClass(msg string) string {
	f := strings.Fields(msg)
	for i, w := range f {
		if strings.ContainsAny(w, "0123456789") {
			f[i] = "#"
		}
	}
	return strings.Join(f, " ")
}

// traceModules are the repository's modules whose host CPU share the
// traced run reports; "other" holds the remaining padico modules and
// "gridbench" this benchmark's own code (input checks).
var traceModules = []string{
	"vtime", "netsim", "drivers", "madeleine", "netaccess", "circuit", "vlink",
	"ipstack", "session", "personality", "mpi", "orb", "group", "datagrid",
	"store", "weather", "faults", "telemetry", "iovec", "runtime", "other", "gridbench",
}

// spanNames are the benchmark spans whose timings the traced run
// reports.
var spanNames = []string{
	"mpi.pingpong", "orb.invoke", "datagrid.put", "datagrid.get",
	"datagrid.delete", "datagrid.wait_settled",
}

// critLayers are the span categories the critical-path shares are
// reported for.
var critLayers = []string{"datagrid", "group", "session", "ipstack", "store", "weather", "netsim"}

// runTraced plays the first half of the run's instances, each round
// once untraced and once traced, and reports the per-layer metrics,
// writing the trace artifacts under dir. Pairing the rounds keeps drift
// in the machine's speed out of the tracing overhead.
func runTraced(w *workload, seed uint64, budget time.Duration, dir string) (result, error) {
	half := *w
	half.params.instances = max(1, w.params.instances/2)
	w = &half
	k := w.params.instances
	plain, traced, err := playRounds(w, seed, true, budget)
	res, err := checked(plain, k, err)
	if err != nil {
		return res, err
	}
	m, fold, err := perLayer(plain, traced, k)
	if err != nil {
		return res, err
	}
	res.Metrics = m
	if err := writeArtifacts(dir, traced[0], m, fold); err != nil {
		return res, err
	}
	note("workload %s: per-layer metrics (%d untraced and %d traced rounds over %d instances), artifacts in %s", w.name, len(plain), len(traced), k, dir)
	for _, key := range sortedKeys(m) {
		note("  %-40s %14.6g %s", key, m[key].Value, m[key].Unit)
	}
	return res, nil
}

// perLayer computes the per-layer metrics. Counts come from the timed
// phases of the first traced cycle (one round per instance); host CPU
// shares and host time per call are summed over every traced round;
// kernel counters, GC and host time per event come from the untraced
// rounds, which tracing does not perturb.
func perLayer(plain, traced []roundOutcome, k int) (map[string]metric, map[string]int64, error) {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Host CPU per module, folded from the CPU profiles.
	fold := map[string]int64{}
	for _, r := range traced {
		if err := foldProfile(r.profile.Bytes(), fold); err != nil {
			return nil, nil, err
		}
	}
	var total int64
	for _, v := range fold {
		total += v
	}
	share := map[string]float64{}
	for mod, v := range fold {
		if !slices.Contains(traceModules, mod) {
			mod = "other"
		}
		share[mod] += ratio(float64(v), float64(total))
	}
	for _, mod := range traceModules {
		set(mod+".host_cpu_share", share[mod], "ratio")
	}

	// Untraced: kernel counters, host time per event, GC, iovec.
	first := plain[:k]
	pp := pool(first)
	ops := float64(pp.attempted)
	sum := func(rs []roundOutcome, key string) float64 {
		var s float64
		for _, r := range rs {
			s += r.delta[key]
		}
		return s
	}
	set("vtime.events_per_op", sum(first, "vtime.events")/ops, "count")
	set("vtime.proc_switches_per_op", sum(first, "vtime.proc_switches")/ops, "count")
	set("vtime.host_ns_per_event", perRound(plain, func(r roundOutcome) float64 { return float64(r.wall.Nanoseconds()) / r.delta["vtime.events"] }), "ns")
	set("runtime.gc_cycles_per_op", perRound(plain, func(r roundOutcome) float64 { return float64(r.gcs) / float64(r.attempted) }), "count")
	set("iovec.pool_gets_per_op", sum(first, "iovec.pool_gets")/ops, "count")
	set("iovec.unpooled_per_op", sum(first, "iovec.unpooled")/ops, "count")
	set("iovec.outstanding_end", perRound(first, func(r roundOutcome) float64 { return r.delta["iovec.outstanding"] }), "count")

	// Benchmark spans, failed calls included: virtual p50/tail pooled
	// over the first traced cycle, host time per call over every traced
	// round.
	tfirst := traced[:k]
	for _, name := range spanNames {
		var lat []float64
		for _, r := range tfirst {
			for _, s := range r.spans {
				if s.name == name {
					lat = append(lat, latencyUS(s))
				}
			}
		}
		var host time.Duration
		calls := 0
		for _, r := range traced {
			for _, s := range r.spans {
				if s.name == name {
					host += s.h1.Sub(s.h0)
					calls++
				}
			}
		}
		sort.Float64s(lat)
		tailV, _ := tail(lat, 99.9)
		set(name+".v_p50_us", quantile(lat, 0.5), "us")
		set(name+".v_tail_us", tailV, "us")
		set(name+".host_us_per_call", ratio(float64(host.Nanoseconds())/1e3, float64(calls)), "us")
	}

	// Traced counts, pooled over the first traced cycle.
	tp := pool(tfirst)
	tops := float64(tp.attempted)
	d := map[string]float64{}
	var crit, end, extra = map[string][]float64{}, map[string][]float64{}, map[string]float64{}
	var busy float64
	for _, r := range tfirst {
		for key, v := range r.delta {
			d[key] += v
			if strings.HasPrefix(key, "netsim.busy.") {
				busy = max(busy, ratio(v, float64(r.vspan)))
			}
		}
		for _, l := range critLayers {
			crit[l] = append(crit[l], r.crit[l])
		}
		for key, v := range r.end {
			end[key] = append(end[key], v)
		}
		for key, v := range r.extra {
			extra[key] += v
		}
	}
	for _, l := range critLayers {
		set(l+".v_critpath_share", median(crit[l]), "ratio")
	}
	p99 := func(key string) float64 { return median(end[key]) }

	set("netsim.core_wire_mb_per_op", d["netsim.core_bytes"]/1e6/tops, "MB")
	set("netsim.core_busy_frac", busy, "ratio")
	set("netsim.core_drops", d["netsim.core_drops"], "count")

	set("ipstack.tcp_segs_per_op", d["ipstack.tcp_segs_sent"]/tops, "count")
	set("ipstack.retransmit_ratio", ratio(d["ipstack.tcp_retransmits"], d["ipstack.tcp_segs_sent"]), "ratio")
	set("ipstack.rtt.p99", p99("ipstack.rtt.p99"), "us")

	set("session.opens_per_op", d["session.opens"]/tops, "count")
	set("session.circuit_reuse_ratio", ratio(d["session.circuit_reuses"], d["session.circuit_opens"]), "ratio")
	set("session.open_latency.p99", p99("session.open_latency.p99"), "us")
	set("session.reselects", d["session.reselects"], "count")
	set("session.resumes", d["session.resumes"], "count")

	set("group.multicasts_per_op", d["group.multicasts"]/tops, "count")
	set("group.edge_reuse_ratio", ratio(d["group.edge_reuses"], d["group.edge_reuses"]+d["group.edges_opened"]), "ratio")
	set("group.op_latency.p99", p99("group.op_latency.p99"), "us")

	set("datagrid.retry_ratio", ratio(d["datagrid.retries"], d["datagrid.jobs"]), "ratio")
	set("datagrid.bytes_moved_per_useful_byte", ratio(d["datagrid.bytes_moved"], float64(tp.good)), "ratio")
	set("datagrid.wan_bytes_per_op", d["datagrid.wan_bytes"]/tops, "bytes")
	set("datagrid.transfer_latency.p99", p99("datagrid.transfer_latency.p99"), "us")
	set("datagrid.source_switches", d["datagrid.source_switches"], "count")
	set("datagrid.repairs", d["datagrid.repairs"], "count")
	set("datagrid.lost_objects", d["datagrid.lost_objects"], "count")

	set("store.reads_per_op", d["store.reads"]/tops, "count")
	set("store.fsyncs", d["store.fsyncs"], "count")
	set("store.bundle_mb", median(end["store.bundle_bytes"])/1e6, "MB")
	set("store.tombstones", d["store.tombstones"], "count")
	set("store.cold_loads", d["store.cold_loads"], "count")

	set("weather.probes", d["weather.pings"]+d["weather.bandwidth_probes"], "count")
	set("weather.publishes", d["weather.publishes"], "count")
	set("faults.detect_ms", ratio(extra["faults.detect_ms"], extra["faults.detections"]), "ms")
	set("telemetry.sampler_scrapes", extra["telemetry.sampler_scrapes"], "count")
	set("telemetry.slo_breaches", extra["telemetry.slo_breaches"], "count")

	wallPerOp := func(r roundOutcome) float64 { return r.wall.Seconds() / float64(r.attempted) }
	set("trace.overhead_ratio", ratio(perRound(traced, wallPerOp), perRound(plain, wallPerOp)), "ratio")
	return m, fold, nil
}

// critShares aggregates the tracer's critical paths by layer: each
// layer's share of the summed makespan of every request in the round.
// It is empty without a tracing hub.
func critShares(h *telemetry.Hub) map[string]float64 {
	crit := map[string]float64{}
	if !h.Tracing() {
		return crit
	}
	var makespan float64
	for _, cp := range h.CriticalPaths() {
		makespan += float64(cp.Makespan)
		for _, row := range cp.Rows {
			crit[row.Cat] += float64(row.Total)
		}
	}
	for l := range crit {
		crit[l] /= makespan
	}
	return crit
}

// writeArtifacts writes the traced run's files: the benchmark spans as
// a Chrome trace, the per-module CPU fold, and the per-layer table.
func writeArtifacts(dir string, r roundOutcome, m map[string]metric, fold map[string]int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), chromeTrace(r.spans)); err != nil {
		return err
	}
	var b strings.Builder
	for _, k := range sortedKeys(fold) {
		fmt.Fprintf(&b, "%s %d\n", k, fold[k])
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu_fold.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	b.Reset()
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(&b, "%-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(b.String()), 0o644)
}

// chromeTrace renders spans in the Chrome trace-event format: one
// complete event per span on the virtual clock (ts/dur in µs), with
// the op id, parent and both clocks' start and end in args.
func chromeTrace(spans []span) map[string]any {
	var t0 time.Time
	if len(spans) > 0 {
		t0 = spans[0].h0
		for _, s := range spans {
			if s.h0.Before(t0) {
				t0 = s.h0
			}
		}
	}
	events := make([]map[string]any, 0, len(spans))
	for _, s := range spans {
		events = append(events, map[string]any{
			"name": s.name, "cat": "gridbench", "ph": "X", "pid": 1, "tid": s.client + 1,
			"ts":  float64(s.v0) / 1e3,
			"dur": float64(s.v1.Sub(s.v0)) / 1e3,
			"args": map[string]any{
				"op": s.op, "parent": s.parent, "ok": s.ok || !s.top,
				"v_start_ns": int64(s.v0), "v_end_ns": int64(s.v1),
				"host_start_ns": s.h0.Sub(t0).Nanoseconds(), "host_end_ns": s.h1.Sub(t0).Nanoseconds(),
			},
		})
	}
	return map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
