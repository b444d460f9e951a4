// The scenario registry: one list of every bench this package runs.
// cmd/padico-bench prints each scenario's table with one printer and
// writes each owned BENCH_<PR>.json sidecar with one writer;
// determinism_test.go double-runs every entry and checks each sidecar
// against a fresh run.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"padico/internal/grid"
	"padico/internal/telemetry"
)

// Col is one column of a scenario table.
type Col struct {
	Name string // JSON key and text header
	// Prec is the number of decimals a float cell shows in text output
	// (-1: shortest form). JSON and determinism checks always use the
	// exact value.
	Prec int
	// OmitZero leaves zero cells out of the JSON row (omitempty).
	OmitZero bool
}

// Table is a scenario's result: named, ordered columns and one cell
// per column in each row (string, bool, integer, float64, []float64 or
// duration).
type Table struct {
	Cols  []Col
	Rows  [][]any
	Notes []string // derived lines printed under the text table
}

// Artifact is a file a scenario produces beside its table.
type Artifact struct {
	Name string
	Data []byte
	// Volatile artifacts include GC-coupled metrics (the Prometheus
	// exposition shows iovec.pool_misses), so they are not byte-pinned.
	Volatile bool
}

// Result is what one scenario run returns.
type Result struct {
	Table
	Artifacts []Artifact
}

// Sidecar is the BENCH_<PR>.json file a scenario owns.
type Sidecar struct {
	PR    int
	Title string
	Note  string
}

// File is the sidecar's file name.
func (s *Sidecar) File() string { return fmt.Sprintf("BENCH_%d.json", s.PR) }

// Scenario is one registry entry.
type Scenario struct {
	Name    string
	Desc    string   // one line
	Sidecar *Sidecar // nil when the scenario owns none
	Run     func() Result
}

// Command is the invocation that regenerates the scenario.
func (s Scenario) Command() string { return "go run ./cmd/padico-bench -run " + s.Name }

// Scenarios is the registry, in the order -run all executes it.
var Scenarios = []Scenario{
	{Name: "fig3", Desc: "Figure 3: bandwidth (MB/s) vs message size of each middleware in PadicoTM over Myrinet-2000", Run: runFig3},
	{Name: "table1", Desc: "Table 1: one-way latency and peak bandwidth of each API or middleware over Myrinet-2000", Run: runTable1},
	{Name: "overhead", Desc: "§4.1, §5: MadIO header-combining overhead and MPICH inside PadicoTM vs standalone (µs)", Run: runOverhead},
	{Name: "wan", Desc: "§5: VTHD WAN throughput, one TCP stream vs parallel striped streams", Run: runWAN},
	{Name: "vrp", Desc: "§5: VRP vs plain TCP on the lossy trans-continental link", Run: runVRP},
	{Name: "datagrid", Desc: fmt.Sprintf("data grid: %d objects x %dMB striped and replicated across two clusters, %.0f%% WAN loss",
		DataGridObjects, DataGridObjectSize>>20, DataGridWANLoss*100), Run: runDataGrid},
	{Name: "group", Desc: fmt.Sprintf("group: flat vs hierarchical fan-out, replica factor 3, %d objects x %dMB, two clusters, %.0f%% WAN loss",
		DataGridObjects, DataGridObjectSize>>20, DataGridWANLoss*100), Run: runGroup},
	{Name: "weather", Desc: fmt.Sprintf("network weather: adaptive vs static selection on DegradingWAN (site0-site1 core /%d at t=%v)",
		grid.DegradeFactor, grid.DegradeAt), Run: runWeather, Sidecar: &Sidecar{
		PR:    5,
		Title: "internal/weather: grid network monitoring + forecasting, dynamic fabric conditions, adaptive re-selection across the stack",
		Note: "WeatherBench runs the same workload twice on grid.DegradingWAN (3 sites x 2 nodes, the site0-site1 WAN core " +
			"collapses to 1/16 rate at t=6s virtual): ingest 4x4MB before the degrade, a 6MB bulk stream across it, 8 GETs " +
			"after it. The static row selects from the topology knowledge base only; the adaptive row adds weather.Service " +
			"monitoring (RTT pings + bandwidth micro-transfers + passive taps), oracle-aware selector decisions with " +
			"hysteresis, WithAdaptive session re-selection with the sequence-numbered resume handshake, and forecast-ranked " +
			"GET sources. All virtual-time figures are bit-identical across reruns (determinism_test.go " +
			"TestDeterminism/weather pins both rows against a double run).",
	}},
	{Name: "store", Desc: fmt.Sprintf("store engines: memory vs durable pack, %d objects x %dMB, replicas 2, with the corrupt-and-repair drill",
		StoreObjects, StoreObjectSize>>20), Run: runStore, Sidecar: &Sidecar{
		PR:    7,
		Title: "internal/store: durable pack-engine object store under datagrid, with background auditor and anti-entropy repair",
		Note: "The identical datagrid workload (8x1MB objects, replica factor 2, striped x4, lossy two-cluster WAN) " +
			"on both storage backends. The pack engine appends needles into bundle files with simulated disk " +
			"charges (seek, per-byte platter rates, batched fsync), so its ingest trails the zero-cost memory map. " +
			"The drill corrupts two needles on disk, one audit pass quarantines both, one repair pass restores " +
			"the replication factor over the normal transfer path, and no object is lost. Deterministic: " +
			"bit-identical across reruns, pinned by TestDeterminism/store.",
	}},
	{Name: "metrics", Desc: "telemetry registry snapshot of the observed degrading-WAN workload (volatile metrics left out)",
		Run: runMetrics, Sidecar: &Sidecar{
			PR:    6,
			Title: "internal/telemetry: virtual-time tracing, unified metrics registry, and a flight recorder across the whole stack",
			Note: "Registry snapshot after one fully observed DegradingWAN run (bench.TraceRun): " +
				"weather monitoring on, adaptive striped data grid with hierarchical fan-out, one explicit " +
				"multicast+barrier round, a 4MB adaptive stream across the degrade instant, and a 3% loss " +
				"burst on the degraded core between t=2s and t=4s virtual. Counters and gauges are every metric " +
				"the layers register in the shared registry (bound Stats structs, counter and gauge funcs); " +
				"histograms are virtual-time latency ladders (p50/p99 are bucket upper bounds on a 1-2-5 ladder). " +
				"Volatile metrics (GC-coupled iovec pool misses) are left out, as the series sampler leaves them out. " +
				"Deterministic: every figure is bit-identical across reruns, pinned by TestDeterminism/metrics.",
		}},
	{Name: "trace", Desc: "span tracing of the observed degrading-WAN workload: spans per layer, Chrome trace artifact trace.json", Run: runTrace},
	{Name: "critpath", Desc: "critical-path attribution of the observed degrading-WAN workload's 5 slowest requests", Run: runCritPath},
	{Name: "slo", Desc: "burn-rate SLO alerts across the DegradingWAN degrade and a site partition", Run: runSLO, Sidecar: &Sidecar{
		PR:    8,
		Title: "end-to-end causal tracing: propagated trace context, critical-path analysis, and virtual-time SLO monitoring",
		Note: "Multi-window burn-rate SLO monitoring (windows 2s/8s virtual, alert at burn >= 2 on every window) over " +
			"one DegradingWAN ingest run: 4x1MB puts while healthy, 4 more after the site0-site1 core collapses to " +
			"1/16 rate at t=6s, a quiet tail, then a full site1 partition held for 6s and healed. The " +
			"transfer-latency objective breaches while the degraded-era transfers burn the 500ms budget and clears " +
			"when the short window cools; the recovery-availability objective breaches while the partition starves " +
			"the repair loop of fresh sources and clears after the heal; repair and probe-availability objectives " +
			"hold throughout. Deterministic: bit-identical across reruns, pinned by TestDeterminism/slo.",
	}},
	{Name: "partition", Desc: "failure scenarios: node crash, site blackout and WAN partition with self-healing recovery", Run: runPartition, Sidecar: &Sidecar{
		PR:    9,
		Title: "failure scenarios end-to-end: node crashes, site blackouts, WAN partitions, and self-healing rebalance",
		Note: "Three failure modes injected into a replicated working set (8x1MB, replica factor 2). " +
			"node-crash and site-blackout kill the primary holder (alone, then with its whole site) on the " +
			"three-site lossy testbed: a 500ms-sweep failure detector shrinks the consistent-hash ring, and " +
			"the repair loop re-replicates every object that lost a copy from weather-ranked surviving " +
			"sources. wan-partition cuts the primary WAN core on the dual-homed testbed: the weather " +
			"forecast marks the wire down, placement re-selection moves reads onto the backup core, and the " +
			"moved MB column counts bytes the backup carried. detect is fault-to-first-detection, recover is " +
			"fault-to-reconvergence (every object verified at full replication, or a clean read round on the " +
			"rerouted wire). Zero objects lost in every scenario. Deterministic: bit-identical across " +
			"reruns, pinned by TestDeterminism/partition.",
	}},
	{Name: "series", Desc: "sampled degrade→partition→heal workload: track summary; series.json, dash.html and metrics.prom artifacts",
		Run: runSeries, Sidecar: &Sidecar{
			PR:    10,
			Title: "time-series telemetry: deterministic metric sampler, utilization and backpressure gauges, exposition and self-contained dashboard",
			Note: "A virtual-time sampler (250ms cadence) scrapes every registry metric of one degrade→partition→heal " +
				"run into bounded per-metric series: counter deltas as rates, gauges as levels, histograms as windowed " +
				"rate/p50/p99 tracks. New utilization and backpressure instrumentation feeds it: per-WAN-core-hop " +
				"busy-fraction and queued-bytes, iovec pool occupancy, session channel backlogs, datagrid scheduler " +
				"depth and in-flight transfers, and store fsync backlog. This table summarizes each track (points, " +
				"peak, final value); the full point data is the series.json artifact (padico-bench -out DIR), " +
				"rendered by dash.html. Deterministic: the series JSON is bit-identical across reruns, pinned by " +
				"TestDeterminism/series (GC-coupled pool-miss counts are marked volatile and excluded).",
		}},
}

// Select resolves a -run value: "all", or comma-separated names in the
// order given.
func Select(names string) ([]Scenario, error) {
	if names == "all" {
		return Scenarios, nil
	}
	var out []Scenario
	for _, name := range strings.Split(names, ",") {
		i := slices.IndexFunc(Scenarios, func(s Scenario) bool { return s.Name == name })
		if i < 0 {
			valid := make([]string, len(Scenarios))
			for i, s := range Scenarios {
				valid[i] = s.Name
			}
			return nil, fmt.Errorf("unknown scenario %q (valid: all, %s)", name, strings.Join(valid, ", "))
		}
		out = append(out, Scenarios[i])
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Rendering.

// text renders a cell at the column's precision.
func (c Col) text(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'f', c.Prec, 64)
	case []float64:
		parts := make([]string, len(x))
		for i, f := range x {
			parts[i] = strconv.FormatFloat(f, 'f', c.Prec, 64)
		}
		return strings.Join(parts, "/")
	}
	return fmt.Sprint(v)
}

// WriteText prints the table aligned (strings left, everything else
// right; OmitZero cells blank when zero), then its notes.
func (t Table) WriteText(w io.Writer) {
	width := make([]int, len(t.Cols))
	left := make([]bool, len(t.Cols))
	cells := make([][]string, len(t.Rows))
	for j, c := range t.Cols {
		width[j] = len(c.Name)
		if len(t.Rows) > 0 {
			_, left[j] = t.Rows[0][j].(string)
		}
	}
	for i, row := range t.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			if !t.Cols[j].OmitZero || !reflect.ValueOf(v).IsZero() {
				cells[i][j] = t.Cols[j].text(v)
			}
			width[j] = max(width[j], len(cells[i][j]))
		}
	}
	line := func(cell func(j int) string) {
		var b strings.Builder
		for j := range t.Cols {
			if j > 0 {
				b.WriteString("  ")
			}
			if left[j] {
				fmt.Fprintf(&b, "%-*s", width[j], cell(j))
			} else {
				fmt.Fprintf(&b, "%*s", width[j], cell(j))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(func(j int) string { return t.Cols[j].Name })
	for _, row := range cells {
		line(func(j int) string { return row[j] })
	}
	for _, n := range t.Notes {
		fmt.Fprintln(w, n)
	}
}

// jsonRow marshals one table row as an object with the columns' keys
// in column order.
type jsonRow struct {
	cols  []Col
	cells []any
}

func (r jsonRow) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for j, c := range r.cols {
		if c.OmitZero && reflect.ValueOf(r.cells[j]).IsZero() {
			continue
		}
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(c.Name)
		v, err := json.Marshal(r.cells[j])
		if err != nil {
			return nil, err
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// SidecarJSON renders the scenario's sidecar for table t: the
// {pr,title,command,note,table} document every BENCH_<PR>.json holds.
func SidecarJSON(s Scenario, t Table) ([]byte, error) {
	rows := make([]jsonRow, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = jsonRow{cols: t.Cols, cells: r}
	}
	doc := struct {
		PR      int       `json:"pr"`
		Title   string    `json:"title"`
		Command string    `json:"command"`
		Note    string    `json:"note"`
		Table   []jsonRow `json:"table"`
	}{s.Sidecar.PR, s.Sidecar.Title, s.Command(), s.Sidecar.Note, rows}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}

// ---------------------------------------------------------------------
// Run functions: each runs its workload and shapes the table.

func cols(names ...string) []Col {
	out := make([]Col, len(names))
	for i, n := range names {
		out[i] = Col{Name: n}
	}
	return out
}

// structTable tabulates result structs: one column per field, named
// after it, with the text precision of its `prec` tag.
func structTable[T any](rows ...T) Table {
	var t Table
	rt := reflect.TypeFor[T]()
	for i := range rt.NumField() {
		p, _ := strconv.Atoi(rt.Field(i).Tag.Get("prec"))
		t.Cols = append(t.Cols, Col{Name: rt.Field(i).Name, Prec: p})
	}
	for _, r := range rows {
		v := reflect.ValueOf(r)
		row := make([]any, v.NumField())
		for i := range row {
			row[i] = v.Field(i).Interface()
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func sizeLabel(sz int) string {
	switch {
	case sz >= 1<<20:
		return fmt.Sprintf("%dMB", sz>>20)
	case sz >= 1<<10:
		return fmt.Sprintf("%dKB", sz>>10)
	default:
		return fmt.Sprintf("%dB", sz)
	}
}

func runFig3() Result {
	t := Table{Cols: cols("middleware")}
	for _, sz := range Fig3Sizes {
		t.Cols = append(t.Cols, Col{Name: sizeLabel(sz), Prec: 1})
	}
	for _, s := range Fig3() {
		row := []any{s.Name}
		for _, pt := range s.Points {
			row = append(row, pt.MBps)
		}
		t.Rows = append(t.Rows, row)
	}
	return Result{Table: t}
}

func runTable1() Result { return Result{Table: structTable(Table1()...)} }

func runOverhead() Result {
	t := structTable(Overhead())
	t.Notes = []string{"paper: MadIO over plain Madeleine < 0.1 us; MPICH inside PadicoTM roughly the same as standalone"}
	return Result{Table: t}
}

func runWAN() Result {
	t := structTable(WAN())
	t.Notes = []string{"paper: ~9 MB/s single stream, 12 MB/s striped (access-link cap)"}
	return Result{Table: t}
}

func runVRP() Result {
	v := VRPBench()
	t := structTable(v)
	t.Notes = []string{fmt.Sprintf("speedup: %.1fx (paper: 150 KB/s plain sockets, ~500 KB/s VRP, i.e. 3x)", v.VRPKBps/v.TCPKBps)}
	return Result{Table: t}
}

func runDataGrid() Result { return Result{Table: structTable(DataGridBench()...)} }

func runGroup() Result {
	rows := GroupBench()
	t := structTable(rows...)
	flat, hier := rows[0], rows[1]
	t.Notes = []string{fmt.Sprintf("hierarchical fan-out: %.1fx WAN bytes, %.1f%% lower makespan",
		hier.WANMB/flat.WANMB, 100*(1-hier.ConvergeS/flat.ConvergeS))}
	return Result{Table: t}
}

func runWeather() Result {
	rows := WeatherBench()
	t := structTable(rows...)
	st, ad := rows[0], rows[1]
	t.Notes = []string{fmt.Sprintf("adaptive: %.1fx lower makespan, %.1fx faster stream, %.1fx fewer bytes over the degraded link",
		st.MakespanS/ad.MakespanS, st.StreamS/ad.StreamS, st.DegradedLinkMB/ad.DegradedLinkMB)}
	return Result{Table: t}
}

func runStore() Result { return Result{Table: structTable(StoreBench()...)} }

func runMetrics() Result {
	reg := TraceRun().Registry()
	t := Table{Cols: cols("name", "kind", "value", "count", "p50_us", "p99_us", "sum_us")}
	for i := 2; i < len(t.Cols); i++ {
		t.Cols[i].OmitZero = true
	}
	for _, m := range reg.Snapshot() {
		if reg.Volatile(m.Name) {
			continue
		}
		kind := "counter"
		switch m.Kind {
		case telemetry.KindGauge:
			kind = "gauge"
		case telemetry.KindHistogram:
			kind = "histogram"
		}
		t.Rows = append(t.Rows, []any{m.Name, kind, m.Value, m.Count,
			m.P50.Microseconds(), m.P99.Microseconds(), m.Sum.Microseconds()})
	}
	return Result{Table: t}
}

func runTrace() Result {
	h := TraceRun()
	spans := h.Spans()
	count := make(map[string][2]int) // layer -> spans, instants
	for _, sp := range spans {
		c := count[sp.Cat]
		if sp.Instant {
			c[1]++
		} else {
			c[0]++
		}
		count[sp.Cat] = c
	}
	t := Table{Cols: cols("layer", "spans", "instants"),
		Notes: []string{fmt.Sprintf("%d trace events (open trace.json in Perfetto or chrome://tracing)", len(spans))}}
	for _, l := range slices.Sorted(maps.Keys(count)) {
		t.Rows = append(t.Rows, []any{l, count[l][0], count[l][1]})
	}
	return Result{Table: t, Artifacts: []Artifact{{Name: "trace.json", Data: h.TraceJSON()}}}
}

func runCritPath() Result {
	paths := TraceRun().CriticalPaths()
	if len(paths) > 5 {
		paths = paths[:5]
	}
	t := Table{Cols: cols("request", "root_span", "root_node", "start", "makespan",
		"layer", "span", "node", "segs", "time", "share_pct")}
	for _, cp := range paths {
		for _, r := range cp.Rows {
			t.Rows = append(t.Rows, []any{cp.RootCat + "/" + cp.RootName, cp.RootID, cp.RootTid,
				cp.Start, cp.Makespan, r.Cat, r.Name, r.Tid, r.Count, r.Total,
				int64(r.Total) * 100 / max(int64(cp.Makespan), 1)})
		}
	}
	return Result{Table: t}
}

func runSLO() Result {
	t := Table{Cols: cols("name", "breaches", "clears", "breached", "burns")}
	t.Cols[4].Prec = 2
	for _, s := range SLOBench().Status() {
		t.Rows = append(t.Rows, []any{s.Name, s.Breaches, s.Clears, s.Breached, s.Burns})
	}
	return Result{Table: t}
}

func runPartition() Result { return Result{Table: structTable(PartitionBench()...)} }

func runSeries() Result {
	out := SeriesRun()
	set := out.Sampler.Series()
	t := Table{
		Cols:  cols("name", "kind", "unit", "points", "peak", "last"),
		Notes: []string{fmt.Sprintf("%d tracks, %d scrapes", set.Len(), out.Sampler.Scrapes())},
	}
	t.Cols[2].OmitZero = true
	t.Cols[4].Prec, t.Cols[5].Prec = -1, -1
	for _, tr := range set.Tracks() {
		_, hi := tr.MinMax()
		t.Rows = append(t.Rows, []any{tr.Name, tr.Kind, tr.Unit, len(tr.Points()), hi, tr.Last()})
	}
	var dash, prom bytes.Buffer
	set.WriteDash(&dash, SeriesDashOptions(out)) // (*bytes.Buffer).Write cannot fail
	out.Hub.WriteProm(&prom)
	return Result{Table: t, Artifacts: []Artifact{
		{Name: "series.json", Data: set.JSON()},
		{Name: "dash.html", Data: dash.Bytes()},
		{Name: "metrics.prom", Data: prom.Bytes(), Volatile: true},
	}}
}
