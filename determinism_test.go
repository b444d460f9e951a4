// Determinism regression gate: every scenario of the bench registry
// must stay bit-identical — virtual times, byte counts and job splits
// alike. TestDeterminism runs each scenario twice and requires
// byte-identical tables (every cell in its exact %v form) and
// artifacts, checks the pinned seed rows below, checks every committed
// BENCH_<PR>.json sidecar against a fresh run, and applies the
// scenario's behavioural checks.
//
// The datagrid/group/wan rows were captured on the pre-iovec tree
// (seed of PR 4) and run with weather *disabled*: the monitoring
// subsystem (PR 5) must be invisible until a testbed enables it, so
// any drift here means a weather-era change leaked events into static
// runs. Newer tables are pinned by the double run and their sidecar —
// the "no wall-clock reads, no unseeded randomness in probes or
// schedules" contract.
//
// CI runs `go test -run Determinism -count=2 .` so the whole gate is
// exercised twice per push.
package padico

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"padico/internal/bench"
	"padico/internal/datagrid"
	"padico/internal/grid"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// pinned holds the seed rows of the tables captured before the
// weather era, in exactRows form.
var pinned = map[string][]string{
	"datagrid": {
		"Streams=1 Replicas=2 Hierarchical=false IngestMBps=227.7276362042672 ConvergeS=3.355014446 WANMB=16.778024 CircuitJobs=2 VLinkJobs=4 GroupJobs=0",
		"Streams=4 Replicas=2 Hierarchical=false IngestMBps=227.7276362042672 ConvergeS=1.669431838 WANMB=16.778024 CircuitJobs=2 VLinkJobs=4 GroupJobs=0",
		"Streams=4 Replicas=3 Hierarchical=false IngestMBps=227.7276362042672 ConvergeS=4.478756114 WANMB=33.556048 CircuitJobs=2 VLinkJobs=8 GroupJobs=0",
	},
	"group": {
		"Streams=4 Replicas=3 Hierarchical=false IngestMBps=227.7276362042672 ConvergeS=4.478756114 WANMB=33.556048 CircuitJobs=2 VLinkJobs=8 GroupJobs=0",
		"Streams=4 Replicas=3 Hierarchical=true IngestMBps=227.7276362042672 ConvergeS=4.09418192 WANMB=16.777432 CircuitJobs=2 VLinkJobs=0 GroupJobs=4",
	},
	"wan": {
		"SingleMBps=8.942571519494994 StripedMBps=11.261711269578795 Streams=4",
	},
}

// exactRows renders each row as "col=value ..." with every value in
// its exact %v form (the shortest representation that round-trips), so
// any drift shows.
func exactRows(tab bench.Table) []string {
	out := make([]string, len(tab.Rows))
	for i, r := range tab.Rows {
		kv := make([]string, len(r))
		for j, v := range r {
			kv[j] = fmt.Sprintf("%s=%v", tab.Cols[j].Name, v)
		}
		out[i] = strings.Join(kv, " ")
	}
	return out
}

// row is one table row keyed by column name.
type row map[string]any

// f reads an integer or float cell as a float64.
func (r row) f(col string) float64 {
	rv := reflect.ValueOf(r[col])
	if rv.CanInt() {
		return float64(rv.Int())
	}
	return rv.Float()
}

// rows returns the table's rows, and the same rows indexed by the
// string in column key.
func rows(tab bench.Table, key string) ([]row, map[string]row) {
	list, byKey := make([]row, len(tab.Rows)), make(map[string]row)
	for i, cells := range tab.Rows {
		list[i] = make(row, len(cells))
		for j, v := range cells {
			list[i][tab.Cols[j].Name] = v
		}
		if k, ok := list[i][key].(string); ok {
			byKey[k] = list[i]
		}
	}
	return list, byKey
}

// artifact returns the named artifact's bytes.
func artifact(t *testing.T, r bench.Result, name string) []byte {
	for _, a := range r.Artifacts {
		if a.Name == name {
			return a.Data
		}
	}
	t.Fatalf("no artifact %q", name)
	return nil
}

// checks holds each scenario's behavioural assertions on one run.
var checks = map[string]func(t *testing.T, r bench.Result){
	// Adaptation beats static selection; only the adaptive run adapts.
	"weather": func(t *testing.T, r bench.Result) {
		rs, _ := rows(r.Table, "")
		if len(rs) != 2 || rs[0]["Adaptive"] != false || rs[1]["Adaptive"] != true {
			t.Fatalf("want static, adaptive rows: %v", exactRows(r.Table))
		}
		for _, c := range []string{"MakespanS", "DegradedLinkMB"} {
			if rs[1].f(c) >= rs[0].f(c) {
				t.Errorf("adaptive %s %v not below static %v", c, rs[1][c], rs[0][c])
			}
		}
		for _, c := range []string{"SourceSwitches", "Reselects", "Resumes"} {
			if rs[1].f(c) == 0 || rs[0].f(c) != 0 {
				t.Errorf("%s: adaptive %v (want > 0), static %v (want 0)", c, rs[1][c], rs[0][c])
			}
		}
	},
	// The pack ingest trails the free memory map; the drill's audit
	// catches every injected rot, repair restores them, nothing is lost.
	"store": func(t *testing.T, r bench.Result) {
		rs, _ := rows(r.Table, "")
		if len(rs) != 2 || rs[0]["Engine"] != "memory" || rs[1]["Engine"] != "pack" {
			t.Fatalf("want memory, pack rows: %v", exactRows(r.Table))
		}
		if rs[1].f("PutMBps") >= rs[0].f("PutMBps") {
			t.Errorf("pack ingest not below the free memory map (no disk charged?): %v", exactRows(r.Table))
		}
		for _, e := range rs {
			if e.f("Quarantined") != e.f("Corrupted") || e.f("Repaired") < e.f("Corrupted") || e.f("Lost") != 0 {
				t.Errorf("%s: drill failed: %v", e["Engine"], e)
			}
		}
	},
	// The per-layer latency histograms are populated, nodes_down is a
	// gauge, and volatile metrics are left out.
	"metrics": func(t *testing.T, r bench.Result) {
		_, m := rows(r.Table, "name")
		for _, want := range []string{
			"session.open_latency", "datagrid.transfer_latency",
			"group.op_latency", "weather.probe_rtt", "ipstack.rtt",
		} {
			if m[want] == nil || m[want].f("count") == 0 {
				t.Errorf("histogram %q missing or empty in snapshot", want)
			}
		}
		if m["datagrid.nodes_down"]["kind"] != "gauge" {
			t.Errorf("datagrid.nodes_down is not a gauge: %v", m["datagrid.nodes_down"])
		}
		if m["iovec.pool_misses"] != nil {
			t.Error("volatile iovec.pool_misses leaked into the pinned snapshot")
		}
	},
	// The trace is valid Chrome JSON and every instrumented layer shows.
	"trace": func(t *testing.T, r bench.Result) {
		var doc struct{ TraceEvents []json.RawMessage }
		if err := json.Unmarshal(artifact(t, r, "trace.json"), &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Fatalf("trace is not valid JSON or has no events: %v", err)
		}
		_, m := rows(r.Table, "layer")
		for _, want := range []string{"ipstack", "session", "selector", "datagrid", "group", "weather"} {
			if m[want] == nil || m[want].f("spans")+m[want].f("instants") == 0 {
				t.Errorf("no spans from layer %q in the trace", want)
			}
		}
	},
	"critpath": func(t *testing.T, r bench.Result) {
		if len(r.Rows) == 0 {
			t.Fatal("critical-path table is empty")
		}
	},
	// Transfer latency breaches across the degrade and clears in the
	// quiet tail; recovery availability breaches while the partition
	// starves the repair loop and clears after the heal; the repair and
	// probe objectives hold.
	"slo": func(t *testing.T, r bench.Result) {
		_, m := rows(r.Table, "name")
		for _, name := range []string{"datagrid-transfer-p99", "recovery-availability"} {
			if s := m[name]; s == nil || s.f("breaches") == 0 || s.f("clears") == 0 || s["breached"] != false {
				t.Errorf("%s: want breached and cleared by the end, got %v", name, s)
			}
		}
		for _, name := range []string{"repair-time-to-heal", "probe-availability"} {
			if s := m[name]; s == nil || s.f("breaches") != 0 || s["breached"] != false {
				t.Errorf("%s breached (%v) — the workload should hold it", name, s)
			}
		}
	},
	// Each failure is detected, then healed with bytes moved and zero
	// objects lost; the crashes repair, the blackout more than one node.
	"partition": func(t *testing.T, r bench.Result) {
		rs, m := rows(r.Table, "Scenario")
		if len(rs) != 3 || m["node-crash"] == nil || m["site-blackout"] == nil || m["wan-partition"] == nil {
			t.Fatalf("want node-crash, site-blackout, wan-partition rows: %v", exactRows(r.Table))
		}
		for _, s := range rs {
			if s.f("Lost") != 0 || s.f("DetectS") <= 0 || s.f("RecoverS") <= s.f("DetectS") || s.f("MovedMB") <= 0 {
				t.Errorf("%s: want detect > 0, recover after detect, bytes moved, none lost: %v", s["Scenario"], s)
			}
		}
		if crash, blackout := m["node-crash"].f("Repairs"), m["site-blackout"].f("Repairs"); crash == 0 || blackout <= crash {
			t.Errorf("repairs: node crash %v (want > 0), site blackout %v (want more)", crash, blackout)
		}
	},
	// Tracks from six or more layers, including hop utilization, queue
	// depth and pool occupancy, nodes_down as a gauge, no volatile
	// metric; and the degrade is visible: the collapsed core's busy
	// fraction after DegradeAt dwarfs its healthy-era level.
	"series": func(t *testing.T, r bench.Result) {
		rs, m := rows(r.Table, "name")
		layers := make(map[string]bool)
		for _, tr := range rs {
			layers[strings.SplitN(tr["name"].(string), ".", 2)[0]] = true
		}
		if len(layers) < 6 {
			t.Errorf("series covers only %d layers: %v", len(layers), layers)
		}
		for _, want := range []string{
			"netsim.hop.core:vthd:site0+site1.busy_frac", "netsim.hop.core:vthd:site0+site1.queued_bytes",
			"iovec.pool_outstanding", "datagrid.sched_pending", "session.recv_backlog_msgs",
			"store.fsync_backlog_bytes", "datagrid.transfer_latency.p99",
		} {
			if m[want] == nil {
				t.Errorf("track %q missing from the series", want)
			}
		}
		if m["iovec.pool_misses"] != nil || m["datagrid.nodes_down"]["kind"] != "gauge" {
			t.Errorf("want no pool_misses track and a nodes_down gauge: %v, %v", m["iovec.pool_misses"], m["datagrid.nodes_down"])
		}
		var doc struct {
			Series []struct {
				Name   string
				Points [][2]float64
			}
		}
		if err := json.Unmarshal(artifact(t, r, "series.json"), &doc); err != nil {
			t.Fatalf("series JSON: %v", err)
		}
		var before, after float64
		for _, tr := range doc.Series {
			if tr.Name != "netsim.hop.core:vthd:site0+site1.busy_frac" {
				continue
			}
			for _, p := range tr.Points {
				if p[0] <= float64(grid.DegradeAt) {
					before = max(before, p[1])
				} else {
					after = max(after, p[1])
				}
			}
		}
		if after < 0.5 || before >= after/10 {
			t.Errorf("degrade not visible: healthy peak busy fraction %v vs degraded peak %v", before, after)
		}
		if !bytes.Contains(artifact(t, r, "dash.html"), []byte("<svg")) {
			t.Error("dashboard has no inline SVG")
		}
		if !bytes.Contains(artifact(t, r, "metrics.prom"), []byte("# TYPE padico_datagrid_nodes_down gauge\n")) {
			t.Error("exposition does not type datagrid.nodes_down as a gauge")
		}
	},
}

func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario runs")
	}
	for _, s := range bench.Scenarios {
		t.Run(s.Name, func(t *testing.T) {
			first, second := s.Run(), s.Run()
			a, b := exactRows(first.Table), exactRows(second.Table)
			if !slices.Equal(a, b) {
				t.Errorf("table drifted across reruns:\n run1 %s\n run2 %s",
					strings.Join(a, "\n      "), strings.Join(b, "\n      "))
			}
			for i, art := range first.Artifacts {
				if !art.Volatile && !bytes.Equal(art.Data, second.Artifacts[i].Data) {
					t.Errorf("artifact %s drifted across reruns", art.Name)
				}
			}
			if want, ok := pinned[s.Name]; ok && !slices.Equal(a, want) {
				t.Errorf("table drifted from the seed:\n got  %s\n seed %s",
					strings.Join(a, "\n      "), strings.Join(want, "\n      "))
			}
			if s.Sidecar != nil {
				fresh, err := bench.SidecarJSON(s, first.Table)
				committed, rerr := os.ReadFile(s.Sidecar.File())
				if err != nil || rerr != nil || !bytes.Equal(fresh, committed) {
					t.Errorf("%s is stale (%v, %v): regenerate it with %s", s.Sidecar.File(), err, rerr, s.Command())
				}
			}
			if check := checks[s.Name]; check != nil {
				check(t, first)
			}
		})
	}
}

// TestDeterminismTraced double-runs the traced twins of the datagrid
// and weather scenarios. They are separate runs because tracing adds a
// 16-byte context to wire headers and so changes virtual time.
func TestDeterminismTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced runs")
	}
	for _, tc := range []struct {
		name string
		run  func() []byte
	}{{"datagrid", bench.DataGridTrace}, {"weather", bench.WeatherTrace}} {
		t.Run(tc.name, func(t *testing.T) {
			if !bytes.Equal(tc.run(), tc.run()) {
				t.Fatal("trace JSON drifted across reruns")
			}
		})
	}
}

// TestCriticalPathsCoverMakespan analyzes every request of the observed
// workload: each critical path tiles its request's makespan exactly,
// and at least one crosses a layer boundary.
func TestCriticalPathsCoverMakespan(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced run")
	}
	paths := bench.TraceRun().CriticalPaths()
	multi := false
	for _, cp := range paths {
		layers := make(map[string]bool)
		for _, r := range cp.Rows {
			layers[r.Cat] = true
		}
		multi = multi || len(layers) > 1
		var covered vtime.Duration
		for _, sg := range cp.Segs {
			covered += sg.Dur
		}
		if covered != cp.Makespan {
			t.Errorf("path of span %d covers %v of a %v makespan", cp.RootID, covered, cp.Makespan)
		}
	}
	if !multi {
		t.Errorf("none of %d critical paths crosses a layer boundary", len(paths))
	}
}

// TestTracePropagationConnectedTree is the tentpole acceptance test:
// one traced datagrid put over the degrading WAN must yield a single
// connected span tree — every span carrying the put's trace id is
// reachable from the put root through parent links, across node
// boundaries — and the tree must reach all the way down to TCP payload
// segments on every participating node (client, entry replica, fan-out
// replica).
func TestTracePropagationConnectedTree(t *testing.T) {
	g := grid.DegradingWAN(1) // node 0 = site0, 1 = site1, 2 = site2
	h := g.Telemetry()
	h.EnableTracing()
	dg := g.NewDataGrid(datagrid.Config{Replicas: 2, Streams: 4})
	ring := datagrid.NewRing(0)
	ring.Add(topology.NodeID(1), "site1")
	ring.Add(topology.NodeID(2), "site2")
	dg.SetRing(ring)
	payload := bytes.Repeat([]byte("causal"), 256<<10/6)
	if err := g.K.Run(func(p *vtime.Proc) {
		if err := dg.Put(p, 0, "traced", payload); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		dg.WaitSettled(p)
	}); err != nil {
		t.Fatalf("run: %v", err)
	}

	spans := h.Spans()
	var root *telemetry.SpanInfo
	for i := range spans {
		if spans[i].Cat == "datagrid" && spans[i].Name == "put" {
			if root != nil {
				t.Fatal("more than one put root")
			}
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatal("no put root span")
	}
	if root.Trace != root.ID {
		t.Fatalf("put span is not a trace root: trace %d, id %d", root.Trace, root.ID)
	}

	// Collect the request's spans and check the tree is connected: every
	// member's parent is another member (the root's parent is 0).
	members := make(map[int64]telemetry.SpanInfo)
	for _, sp := range spans {
		if sp.Trace == root.Trace {
			members[sp.ID] = sp
		}
	}
	if len(members) < 10 {
		t.Fatalf("suspiciously small request tree: %d spans", len(members))
	}
	nodes := make(map[int]bool)
	segNodes := make(map[int]bool)
	for _, sp := range members {
		nodes[sp.Tid] = true
		if sp.Cat == "ipstack" && sp.Name == "tcp.seg" {
			segNodes[sp.Tid] = true
		}
		if sp.ID == root.ID {
			if sp.Parent != 0 {
				t.Errorf("root has a parent: %d", sp.Parent)
			}
			continue
		}
		if sp.Parent == 0 {
			t.Errorf("span %d (%s/%s on node %d) is disconnected from the put root",
				sp.ID, sp.Cat, sp.Name, sp.Tid)
		} else if _, ok := members[sp.Parent]; !ok {
			t.Errorf("span %d (%s/%s on node %d) has parent %d outside the trace",
				sp.ID, sp.Cat, sp.Name, sp.Tid, sp.Parent)
		}
	}
	// The tree must span all three participants and carry TCP payload
	// segments on each: the client pushes chunks, the entry relays the
	// fan-out, and the far replica's credit/status frames ride TCP back.
	for _, n := range []int{0, 1, 2} {
		if !nodes[n] {
			t.Errorf("no spans from node %d in the request tree", n)
		}
		if !segNodes[n] {
			t.Errorf("no tcp.seg events from node %d in the request tree", n)
		}
	}
}
