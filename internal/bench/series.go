// The time-series run: the DegradingWAN + partition scenario of
// SLOBench instrumented with the series sampler instead of (only) the
// SLO monitor, on durable pack engines so every layer with a gauge has
// something to show. One run of the "series" scenario feeds its
// artifacts: series.json (pinned deterministic JSON), metrics.prom
// and dash.html (the self-contained HTML dashboard), whose curves tell
// the whole story —
// healthy ingest, the core collapsing at DegradeAt (hop busy-fraction
// jumps to saturation, queued bytes pile up, transfer p99 explodes),
// the site partition (lost-object rate screams, live channels drain),
// and the heal (repair wave, queues drain, latencies recover).
package bench

import (
	"fmt"
	"os"
	"time"

	"padico/internal/datagrid"
	"padico/internal/faults"
	"padico/internal/grid"
	"padico/internal/store"
	"padico/internal/telemetry"
	"padico/internal/telemetry/series"
	"padico/internal/vtime"
	"padico/internal/weather"
)

// SeriesInterval is the sampler cadence of SeriesRun: fine enough to
// resolve the degrade edge, coarse enough that a ~26s virtual run
// stays far inside one ring (no downsampling, every scrape a point).
const SeriesInterval = 250 * time.Millisecond

// SeriesOutcome is what SeriesRun hands the exporters: the sampler
// holding every track, the hub (for Prom exposition), and the run's
// event marks for the dashboard.
type SeriesOutcome struct {
	Sampler *telemetry.Sampler
	Hub     *telemetry.Hub
	Marks   []series.Mark
}

// SeriesRun executes the degrade → partition → heal scenario with the
// metric sampler attached and returns the collected series.
// Deterministic: two runs yield byte-identical series JSON (pinned in
// determinism tests); volatile metrics (iovec pool misses) are
// excluded by the sampler itself.
func SeriesRun() SeriesOutcome {
	g := grid.DegradingWAN(2) // site0 {0,1}, site1 {2,3}, site2 {4,5}
	h := g.Telemetry()
	g.EnableWeather(weather.Config{})

	// Durable pack engines so the store layer has fsync backlog and
	// bundle-byte activity to sample.
	dir, err := os.MkdirTemp("", "padico-series-*")
	if err != nil {
		panic(fmt.Sprintf("bench: series: %v", err))
	}
	defer os.RemoveAll(dir)
	dg := g.NewDataGrid(datagrid.Config{
		Replicas: 2, Streams: 4, RepairInterval: time.Second,
		Engine: store.PackFactory(dir, store.PackConfig{}),
	})
	// Replicas land in site1 only: every transfer crosses the core that
	// collapses at DegradeAt.
	placeOn(g, dg, 2, 3)
	inj := faults.NewInjector(g)
	wireDetector(g, inj, dg)

	sam := h.StartSampler(vtime.Duration(SeriesInterval))
	data := weatherPayload(1 << 20)
	var partAt, healAt vtime.Time
	err = g.K.Run(func(p *vtime.Proc) {
		// Healthy era: spaced ingest, so the rate tracks show a steady
		// plateau rather than one spike.
		for i := 0; i < 4; i++ {
			if err := dg.Put(p, 0, fmt.Sprintf("ts-a-%d", i), data); err != nil {
				panic(err)
			}
			p.Sleep(300 * time.Millisecond)
		}
		dg.WaitSettled(p)
		// Degraded era: the same traffic after the core collapsed —
		// transfers crawl, the hop queue fills, p99 breaches.
		deg := vtime.Time(0).Add(grid.DegradeAt + 250*time.Millisecond)
		if p.Now() < deg {
			p.Sleep(deg.Sub(p.Now()))
		}
		for i := 0; i < 4; i++ {
			if err := dg.Put(p, 0, fmt.Sprintf("ts-b-%d", i), data); err != nil {
				panic(err)
			}
		}
		dg.WaitSettled(p)
		// Quiet tail: queues drain, rates fall back to zero.
		p.Sleep(2 * time.Second)
		// Partition the replica site: the repair loop finds every object
		// unreachable and the lost-object rate screams.
		partAt = p.Now()
		inj.PartitionSite("site1",
			"core:vthd:site0+site1", "core:vthd:site1+site2")
		p.Sleep(6 * time.Second)
		// Heal: the detector re-adds the site and the repair wave
		// re-verifies everything — visible as the final activity burst.
		healAt = p.Now()
		inj.HealSite("site1",
			"core:vthd:site0+site1", "core:vthd:site1+site2")
		p.Sleep(6 * time.Second)
	})
	if err != nil {
		panic(fmt.Sprintf("bench: series: %v", err))
	}
	if err := dg.Close(); err != nil {
		panic(fmt.Sprintf("bench: series: close: %v", err))
	}
	return SeriesOutcome{
		Sampler: sam,
		Hub:     h,
		Marks: []series.Mark{
			{T: vtime.Time(0).Add(grid.DegradeAt), Label: "degrade"},
			{T: partAt, Label: "partition"},
			{T: healAt, Label: "heal"},
		},
	}
}

// SeriesDashOptions returns the dashboard options for a SeriesRun
// outcome — shared by padico-bench and examples/dashboard.
func SeriesDashOptions(out SeriesOutcome) series.DashOptions {
	return series.DashOptions{
		Title:    "padico · DegradingWAN degrade → partition → heal",
		Subtitle: "3 sites × 2 nodes, VTHD core collapses 16× at 6s; site1 partitioned, then healed. Sampler cadence 250ms of virtual time.",
		Marks:    out.Marks,
	}
}
