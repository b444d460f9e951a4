package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"padico/internal/grid"
	"padico/internal/iovec"
	"padico/internal/telemetry"
	"padico/internal/vtime"
)

// span is one benchmark-side span: a call into a layer made by this
// benchmark's own code, timed on both clocks. Spans of one operation
// share its op id; parent names the enclosing span of that op ("" for
// the operation itself).
type span struct {
	op       int64
	name     string
	parent   string
	client   int
	v0, v1   vtime.Time
	h0, h1   time.Time
	top      bool  // the operation itself, as opposed to a child span
	open     bool  // started and not yet ended
	ok       bool  // top spans: the operation succeeded and verified
	bytes    int64 // top spans: payload bytes the operation moved
	failWhat string
}

// roundCtx is handed to a workload's round function. The workload
// builds its testbed, calls beginTimed after warm-up, plays its
// operation stream through op, calls endTimed after its final
// verification, and passes the simulation's outcome to finish.
type roundCtx struct {
	traced bool
	// aborted is why the simulation stopped before the timed phase
	// ended (a deadlock or a failed proc), or nil.
	aborted error

	setupStart time.Time
	setup      time.Duration

	g     *grid.Grid
	hub   *telemetry.Hub
	mark0 hostMark
	v0    vtime.Time
	snap0 map[string]float64

	wall, cpu time.Duration
	alloc     uint64
	gcs       uint32
	vspan     vtime.Duration
	vgood     vtime.Duration     // virtual span the goodput is measured over
	delta     map[string]float64 // counter deltas over the timed phase
	end       map[string]float64 // gauges and quantiles at the end
	extra     map[string]float64 // workload-specific layer metrics
	crit      map[string]float64 // virtual critical-path share per layer
	profile   *bytes.Buffer      // traced rounds: CPU profile of the timed phase

	spans []span
	nextO int64
}

type hostMark struct {
	t     time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func readHostMark() hostMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostMark{t: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSBytes is the process's peak resident set size.
func maxRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// attach gives the round its testbed. A workload that runs with a
// telemetry hub asks for one; a traced round always gets one, with
// tracing on. Either way it is attached before any layer is built on
// the testbed, so every layer registers its counters.
func (rc *roundCtx) attach(g *grid.Grid, hub bool) *telemetry.Hub {
	rc.g = g
	if hub || rc.traced {
		rc.hub = g.Telemetry()
		rc.hub.SetFlightSink(io.Discard)
	}
	if rc.traced {
		rc.hub.EnableTracing()
	}
	return rc.hub
}

// beginTimed ends set-up and starts the timed phase. It runs inside
// the simulation, on the root proc.
func (rc *roundCtx) beginTimed(p *vtime.Proc) error {
	rc.setup = time.Since(rc.setupStart)
	rc.snap0 = rc.snapshot()
	rc.v0 = p.Now()
	if rc.traced {
		rc.profile = new(bytes.Buffer)
		if err := pprof.StartCPUProfile(rc.profile); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	rc.mark0 = readHostMark()
	return nil
}

// opsDone marks the end of the goodput interval: the virtual time by
// which every byte the ops moved has been verified. Without it the
// interval is the whole timed phase.
func (rc *roundCtx) opsDone(p *vtime.Proc) { rc.vgood = p.Now().Sub(rc.v0) }

// endTimed closes the timed phase.
func (rc *roundCtx) endTimed(p *vtime.Proc) { rc.endAt(p.Now()) }

// endAt closes the timed phase at virtual time now.
func (rc *roundCtx) endAt(now vtime.Time) {
	m := readHostMark()
	if rc.traced {
		pprof.StopCPUProfile()
	}
	rc.wall = m.t.Sub(rc.mark0.t)
	rc.cpu = m.cpu - rc.mark0.cpu
	rc.alloc = m.alloc - rc.mark0.alloc
	rc.gcs = m.gcs - rc.mark0.gcs
	rc.vspan = now.Sub(rc.v0)
	if rc.vgood == 0 {
		rc.vgood = rc.vspan
	}
	snap := rc.snapshot()
	rc.delta = make(map[string]float64, len(snap))
	for k, v := range snap {
		rc.delta[k] = v - rc.snap0[k]
	}
	rc.end = rc.endValues()
}

// counterNames are the telemetry registry counters whose timed-phase
// deltas feed the per-layer metrics (rounds with a hub only).
var counterNames = []string{
	"ipstack.tcp_segs_sent", "ipstack.tcp_retransmits",
	"session.opens", "session.circuit_opens", "session.circuit_reuses",
	"session.reselects", "session.resumes",
	"group.multicasts", "group.edge_reuses", "group.edges_opened",
	"datagrid.jobs", "datagrid.retries", "datagrid.bytes_moved",
	"datagrid.wan_bytes", "datagrid.source_switches", "datagrid.repairs",
	"datagrid.lost_objects",
	"store.reads", "store.fsyncs", "store.tombstones", "store.cold_loads",
	"weather.pings", "weather.bandwidth_probes", "weather.publishes",
}

// snapshot reads every cumulative counter the per-layer metrics use.
func (rc *roundCtx) snapshot() map[string]float64 {
	s := map[string]float64{
		"vtime.events":        float64(rc.g.K.EventsFired),
		"vtime.proc_switches": float64(rc.g.K.ProcSwitches),
		"iovec.pool_gets":     float64(iovec.PoolGets()),
		"iovec.unpooled":      float64(iovec.PoolUnpooled()),
		"iovec.outstanding":   float64(iovec.PoolGets() - iovec.PoolFrees()),
	}
	for name, h := range rc.g.CoreHops {
		s["netsim.core_bytes"] += float64(h.Bytes)
		s["netsim.core_drops"] += float64(h.Drops)
		s["netsim.busy."+name] = float64(h.BusyNs)
	}
	if rc.hub != nil {
		reg := rc.hub.Registry()
		for _, n := range counterNames {
			s[n] = float64(reg.Value(n))
		}
	}
	return s
}

// endValues reads end-of-round gauges and histogram p99s (histograms
// are cumulative over the round, set-up included).
func (rc *roundCtx) endValues() map[string]float64 {
	e := map[string]float64{}
	if rc.hub == nil {
		return e
	}
	reg := rc.hub.Registry()
	for _, n := range []string{"ipstack.rtt", "session.open_latency", "group.op_latency", "datagrid.transfer_latency"} {
		e[n+".p99"] = float64(reg.Histogram(n).Quantile(0.99)) / 1e3
	}
	e["store.bundle_bytes"] = float64(reg.Value("store.bundle_bytes"))
	return e
}

// op runs one operation of a client's closed loop and records it as a
// top-level span. An error from fn — the call failed or its output did
// not verify — counts the op as failed, and the loop goes on.
func (rc *roundCtx) op(q *vtime.Proc, client int, name string, bytes int64, fn func(id int64) error) {
	i := rc.start(span{name: name, client: client, top: true, bytes: bytes, v0: q.Now(), h0: time.Now()})
	err := fn(rc.spans[i].op)
	s := &rc.spans[i]
	s.v1, s.h1, s.open = q.Now(), time.Now(), false
	s.ok = err == nil
	if err != nil {
		s.failWhat = err.Error()
	}
}

// start records s as an open span with a new op id and returns its
// index in rc.spans.
func (rc *roundCtx) start(s span) int {
	rc.nextO++
	s.op, s.open = rc.nextO, true
	rc.spans = append(rc.spans, s)
	return len(rc.spans) - 1
}

// child records a span nested in operation id, on a proc of the layer
// serving it (the MPI peer, the ORB servant, a byte check).
func (rc *roundCtx) child(id int64, name, parent string, client int, v0 vtime.Time, h0 time.Time, q *vtime.Proc) {
	if !rc.traced {
		return
	}
	rc.spans = append(rc.spans, span{op: id, name: name, parent: parent, client: client, v0: v0, v1: q.Now(), h0: h0, h1: time.Now()})
}

// phase runs fn as a named span that is not an operation of its own
// (waiting for replication to settle).
func (rc *roundCtx) phase(p *vtime.Proc, name string, fn func()) {
	i := rc.start(span{name: name, client: -1, v0: p.Now(), h0: time.Now()})
	fn()
	s := &rc.spans[i]
	s.v1, s.h1, s.open = p.Now(), time.Now(), false
}

// finish turns the outcome of a round's simulation into the round's
// error. A simulation that stops before the timed phase ends — the
// kernel found every proc blocked, or a proc failed — is a failure of
// the program, not of the benchmark, and aborts the round. Stopped in
// set-up, the round has no timed phase and every operation of its
// stream counts as failed (see summarize). Stopped in the timed phase,
// the round ends at that instant, and verify, if not nil, runs the
// workload's final verification on what the simulation left. Set-up
// errors of the benchmark end the run.
func (rc *roundCtx) finish(k *vtime.Kernel, runErr, setupErr error, verify func()) error {
	if setupErr != nil || runErr == nil || rc.delta != nil {
		return firstErr(setupErr, runErr)
	}
	if rc.mark0.t.IsZero() {
		rc.aborted = runErr
		return nil
	}
	rc.abort(k.Now(), runErr)
	if verify != nil {
		verify()
	}
	return nil
}

// abort ends the timed phase at now, when the simulation stopped with
// err. Every span still open ends there, and the operations among them
// count as failed.
func (rc *roundCtx) abort(now vtime.Time, err error) {
	why := "simulation stopped: " + err.Error()
	var dl *vtime.DeadlockError
	if errors.As(err, &dl) {
		why = "simulation deadlocked"
	}
	h := time.Now()
	for i := range rc.spans {
		if s := &rc.spans[i]; s.open {
			s.v1, s.h1, s.open = now, h, false
			if s.top {
				s.ok, s.failWhat = false, why
			}
		}
	}
	rc.aborted = err
	rc.endAt(now)
}

// failOp marks an earlier top-level span failed (final replication
// verification).
func (rc *roundCtx) failOp(id int64, why string) {
	for i := range rc.spans {
		if rc.spans[i].op == id && rc.spans[i].top && rc.spans[i].ok {
			rc.spans[i].ok = false
			rc.spans[i].failWhat = why
			return
		}
	}
}

// closedLoop runs n clients as procs, each issuing its next operation
// only after the previous one returned, and waits for all of them.
func closedLoop(p *vtime.Proc, n int, client func(q *vtime.Proc, c int)) {
	wg := vtime.NewWaitGroup("gridbench:clients")
	wg.Add(n)
	for c := 0; c < n; c++ {
		c := c
		p.Kernel().Go(fmt.Sprintf("client-%d", c), func(q *vtime.Proc) {
			defer wg.Done()
			client(q, c)
		})
	}
	wg.Wait(p)
}

// timed reports whether the round had a timed phase: it did unless
// its simulation stopped in set-up.
func (rc *roundCtx) timed() bool { return !rc.mark0.t.IsZero() }

// roundOutcome summarises one round.
type roundOutcome struct {
	*roundCtx
	inst              int // instance index
	attempted, failed int
	good              int64     // verified payload bytes
	lat               []float64 // virtual µs of every op, failed ones included
	fingerprint       [32]byte
}

// summarize derives a round's outcome from its spans. A round stopped
// in set-up issued none of its planned ops: all of them count as
// attempted and failed.
func summarize(rc *roundCtx, planned int) roundOutcome {
	o := roundOutcome{roundCtx: rc}
	if !rc.timed() {
		o.attempted, o.failed = planned, planned
		o.fingerprint = sha256.Sum256([]byte(rc.aborted.Error()))
		return o
	}
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, s := range rc.spans {
		h.Write([]byte(s.name))
		put(int64(s.v0))
		put(int64(s.v1))
		put(s.bytes)
		if !s.top {
			continue
		}
		o.attempted++
		o.lat = append(o.lat, latencyUS(s))
		if !s.ok {
			o.failed++
			put(-1)
			continue
		}
		o.good += s.bytes
	}
	put(int64(rc.vspan))
	put(int64(rc.delta["vtime.events"]))
	copy(o.fingerprint[:], h.Sum(nil))
	return o
}

// latencyUS is a span's virtual latency in µs. Ping-pong and
// invocation spans report one-way time, half the exchange, as in the
// paper's Table 1.
func latencyUS(s span) float64 {
	us := float64(s.v1.Sub(s.v0)) / 1e3
	if s.name == "mpi.pingpong" || s.name == "orb.invoke" {
		us /= 2
	}
	return us
}

// tail returns the pct-th percentile of xs (sorted in place), or, if
// fewer than 10 samples lie beyond it, the highest of p99.9, p99.5,
// p99, p95, p90, p75 and p50 that has 10 beyond; it also returns the
// percentile taken.
func tail(xs []float64, pct float64) (value, p float64) {
	sort.Float64s(xs)
	for _, p := range []float64{pct, 99.9, 99.5, 99, 95, 90, 75} {
		if p <= pct && float64(len(xs))*(1-p/100) >= 10 {
			return quantile(xs, p/100), p
		}
	}
	return quantile(xs, 0.5), 50
}

// quantile is the nearest-rank quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// playRound plays instance i of the workload as one round.
func playRound(w *workload, seed uint64, i int, traced bool) (roundOutcome, error) {
	in := w.instance(seed, i)
	runtime.GC() // the previous testbed's garbage stays out of this round
	rc := &roundCtx{traced: traced, setupStart: time.Now()}
	if err := in.run(rc); err != nil {
		return roundOutcome{}, fmt.Errorf("instance %d: %w", i, err)
	}
	rc.crit = critShares(rc.hub)
	rc.g, rc.hub = nil, nil // let the testbed go before the next round
	o := summarize(rc, in.ops)
	o.inst = i
	return o, nil
}

// playRounds plays the workload's instances in turn, one per round,
// cycling until budget has passed and every instance has run at least
// once. With traced set, each round is played twice, untraced and then
// traced, and the traced rounds come back in a second slice.
func playRounds(w *workload, seed uint64, traced bool, budget time.Duration) (plain, tr []roundOutcome, err error) {
	start := time.Now()
	k := w.params.instances
	for j := 0; ; j++ {
		o, err := playRound(w, seed, j%k, false)
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, o)
		if err := reproduces(plain, k); err != nil {
			return plain, tr, err
		}
		if traced {
			if o, err = playRound(w, seed, j%k, true); err != nil {
				return nil, nil, err
			}
			tr = append(tr, o)
			if err := reproduces(tr, k); err != nil {
				return plain, tr, err
			}
		}
		elapsed := time.Since(start)
		if j+1 >= k && elapsed+elapsed/time.Duration(j+1) > budget {
			return plain, tr, nil
		}
	}
}

// reproduces checks that the last of rounds, if it repeats an
// instance, reproduced that instance's first round's virtual results.
func reproduces(rounds []roundOutcome, k int) error {
	j := len(rounds) - 1
	if j >= k && rounds[j].fingerprint != rounds[j%k].fingerprint {
		return fmt.Errorf("%w: instance %d, round %d", errDiverged, j%k, j+1)
	}
	return nil
}

// errDiverged reports a round whose virtual results differ from the
// first round of the same instance: the simulation lost determinism.
var errDiverged = errors.New("virtual results diverged from the instance's first round")

func note(format string, args ...any) { fmt.Fprintf(os.Stdout, format+"\n", args...) }
