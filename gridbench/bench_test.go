package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"padico/internal/grid"
	"padico/internal/vtime"
)

// tiny returns a copy of workload name shrunk to one small instance.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w, ok := workloads[name]
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.params = params{instances: 1, ops: 10, keys: 6}
	return &c
}

// virtual is everything a run reports on the virtual clock, plus the
// layer counts of its timed phase.
type virtual struct {
	fingerprint       [32]byte
	attempted, failed int
	metrics           map[string]metric
	counts            map[string]float64
}

func runVirtual(t *testing.T, w *workload, seed uint64) virtual {
	t.Helper()
	_, rounds, err := playRounds(w, seed, true, 0)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	m := endToEnd(w, rounds)
	for k := range m {
		if k[:2] != "v_" && k != "op_ok_ratio" {
			delete(m, k)
		}
	}
	r := rounds[0]
	return virtual{r.fingerprint, r.attempted, r.failed, m, r.delta}
}

func TestSameSeedSameVirtualResults(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := tiny(t, name)
			a, b := runVirtual(t, w, 7), runVirtual(t, w, 7)
			if a.attempted == 0 {
				t.Fatal("no operations attempted")
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two runs with one seed differ:\n%+v\n%+v", a, b)
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, name := range workloadNames() {
		w := tiny(t, name)
		if w.instance(1, 0).digest != w.instance(1, 0).digest {
			t.Errorf("%s: one seed generated different inputs", name)
		}
		if w.instance(1, 0).digest == w.instance(2, 0).digest {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", name)
		}
		if w.instance(1, 0).digest == w.instance(1, 1).digest {
			t.Errorf("%s: instances 0 and 1 generated the same inputs", name)
		}
	}
}

// TestInjectedFaultCountsAsFailedOp forces every remote transfer to be
// rejected through datagrid.Config.InjectFault: the run must finish,
// with the failed puts counted against the attempted ones.
func TestInjectedFaultCountsAsFailedOp(t *testing.T) {
	w := tiny(t, "wan-ingest")
	w.params.inject = func(string, int) bool { return true }
	v := runVirtual(t, w, 3)
	if v.attempted != 2*w.params.ops {
		t.Fatalf("attempted %d ops, want %d", v.attempted, 2*w.params.ops)
	}
	if v.failed == 0 {
		t.Fatal("injected transfer faults were not counted as failed ops")
	}
	if ok := v.metrics["op_ok_ratio"].Value; ok != 1-float64(v.failed)/float64(v.attempted) {
		t.Errorf("op_ok_ratio = %v with %d of %d failed", ok, v.failed, v.attempted)
	}
}

// TestStoppedSimulationAbortsRound plays a round whose simulation
// deadlocks inside the timed phase: the round must end without an
// error, with the op in flight counted as failed, and a second play
// must reproduce it.
func TestStoppedSimulationAbortsRound(t *testing.T) {
	w := &workload{name: "deadlock", params: params{instances: 1}, gen: func(*gen, params) *instance {
		return &instance{run: func(rc *roundCtx) error {
			tb := grid.Cluster(2)
			rc.attach(tb, false)
			var setupErr error
			runErr := tb.K.Run(func(p *vtime.Proc) {
				if setupErr = rc.beginTimed(p); setupErr != nil {
					return
				}
				rc.op(p, 0, "done", 1, func(int64) error { return nil })
				rc.op(p, 0, "stuck", 1, func(int64) error {
					never := vtime.NewWaitGroup("never")
					never.Add(1)
					never.Wait(p)
					return nil
				})
				rc.endTimed(p)
			})
			return rc.finish(tb.K, runErr, setupErr, nil)
		}}
	}}
	a, err := playRound(w, 1, 0, false)
	if err != nil {
		t.Fatalf("a deadlocked round ended the run: %v", err)
	}
	if a.aborted == nil || a.attempted != 2 || a.failed != 1 {
		t.Fatalf("aborted=%v attempted=%d failed=%d; want an abort with 1 of 2 failed", a.aborted, a.attempted, a.failed)
	}
	b, err := playRound(w, 1, 0, false)
	if err != nil || b.fingerprint != a.fingerprint {
		t.Errorf("second play: err=%v, fingerprint reproduced: %v", err, b.fingerprint == a.fingerprint)
	}
}

// TestSetUpStopCountsEveryOpFailed plays a round whose simulation
// deadlocks before its timed phase: the round must end without an
// error, with every planned op counted as attempted and failed, and the
// end-to-end metrics must still be numbers.
func TestSetUpStopCountsEveryOpFailed(t *testing.T) {
	w := &workload{name: "deadlock", params: params{instances: 1}, gen: func(*gen, params) *instance {
		return &instance{ops: 4, run: func(rc *roundCtx) error {
			tb := grid.Cluster(2)
			rc.attach(tb, false)
			runErr := tb.K.Run(func(p *vtime.Proc) {
				never := vtime.NewWaitGroup("never")
				never.Add(1)
				never.Wait(p)
			})
			return rc.finish(tb.K, runErr, nil, nil)
		}}
	}}
	o, err := playRound(w, 1, 0, false)
	if err != nil {
		t.Fatalf("a round stopped in set-up ended the run: %v", err)
	}
	if o.aborted == nil || o.attempted != 4 || o.failed != 4 {
		t.Fatalf("aborted=%v attempted=%d failed=%d; want an abort with 4 of 4 failed", o.aborted, o.attempted, o.failed)
	}
	if _, err := json.Marshal(endToEnd(w, []roundOutcome{o})); err != nil {
		t.Errorf("end-to-end metrics of the run: %v", err)
	}
}

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{10, 32, 48, 240, 1200, 9600, 20000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v, p := tail(xs, 99.9)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 && p != 50 {
			t.Errorf("n=%d: p%g has %d samples beyond it", n, p, beyond)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for sym, want := range map[string]string{
		"padico/internal/vtime.(*Kernel).Run":        "vtime",
		"padico/internal/drivers/gm.(*Port).Send":    "drivers",
		"padico/internal/datagrid.(*DataGrid).Put":   "datagrid",
		"main.playRounds":                            "gridbench",
		"crypto/sha256.blockSHANI":                   "",
		"padico/internal/ipstack.(*conn).send.func1": "ipstack",
	} {
		got, ok := moduleOf(sym)
		if got != want || ok != (want != "") {
			t.Errorf("moduleOf(%q) = %q, %v; want %q", sym, got, ok, want)
		}
	}
}
