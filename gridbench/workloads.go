package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"padico/internal/bench"
	"padico/internal/datagrid"
	"padico/internal/faults"
	"padico/internal/grid"
	"padico/internal/mpi"
	"padico/internal/orb"
	"padico/internal/personality"
	"padico/internal/store"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
	"padico/internal/weather"
)

// workload is one named input set of the benchmark.
type workload struct {
	name   string
	params params
	gen    func(g *gen, p params) *instance
}

// params sizes a workload. The benchmark's own tests shrink them.
type params struct {
	// instances is how many independently generated testbeds and op
	// streams one run plays: pooling them keeps the seed-to-seed spread
	// of every metric small while each testbed stays small in memory.
	instances int
	ops       int // operations per client per instance
	keys      int // working-set objects per client (wan-serve)
	// tailPct is the percentile v_latency_tail_us reports: the highest
	// conventional one with at least 10 samples beyond it that does not
	// sit on the edge of a small population of stalled ops, where the
	// value would jump between the body and the stalls from seed to seed.
	tailPct float64
	// inject is passed to datagrid.Config.InjectFault: the tests use it
	// to force transfer failures.
	inject func(name string, attempt int) bool
}

// instance is one generated input set, ready to be played as a round:
// run builds a fresh testbed and plays the op stream on it.
type instance struct {
	digest [32]byte // digest of every generated input
	ops    int      // operations in the op stream, both clients
	run    func(rc *roundCtx) error
}

// instance generates instance i of a run from the workload seed. Each
// instance draws from its own stream, so instances differ from each
// other; inputs are generated when the round starts, so a run holds
// one instance's inputs at a time.
func (w *workload) instance(seed uint64, i int) *instance {
	return w.gen(newGen(seed, fmt.Sprintf("%s/%d", w.name, i)), w.params)
}

var workloads = map[string]*workload{
	"san-pingpong": {name: "san-pingpong", params: params{instances: 16, ops: 600, tailPct: 99.9}, gen: sanPingpong},
	// About 4% of wan-ingest puts stall for 0.1-3 s, right at p95; p90
	// stays in the body (the stalls show in datagrid.put.v_tail_us).
	"wan-ingest": {name: "wan-ingest", params: params{instances: 16, ops: 24, tailPct: 90}, gen: wanIngest},
	"wan-serve":  {name: "wan-serve", params: params{instances: 14, ops: 100, keys: 32, tailPct: 99.5}, gen: wanServe},
}

var errMismatch = errors.New("payload bytes differ from what was sent")

// --- san-pingpong -------------------------------------------------------

const (
	tagData = 7
	tagAck  = 8
)

// sanPingpong: on a two-node Myrinet cluster, client 0 runs MPI
// ping-pong (MPICH on the VMad personality, over a Circuit, over
// MadIO/Madeleine/GM) while client 1 runs omniORB 4 invocations over a
// VLink on the same MadIO. Message sizes are log-uniform from 4 B to
// 64 KiB. The peer checks every payload byte and answers with a 1-byte
// ack; latency is virtual one-way time (half the exchange).
func sanPingpong(g *gen, pr params) *instance {
	n := pr.ops
	var pay [2][][]byte
	for c := range pay {
		for _, s := range g.logUniform(n, 4, 64<<10) {
			pay[c] = append(pay[c], g.payload(s))
		}
	}
	return &instance{digest: g.h, ops: 2 * n, run: func(rc *roundCtx) error {
		tb := grid.Cluster(2)
		rc.attach(tb, false)
		var setupErr error
		runErr := tb.K.Run(func(p *vtime.Proc) {
			circs, err := tb.NewCircuits(p, "gridbench-mpi", []topology.NodeID{0, 1})
			if err != nil {
				setupErr = fmt.Errorf("circuits: %w", err)
				return
			}
			c0 := mpi.New(tb.K, personality.NewVMad(tb.K, circs[0]))
			c1 := mpi.New(tb.K, personality.NewVMad(tb.K, circs[1]))
			var orbOp int64 // op id of the invocation in flight
			server := orb.New(tb.K, tb.RT[1].VLink, orb.OmniORB4, "madio", 5000)
			server.RegisterServant("sink", orb.Servant{
				"check": func(q *vtime.Proc, args *orb.Decoder, reply *orb.Encoder) error {
					v0, h0 := q.Now(), time.Now()
					i := int(args.U32())
					ok := i < len(pay[1]) && bytes.Equal(args.Bytes(), pay[1][i])
					rc.child(orbOp, "orb.servant", "orb.invoke", 1, v0, h0, q)
					reply.PutU32(boolU32(ok))
					return nil
				},
			})
			if err := server.Activate(); err != nil {
				setupErr = fmt.Errorf("orb activate: %w", err)
				return
			}
			ref, err := orb.New(tb.K, tb.RT[0].VLink, orb.OmniORB4, "madio", 5001).Resolve(server.IOR("sink"))
			if err != nil {
				setupErr = fmt.Errorf("orb resolve: %w", err)
				return
			}
			// Warm-up: one exchange on each stack resolves the circuit
			// and the ORB connection before timing starts.
			args := orb.NewEncoder()
			args.PutU32(uint32(len(pay[1])))
			args.PutBytes(nil)
			if _, err := ref.Invoke(p, "check", args); err != nil {
				setupErr = fmt.Errorf("orb warm-up: %w", err)
				return
			}
			done := vtime.NewWaitGroup("warm-up")
			done.Add(1)
			tb.K.Go("mpi-warm-up", func(q *vtime.Proc) {
				c1.Recv(q, 0, tagData, make([]byte, 1))
				done.Done()
			})
			c0.Send(p, 1, tagData, []byte{0})
			done.Wait(p)

			if setupErr = rc.beginTimed(p); setupErr != nil {
				return
			}
			var mpiOp int64
			tb.K.Go("mpi-peer", func(q *vtime.Proc) {
				buf := make([]byte, 64<<10)
				for i := 0; i < n; i++ {
					st := c1.Recv(q, 0, tagData, buf)
					v0, h0 := q.Now(), time.Now()
					ok := bytes.Equal(buf[:st.Count], pay[0][i])
					rc.child(mpiOp, "mpi.peer_check", "mpi.pingpong", 0, v0, h0, q)
					c1.Send(q, 0, tagAck, []byte{byte(boolU32(ok))})
				}
			})
			closedLoop(p, 2, func(q *vtime.Proc, c int) {
				ack := make([]byte, 1)
				for i := 0; i < n; i++ {
					data := pay[c][i]
					if c == 0 {
						rc.op(q, c, "mpi.pingpong", int64(len(data)), func(id int64) error {
							mpiOp = id
							c0.Send(q, 1, tagData, data)
							c0.Recv(q, 1, tagAck, ack)
							if ack[0] != 1 {
								return errMismatch
							}
							return nil
						})
						continue
					}
					rc.op(q, c, "orb.invoke", int64(len(data)), func(id int64) error {
						orbOp = id
						args := orb.NewEncoder()
						args.PutU32(uint32(i))
						args.PutBytes(data)
						rep, err := ref.Invoke(q, "check", args)
						if err != nil {
							return err
						}
						if rep.U32() != 1 {
							return errMismatch
						}
						return nil
					})
				}
			})
			rc.endTimed(p)
		})
		return rc.finish(tb.K, runErr, setupErr, nil)
	}}
}

// --- wan-ingest ---------------------------------------------------------

// wanIngest: two clusters of two nodes over a 1%-loss WAN, memory
// engines, no telemetry. One client per site writes objects of
// log-uniform size from 64 KiB to 4 MiB, replicated three times with
// hierarchical fan-out over four TCP streams. After the op stream, the
// run waits for replication to settle and verifies every replica.
//
// A put's latency is the copy to its entry replica: local when the
// client's node is a placement target, over the SAN otherwise. Three
// replicas on four nodes make the client a target for three names in
// four. Key names are drawn so that every fourth size stratum (the
// 4th, 8th, ...) gets a SAN entry and the others a local one: the mix
// keeps its natural proportion, and the latencies and the goodput do
// not move with how many large objects happened to land local.
func wanIngest(g *gen, pr params) *instance {
	n := pr.ops
	ring := datagrid.RingFromTopology(ingestTestbed().Topo, 0)
	home := [2]topology.NodeID{0, 2} // one client per site
	var keys [2][]string
	var pay [2][][]byte
	for c := range pay {
		sizes := g.strata(n, 64<<10, 4<<20)
		for i, s := range sizes {
			for {
				k := g.key(fmt.Sprintf("ingest%d", c))
				if slices.Contains(ring.Place(k, ingestReplicas), home[c]) != (i%4 == 3) {
					keys[c] = append(keys[c], k)
					break
				}
			}
			pay[c] = append(pay[c], g.payload(s))
		}
		g.r.Shuffle(n, func(i, j int) {
			keys[c][i], keys[c][j] = keys[c][j], keys[c][i]
			pay[c][i], pay[c][j] = pay[c][j], pay[c][i]
		})
	}
	return &instance{digest: g.h, ops: 2 * n, run: func(rc *roundCtx) error {
		tb := ingestTestbed()
		rc.attach(tb, false)
		dg := tb.NewDataGrid(datagrid.Config{Replicas: ingestReplicas, Streams: 4, Hierarchical: true, InjectFault: pr.inject})
		var ids [2][]int64
		verify := func() {
			for c := range ids {
				for i, id := range ids[c] {
					if err := dg.VerifyReplicas(keys[c][i]); err != nil {
						rc.failOp(id, err.Error())
					}
				}
			}
		}
		var setupErr error
		runErr := tb.K.Run(func(p *vtime.Proc) {
			if setupErr = rc.beginTimed(p); setupErr != nil {
				return
			}
			closedLoop(p, 2, func(q *vtime.Proc, c int) {
				for i := 0; i < n; i++ {
					rc.op(q, c, "datagrid.put", int64(len(pay[c][i])), func(id int64) error {
						ids[c] = append(ids[c], id)
						return dg.Put(q, home[c], keys[c][i], pay[c][i])
					})
				}
			})
			rc.phase(p, "datagrid.wait_settled", func() { dg.WaitSettled(p) })
			verify()
			rc.endTimed(p)
		})
		return rc.finish(tb.K, runErr, setupErr, verify)
	}}
}

const ingestReplicas = 3

func ingestTestbed() *grid.Grid { return grid.TwoClusterWANLoss(2, 2, 0.01) }

// --- wan-serve ----------------------------------------------------------

// serveOp is one generated wan-serve operation.
type serveOp struct {
	kind int // opGet, opPut or opDelete
	key  int // index into the client's key set
	node topology.NodeID
	data []byte // opPut: the new value
}

const (
	opGet = iota
	opPut
	opDelete
)

var opNames = [...]string{"datagrid.get", "datagrid.put", "datagrid.delete"}

// zipfExponent skews wan-serve key popularity: with 32 keys per
// client the hottest key draws about 12% of the ops and the hottest
// quarter about half. A steeper skew would let one key's fate (say, a
// size the SAN reorder defect hits) swing a whole run.
const zipfExponent = 0.6

// Cores to cut for a partition of site2 on grid.DegradingWAN.
var site2Cores = []string{"core:vthd:site0+site2", "core:vthd:site1+site2"}

// wanServe: three sites of two nodes over a WAN whose site0-site1 core
// collapses at grid.DegradeAt, before the op stream starts; durable
// pack engines, the weather service, a
// failure detector wired to membership, and a telemetry hub with the
// SLO monitor and the 250 ms sampler (tracing off). Set-up preloads a
// working set of 8 KiB-1 MiB objects. Each client owns its keys and
// issues a Zipf-skewed mix from nodes of site0 and site1: ~88% Get
// (byte-checked against the last acknowledged write), ~10% overwrite
// Put and ~2% Delete. Client 0 partitions site2 and heals it at seeded
// positions of its stream.
func wanServe(g *gen, pr params) *instance {
	n, nk := pr.ops, pr.keys
	var keys [2][]string
	var init [2][][]byte
	var ops [2][]serveOp
	popularity := newZipf(nk, zipfExponent)
	for c := range keys {
		sizes := g.rankSizes(nk, 8<<10, 1<<20)
		exists := make([]bool, nk)
		for k, s := range sizes {
			keys[c] = append(keys[c], g.key(fmt.Sprintf("serve%d", c)))
			init[c] = append(init[c], g.payload(s))
			exists[k] = true
		}
		// Stratified draws: each key gets its Zipf share of the ops, and
		// the get/put/delete mix its exact proportions.
		hits, kinds := g.uniforms(n), g.uniforms(n)
		for i := 0; i < n; i++ {
			k := popularity.rank(hits[i])
			o := serveOp{key: k, node: topology.NodeID(g.intn(4))} // nodes of site0 and site1
			switch u := kinds[i]; {
			case !exists[k] || (u >= 0.02 && u < 0.12):
				o.kind = opPut
				o.data = g.payload(sizes[k])
				exists[k] = true
			case u < 0.02:
				o.kind = opDelete
				exists[k] = false
			default:
				o.kind = opGet
			}
			ops[c] = append(ops[c], o)
		}
	}
	cut := n/5 + g.intn(n/5+1)        // partition before this op of client 0
	heal := cut + n/5 + g.intn(n/5+1) // and heal before this one
	return &instance{digest: g.h, ops: 2 * n, run: func(rc *roundCtx) error {
		dir, err := os.MkdirTemp("", "gridbench-packs-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		tb := grid.DegradingWAN(2)
		h := rc.attach(tb, true)
		tb.EnableWeather(weather.Config{})
		dg := tb.NewPackDataGrid(dir, store.PackConfig{}, datagrid.Config{
			Replicas: 2, Streams: 4, RepairInterval: time.Second, InjectFault: pr.inject,
		})
		inj := faults.NewInjector(tb)
		var cutAt, detectAt vtime.Time
		faults.NewDetector(inj, 500*time.Millisecond, func(node topology.NodeID, down bool) {
			if down {
				if detectAt == 0 {
					detectAt = tb.K.Now()
				}
				dg.MarkDown(node)
				dg.RemoveMember(node)
				return
			}
			dg.MarkUp(node)
			dg.AddMember(node, tb.Topo.Node(node).Site)
		}).Start()
		mon := telemetry.NewSLOMonitor(h, 0, bench.SLOObjectives()...)
		mon.Start()
		smp := h.StartSampler(250 * time.Millisecond)
		lastPut := [2]map[int]int64{{}, {}}
		verify := func() {
			for c := range lastPut {
				for k, id := range lastPut[c] {
					if err := dg.VerifyReplicas(keys[c][k]); err != nil {
						rc.failOp(id, err.Error())
					}
				}
			}
		}
		var setupErr error
		runErr := tb.K.Run(func(p *vtime.Proc) {
			// Preload the working set: both clients concurrently, from
			// their home nodes. A failed preload leaves the key absent.
			var cur [2][][]byte
			closedLoop(p, 2, func(q *vtime.Proc, c int) {
				cur[c] = make([][]byte, nk)
				for k := range keys[c] {
					if dg.Put(q, topology.NodeID(2*c), keys[c][k], init[c][k]) == nil {
						cur[c][k] = init[c][k]
					}
				}
			})
			dg.WaitSettled(p)
			// Serve on the collapsed fabric: the op stream starts once the
			// site0-site1 core has degraded, so every instance meets the
			// same WAN and the weather service has to route around it.
			if at := vtime.Time(0).Add(grid.DegradeAt); p.Now() < at {
				p.Sleep(at.Sub(p.Now()))
			}
			if setupErr = rc.beginTimed(p); setupErr != nil {
				return
			}
			closedLoop(p, 2, func(q *vtime.Proc, c int) {
				for i, o := range ops[c] {
					if c == 0 && i == cut {
						cutAt = q.Now()
						inj.PartitionSite("site2", site2Cores...)
					}
					if c == 0 && i == heal {
						inj.HealSite("site2", site2Cores...)
					}
					key := keys[c][o.key]
					var size int64
					switch o.kind {
					case opGet:
						size = int64(len(cur[c][o.key]))
					case opPut:
						size = int64(len(o.data))
					}
					rc.op(q, c, opNames[o.kind], size, func(id int64) error {
						switch o.kind {
						case opPut:
							if err := dg.Put(q, o.node, key, o.data); err != nil {
								return err
							}
							cur[c][o.key] = o.data
							lastPut[c][o.key] = id
						case opDelete:
							if err := dg.Delete(q, key); err != nil {
								return err
							}
							cur[c][o.key] = nil
							delete(lastPut[c], o.key)
						default:
							got, err := dg.Get(q, o.node, key)
							if err != nil {
								return err
							}
							v0, h0 := q.Now(), time.Now()
							same := bytes.Equal(got, cur[c][o.key])
							rc.child(id, "verify", "datagrid.get", c, v0, h0, q)
							if !same {
								return errMismatch
							}
						}
						return nil
					})
				}
			})
			// Gets verify on return; the goodput interval ends with the
			// op stream, and the settle below closes the timed phase.
			rc.opsDone(p)
			rc.phase(p, "datagrid.wait_settled", func() {
				dg.WaitSettled(p)
				dg.RepairNow(p)
				dg.WaitSettled(p)
			})
			verify()
			rc.endTimed(p)
		})
		runErr = rc.finish(tb.K, runErr, setupErr, verify)
		rc.extra = map[string]float64{
			"telemetry.sampler_scrapes": float64(smp.Scrapes()),
		}
		if detectAt > cutAt && cutAt > 0 {
			rc.extra["faults.detect_ms"] = float64(detectAt.Sub(cutAt)) / 1e6
			rc.extra["faults.detections"] = 1
		}
		for _, st := range mon.Status() {
			rc.extra["telemetry.slo_breaches"] += float64(st.Breaches)
		}
		closeErr := dg.Close()
		return firstErr(runErr, closeErr)
	}}
}

func boolU32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
