// Package bench regenerates every table and figure of the paper's
// evaluation (§5) on the simulated testbed: Figure 3 (bandwidth vs
// message size over Myrinet-2000 per middleware), Table 1 (one-way
// latency and peak bandwidth), the MadIO overhead claim, the VTHD WAN
// parallel-streams experiment, and the VRP lossy-link experiment, plus
// the ablations DESIGN.md calls out and the later data-grid, weather,
// store, telemetry, SLO, failure and time-series workloads. Every one
// is an entry of the scenario registry (Scenarios, registry.go), which
// cmd/padico-bench runs and determinism_test.go pins; bench_test.go
// and gridbench call the workload functions directly.
package bench

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"padico/internal/datagrid"
	"padico/internal/faults"
	"padico/internal/grid"
	"padico/internal/group"
	"padico/internal/madapi"
	"padico/internal/mpi"
	"padico/internal/netsim"
	"padico/internal/orb"
	"padico/internal/personality"
	"padico/internal/rmi"
	"padico/internal/selector"
	"padico/internal/session"
	"padico/internal/store"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vrp"
	"padico/internal/vtime"
	"padico/internal/weather"
)

// Fig3Sizes are the message sizes of the figure's x-axis.
var Fig3Sizes = []int{32, 256, 1 << 10, 8 << 10, 32 << 10, 256 << 10, 1 << 20}

// Point is one (size, bandwidth) sample.
type Point struct {
	Size int
	MBps float64
}

// Series is one curve of Figure 3.
type Series struct {
	Name   string
	Points []Point
}

// Row is one column of Table 1.
type Row struct {
	Name     string
	OnewayUS float64 `prec:"2"` // one-way latency, µs
	PeakMBps float64 `prec:"1"` // bandwidth at 1 MB
}

// ---------------------------------------------------------------------
// Middleware stacks on a 2-node Myrinet cluster.

// stack abstracts "send size bytes, get a small ack" for the bandwidth
// and latency protocol of the paper's tests.
type stack interface {
	// xfer performs one size-byte exchange acknowledged by the peer and
	// returns nothing; timing happens outside.
	xfer(p *vtime.Proc, size int)
}

// Runner builds a middleware stack inside a fresh simulation and
// measures exchange timings on it.
type Runner struct {
	g     *grid.Grid
	build func(p *vtime.Proc) stack
}

// measure builds the stack inside the simulation and times reps
// exchanges of size bytes; it returns the mean one-way-ish exchange
// time and the implied bandwidth.
// Measure is exported for bench_test ablations.
func (r *Runner) measure(size, reps int) (time.Duration, float64) {
	var per time.Duration
	err := r.g.K.Run(func(p *vtime.Proc) {
		s := r.build(p)
		s.xfer(p, size) // warm-up (connection setup, allocations)
		start := p.Now()
		for i := 0; i < reps; i++ {
			s.xfer(p, size)
		}
		per = p.Now().Sub(start) / time.Duration(reps)
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return per, float64(size) / per.Seconds() / 1e6
}

// --- MPI (MPICH/Madeleine in PadicoTM) ---

type mpiStack struct {
	c0, c1 *mpi.Comm
	ack    []byte
}

func (s *mpiStack) xfer(p *vtime.Proc, size int) {
	buf := make([]byte, size)
	done := vtime.NewWaitGroup("x")
	done.Add(1)
	p.Kernel().Go("peer", func(q *vtime.Proc) {
		rb := make([]byte, size)
		s.c1.Recv(q, 0, 7, rb)
		s.c1.Send(q, 0, 8, s.ack)
		done.Done()
	})
	s.c0.Send(p, 1, 7, buf)
	s.c0.Recv(p, 1, 8, make([]byte, 1))
	done.Wait(p)
}

// MPIPadico builds MPI over the virtual-Madeleine personality on a
// Circuit (the in-PadicoTM configuration).
func MPIPadico() *Runner {
	g := grid.Cluster(2)
	return &Runner{g: g, build: func(p *vtime.Proc) stack {
		circs, err := g.NewCircuits(p, "mpi", []topology.NodeID{0, 1})
		if err != nil {
			panic(err)
		}
		c0 := mpi.New(g.K, personality.NewVMad(g.K, circs[0]))
		c1 := mpi.New(g.K, personality.NewVMad(g.K, circs[1]))
		return &mpiStack{c0: c0, c1: c1, ack: []byte{1}}
	}}
}

// --- ORB profiles over the madio VLink driver ---

type orbStack struct {
	ref *orb.ObjectRef
}

func (s *orbStack) xfer(p *vtime.Proc, size int) {
	args := orb.NewEncoder()
	args.PutBytes(make([]byte, size))
	if _, err := s.ref.Invoke(p, "sink", args); err != nil {
		panic(err)
	}
}

// ORBOnMyrinet builds a CORBA client/server pair with the given profile
// over the Myrinet madio driver.
func ORBOnMyrinet(profile orb.Profile) *Runner {
	g := grid.Cluster(2)
	return &Runner{g: g, build: func(p *vtime.Proc) stack {
		server := orb.New(g.K, g.RT[1].VLink, profile, "madio", 5000)
		server.RegisterServant("bench", orb.Servant{
			"sink": func(q *vtime.Proc, args *orb.Decoder, reply *orb.Encoder) error {
				args.Bytes()
				reply.PutU32(1)
				return nil
			},
		})
		if err := server.Activate(); err != nil {
			panic(err)
		}
		client := orb.New(g.K, g.RT[0].VLink, profile, "madio", 5001)
		ref, err := client.Resolve(server.IOR("bench"))
		if err != nil {
			panic(err)
		}
		return &orbStack{ref: ref}
	}}
}

// --- Java sockets ---

type javaStack struct {
	a, b *rmi.JavaSocket
}

func (s *javaStack) xfer(p *vtime.Proc, size int) {
	done := vtime.NewWaitGroup("x")
	done.Add(1)
	p.Kernel().Go("peer", func(q *vtime.Proc) {
		buf := make([]byte, size)
		s.b.ReadFull(q, buf)
		s.b.Write(q, []byte{1})
		done.Done()
	})
	s.a.Write(p, make([]byte, size))
	s.a.ReadFull(p, make([]byte, 1))
	done.Wait(p)
}

// JavaOnMyrinet builds a Java-socket pair over the madio driver.
func JavaOnMyrinet() *Runner {
	g := grid.Cluster(2)
	return &Runner{g: g, build: func(p *vtime.Proc) stack {
		ln, err := g.RT[1].VLink.Listen("madio", 5000)
		if err != nil {
			panic(err)
		}
		acc := vtime.NewQueue[*vlink.VLink]("acc")
		ln.SetAcceptHandler(func(v *vlink.VLink) { acc.Push(v) })
		va, err := g.RT[0].VLink.ConnectWait(p, "madio", vlink.Addr{Node: 1, Port: 5000})
		if err != nil {
			panic(err)
		}
		vb := acc.Pop(p)
		return &javaStack{a: rmi.NewJavaSocket(g.K, va), b: rmi.NewJavaSocket(g.K, vb)}
	}}
}

// --- Raw abstract interfaces (Table 1's Circuit and VLink rows) ---

type vlinkStack struct{ a, b *vlink.VLink }

func (s *vlinkStack) xfer(p *vtime.Proc, size int) {
	done := vtime.NewWaitGroup("x")
	done.Add(1)
	p.Kernel().Go("peer", func(q *vtime.Proc) {
		buf := make([]byte, size)
		s.b.ReadFull(q, buf)
		s.b.Write(q, []byte{1})
		done.Done()
	})
	s.a.Write(p, make([]byte, size))
	s.a.ReadFull(p, make([]byte, 1))
	done.Wait(p)
}

// VLinkOnMyrinet measures the bare VLink abstract interface.
func VLinkOnMyrinet() *Runner {
	g := grid.Cluster(2)
	return &Runner{g: g, build: func(p *vtime.Proc) stack {
		ln, err := g.RT[1].VLink.Listen("madio", 5000)
		if err != nil {
			panic(err)
		}
		acc := vtime.NewQueue[*vlink.VLink]("acc")
		ln.SetAcceptHandler(func(v *vlink.VLink) { acc.Push(v) })
		va, err := g.RT[0].VLink.ConnectWait(p, "madio", vlink.Addr{Node: 1, Port: 5000})
		if err != nil {
			panic(err)
		}
		return &vlinkStack{a: va, b: acc.Pop(p)}
	}}
}

type circuitStack struct {
	c0, c1 madapi.Channel
}

func (s *circuitStack) xfer(p *vtime.Proc, size int) {
	done := vtime.NewWaitGroup("x")
	done.Add(1)
	p.Kernel().Go("peer", func(q *vtime.Proc) {
		in := s.c1.BeginUnpacking(q)
		in.Unpack(size, madapi.ReceiveCheaper)
		in.EndUnpacking()
		out := s.c1.BeginPacking(0)
		out.Pack([]byte{1}, madapi.SendSafer)
		out.EndPacking()
		done.Done()
	})
	out := s.c0.BeginPacking(1)
	out.Pack(make([]byte, size), madapi.SendLater)
	out.EndPacking()
	in := s.c0.BeginUnpacking(p)
	in.Unpack(1, madapi.ReceiveCheaper)
	in.EndUnpacking()
	done.Wait(p)
}

// CircuitOnMyrinet measures the bare Circuit abstract interface.
func CircuitOnMyrinet() *Runner {
	g := grid.Cluster(2)
	return &Runner{g: g, build: func(p *vtime.Proc) stack {
		circs, err := g.NewCircuits(p, "bench", []topology.NodeID{0, 1})
		if err != nil {
			panic(err)
		}
		return &circuitStack{c0: circs[0], c1: circs[1]}
	}}
}

// ---------------------------------------------------------------------
// Figure 3.

// Fig3 produces every curve of Figure 3 (plus the Ethernet TCP
// reference). Each point runs on a fresh simulation for isolation.
func Fig3() []Series {
	mk := func(name string, build func() *Runner) Series {
		s := Series{Name: name}
		for _, size := range Fig3Sizes {
			reps := 8
			if size <= 1024 {
				reps = 64
			}
			_, mbps := build().measure(size, reps)
			s.Points = append(s.Points, Point{Size: size, MBps: mbps})
		}
		return s
	}
	out := []Series{
		mk("omniORB-3.0.2/Myrinet-2000", func() *Runner { return ORBOnMyrinet(orb.OmniORB3) }),
		mk("omniORB-4.0.0/Myrinet-2000", func() *Runner { return ORBOnMyrinet(orb.OmniORB4) }),
		mk("Mico-2.3.7/Myrinet-2000", func() *Runner { return ORBOnMyrinet(orb.Mico) }),
		mk("ORBacus-4.0.5/Myrinet-2000", func() *Runner { return ORBOnMyrinet(orb.ORBacus) }),
		mk("MPICH/Myrinet-2000", MPIPadico),
		mk("Java socket/Myrinet-2000", JavaOnMyrinet),
	}
	out = append(out, ethernetReference())
	return out
}

// ethernetReference is the "TCP/Ethernet-100 (reference)" curve.
func ethernetReference() Series {
	s := Series{Name: "TCP/Ethernet-100 (reference)"}
	for _, size := range Fig3Sizes {
		s.Points = append(s.Points, Point{Size: size, MBps: tcpEthernet(size)})
	}
	return s
}

func tcpEthernet(size int) float64 {
	g := grid.Cluster(2)
	var mbps float64
	err := g.K.Run(func(p *vtime.Proc) {
		ln, _ := g.Stack.Host(1).Listen(80)
		done := vtime.NewWaitGroup("done")
		done.Add(1)
		reps := 4
		if size <= 1024 {
			reps = 32
		}
		g.K.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			c, _ := ln.Accept(q)
			buf := make([]byte, 64<<10)
			for i := 0; i < reps; i++ {
				total := 0
				for total < size {
					n, err := c.Read(q, buf)
					total += n
					if err != nil {
						return
					}
				}
				c.Write(q, []byte{1})
			}
		})
		c, err := g.Stack.Host(0).Dial(p, 1, 80)
		if err != nil {
			panic(err)
		}
		payload := make([]byte, size)
		c.Write(p, payload) // warm-up is folded in: first exchange grows cwnd
		c.ReadFull(p, make([]byte, 1))
		start := p.Now()
		for i := 0; i < reps-1; i++ {
			c.Write(p, payload)
			c.ReadFull(p, make([]byte, 1))
		}
		per := p.Now().Sub(start) / time.Duration(reps-1)
		mbps = float64(size) / per.Seconds() / 1e6
		done.Wait(p)
	})
	if err != nil {
		panic(err)
	}
	return mbps
}

// ---------------------------------------------------------------------
// Table 1.

// Table1 reproduces the latency/bandwidth table. Each measurement runs
// on a fresh runner (and kernel) for isolation.
func Table1() []Row {
	mk := func(name string, build func() *Runner) Row {
		lat, _ := build().measure(1, 256)
		_, bw := build().measure(1<<20, 16)
		return Row{Name: name, OnewayUS: float64(lat.Nanoseconds()) / 2 / 1e3, PeakMBps: bw}
	}
	orbOn := func(p orb.Profile) func() *Runner { return func() *Runner { return ORBOnMyrinet(p) } }
	return []Row{
		mk("Circuit", CircuitOnMyrinet),
		mk("VLink", VLinkOnMyrinet),
		mk("MPICH", MPIPadico),
		mk("omniORB 3", orbOn(orb.OmniORB3)),
		mk("omniORB 4", orbOn(orb.OmniORB4)),
		mk("Java sockets", JavaOnMyrinet),
		mk("Mico", orbOn(orb.Mico)),
		mk("ORBacus", orbOn(orb.ORBacus)),
	}
}

// ---------------------------------------------------------------------
// §5 ¶3: overheads.

// OverheadResult reports the two overhead claims.
type OverheadResult struct {
	MadIOCombinedUS float64 `prec:"3"` // MadIO-over-Madeleine one-way overhead, µs
	MadIOSeparateUS float64 `prec:"3"` // same without header combining (ablation)
	MPIPadicoUS     float64 `prec:"2"` // MPI one-way inside PadicoTM
	MPIDirectUS     float64 `prec:"2"` // MPI one-way directly over a Circuit channel
}

// Overhead measures the §4.1/§5 overhead claims.
func Overhead() OverheadResult {
	var res OverheadResult
	res.MadIOCombinedUS = rawMadIOLatency(grid.Cluster(2), true) - madeleineBaselineUS
	res.MadIOSeparateUS = rawMadIOLatency(grid.Cluster(2), false) - madeleineBaselineUS
	lat, _ := MPIPadico().measure(1, 256)
	res.MPIPadicoUS = float64(lat.Nanoseconds()) / 2 / 1e3
	lat2, _ := mpiDirect().measure(1, 256)
	res.MPIDirectUS = float64(lat2.Nanoseconds()) / 2 / 1e3
	return res
}

// madeleineBaselineUS is the measured Madeleine/GM one-way latency in
// µs (see madeleine tests: GM 5.7 incl framing + 2×1.25 Madeleine).
const madeleineBaselineUS = 8.28

// rawMadIOLatency measures ping-pong directly at the MadIO layer: a
// raw VLink on the madio driver would add VLink costs to the figure.
func rawMadIOLatency(g *grid.Grid, combining bool) float64 {
	// The grid builder wires MadIO with combining; for the ablation we
	// wire the second hardware channel without it.
	myri := g.Topo.Networks()[0]
	m0 := g.RT[0].MadIO[myri]
	m1 := g.RT[1].MadIO[myri]
	if !combining {
		m0, m1 = grid.RewireMadIONoCombining(g, 0, 1)
	}
	var oneway time.Duration
	err := g.K.Run(func(p *vtime.Proc) {
		pong := vtime.NewQueue[struct{}]("pong")
		m1.Register(900, func(q *vtime.Proc, src int, in madapi.InMessage) {
			in.Unpack(1, madapi.ReceiveCheaper)
			in.EndUnpacking()
			m1.Send(src, 900, []byte{1})
		})
		m0.Register(900, func(q *vtime.Proc, src int, in madapi.InMessage) {
			in.Unpack(1, madapi.ReceiveCheaper)
			in.EndUnpacking()
			pong.Push(struct{}{})
		})
		const rounds = 256
		start := p.Now()
		for i := 0; i < rounds; i++ {
			m0.Send(1, 900, []byte{1})
			pong.Pop(p)
		}
		oneway = p.Now().Sub(start) / (2 * rounds)
	})
	if err != nil {
		panic(err)
	}
	return float64(oneway.Nanoseconds()) / 1e3
}

// mpiDirect builds MPI straight over a Circuit (no personality) — the
// "standalone MPICH" comparator.
func mpiDirect() *Runner {
	g := grid.Cluster(2)
	return &Runner{g: g, build: func(p *vtime.Proc) stack {
		circs, err := g.NewCircuits(p, "mpi-direct", []topology.NodeID{0, 1})
		if err != nil {
			panic(err)
		}
		return &mpiStack{
			c0: mpi.New(g.K, circs[0]), c1: mpi.New(g.K, circs[1]), ack: []byte{1},
		}
	}}
}

// ---------------------------------------------------------------------
// §5 ¶4: VTHD WAN.

// WANResult is the VTHD experiment outcome.
type WANResult struct {
	SingleMBps  float64 `prec:"1"`
	StripedMBps float64 `prec:"1"`
	Streams     int
}

// WAN measures one TCP stream vs parallel streams across the VTHD-like
// WAN.
func WAN() WANResult {
	return WANResult{
		SingleMBps:  wanRate(selector.Decision{Method: "sysio", Streams: 1}, 8<<20),
		StripedMBps: wanRate(selector.Decision{Method: "pstreams", Streams: 4}, 16<<20),
		Streams:     4,
	}
}

func wanRate(dec selector.Decision, size int) float64 {
	g := grid.TwoClusterWAN(1, 1)
	var rate float64
	err := g.K.Run(func(p *vtime.Proc) {
		la, lb, err := g.DialVLinkWith(p, 0, 1, dec)
		if err != nil {
			panic(err)
		}
		done := vtime.NewWaitGroup("done")
		done.Add(1)
		var end vtime.Time
		g.K.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			buf := make([]byte, 64<<10)
			total := 0
			for total < size {
				n, err := lb.Read(q, buf)
				total += n
				if err != nil {
					if err != io.EOF {
						panic(err)
					}
					break
				}
			}
			end = q.Now()
		})
		start := p.Now()
		chunk := make([]byte, 256<<10)
		sent := 0
		for sent < size {
			n := size - sent
			if n > len(chunk) {
				n = len(chunk)
			}
			la.Write(p, chunk[:n])
			sent += n
		}
		done.Wait(p)
		rate = float64(size) / end.Sub(start).Seconds() / 1e6
	})
	if err != nil {
		panic(err)
	}
	return rate
}

// ---------------------------------------------------------------------
// §5 ¶5: VRP on the lossy link.

// VRPResult is the lossy-link experiment outcome.
type VRPResult struct {
	TCPKBps     float64
	VRPKBps     float64
	SkippedFrac float64 `prec:"3"`
	Tolerance   float64 `prec:"2"`
}

// VRPBench measures plain TCP vs VRP with 10% tolerance on the
// trans-continental lossy link.
func VRPBench() VRPResult {
	res := VRPResult{Tolerance: 0.10}

	g := grid.LossyPair()
	size := 512 << 10
	err := g.K.Run(func(p *vtime.Proc) {
		la, lb, err := g.DialVLinkWith(p, 0, 1, selector.Decision{Method: "sysio", Streams: 1})
		if err != nil {
			panic(err)
		}
		done := vtime.NewWaitGroup("done")
		done.Add(1)
		var end vtime.Time
		g.K.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			buf := make([]byte, 64<<10)
			total := 0
			for total < size {
				n, err := lb.Read(q, buf)
				total += n
				if err != nil {
					break
				}
			}
			end = q.Now()
		})
		start := p.Now()
		payload := make([]byte, size)
		rand.New(rand.NewSource(1)).Read(payload)
		la.Write(p, payload)
		done.Wait(p)
		res.TCPKBps = float64(size) / end.Sub(start).Seconds() / 1e3
	})
	if err != nil {
		panic(err)
	}

	g2 := grid.LossyPair()
	err = g2.K.Run(func(p *vtime.Proc) {
		ua, _ := g2.Stack.Host(0).ListenUDP(7000)
		ub, _ := g2.Stack.Host(1).ListenUDP(7001)
		sender := vrp.New(g2.K, ua, 1, 7001, res.Tolerance, 600e3)
		recv := vrp.New(g2.K, ub, 0, 7000, res.Tolerance, 600e3)
		payload := make([]byte, 1200)
		nmsgs := size / len(payload)
		start := p.Now()
		for i := 0; i < nmsgs; i++ {
			sender.Send(payload)
		}
		received := 0
		for {
			if _, ok := recv.RecvTimeout(p, 2*time.Second); !ok {
				break
			}
			received++
		}
		elapsed := p.Now().Sub(start).Seconds() - 2
		res.VRPKBps = float64(received*len(payload)) / elapsed / 1e3
		res.SkippedFrac = float64(sender.Stats().Skipped) / float64(nmsgs)
	})
	if err != nil {
		panic(err)
	}
	return res
}

// Measure times reps exchanges of size bytes on a Runner and returns
// the per-exchange duration and implied bandwidth in MB/s.
func Measure(r *Runner, size, reps int) (time.Duration, float64) {
	return r.measure(size, reps)
}

// ---------------------------------------------------------------------
// Hot-path micro-workloads. These are the wall-clock benchmarks of the
// zero-copy segment path: virtual-time results must stay bit-identical
// across buffer-management changes (see determinism_test.go), while
// allocs/op and wall-clock per op are what the optimisation moves.

// TCPBulkSize is the payload of one TCPBulk run.
const TCPBulkSize = 8 << 20

// TCPBulk pushes TCPBulkSize bytes through one raw TCP connection
// across the VTHD-like WAN (no VLink on top, so it isolates the
// ipstack segment path) and returns the virtual bandwidth in MB/s.
func TCPBulk() float64 {
	g := grid.TwoClusterWAN(1, 1)
	var rate float64
	err := g.K.Run(func(p *vtime.Proc) {
		ln, _ := g.Stack.Host(1).Listen(80)
		done := vtime.NewWaitGroup("done")
		done.Add(1)
		var end vtime.Time
		g.K.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			c, _ := ln.Accept(q)
			buf := make([]byte, 64<<10)
			total := 0
			for total < TCPBulkSize {
				n, err := c.Read(q, buf)
				total += n
				if err != nil {
					return
				}
			}
			end = q.Now()
		})
		c, err := g.Stack.Host(0).Dial(p, 1, 80)
		if err != nil {
			panic(err)
		}
		start := p.Now()
		chunk := make([]byte, 256<<10)
		sent := 0
		for sent < TCPBulkSize {
			n := TCPBulkSize - sent
			if n > len(chunk) {
				n = len(chunk)
			}
			c.Write(p, chunk[:n])
			sent += n
		}
		done.Wait(p)
		rate = float64(TCPBulkSize) / end.Sub(start).Seconds() / 1e6
	})
	if err != nil {
		panic(err)
	}
	return rate
}

// DataGridWallClock is one flat replica-3 striped datagrid run — the
// single configuration tracked by BenchmarkDataGridWallClock and
// BENCH_4.json.
func DataGridWallClock() DataGridResult {
	r, _ := dataGridRun(4, 3, false, false)
	return r
}

// ---------------------------------------------------------------------
// Network weather: adaptive vs static on a degrading WAN.

// WeatherResult is one row of the adaptive-vs-static table on the
// grid.DegradingWAN testbed.
type WeatherResult struct {
	// Adaptive marks the run with weather monitoring + adaptation on
	// (weather.Service + selector oracle + adaptive sessions +
	// forecast-ranked GET sources). The static run sees the *same*
	// fabric degradation with none of the adaptation.
	Adaptive bool
	// MakespanS is the whole workload's virtual time.
	MakespanS float64 `prec:"2"`
	// StreamS is the completion time of the bulk stream that crosses
	// the degrade instant (the re-selection showcase).
	StreamS float64 `prec:"2"`
	// GetS is the post-degrade GET phase duration (the source-switch
	// showcase).
	GetS float64 `prec:"2"`
	// DegradedLinkMB counts bytes serialized onto the degraded
	// site0-site1 core — the currency adaptation saves.
	DegradedLinkMB float64 `prec:"1"`
	// Adaptation events.
	SourceSwitches, Reselects, Resumes int64
}

// Weather workload shape.
const (
	WeatherObjects    = 4
	WeatherObjectSize = 4 << 20
	WeatherStreamSize = 6 << 20
	WeatherGetRounds  = 2
)

// weatherPayload is compressible (a repeated pseudo-random block):
// AdOC on a degraded link is one of the adaptations under test.
func weatherPayload(size int) []byte {
	block := make([]byte, 512)
	rand.New(rand.NewSource(97)).Read(block)
	return bytes.Repeat(block, size/len(block))
}

// WeatherBench runs the degrading-WAN workload twice — static
// selection, then full adaptation — and reports both rows.
func WeatherBench() []WeatherResult {
	st, _ := weatherRun(false, false)
	ad, _ := weatherRun(true, false)
	return []WeatherResult{st, ad}
}

// weatherRun is one degrading-WAN workload: ingest before the degrade,
// a bulk stream across it, GETs after it. Everything is deterministic;
// the two runs differ only in whether anything adapts. When traced, a
// telemetry hub is attached (tracing on) before any layer is built, so
// spans from the whole stack land in it; tracing adds a context to
// wire headers, so traced and untraced virtual times differ.
func weatherRun(adaptive, traced bool) (WeatherResult, *telemetry.Hub) {
	g := grid.DegradingWAN(2) // site0 {0,1}, site1 {2,3}, site2 {4,5}
	var h *telemetry.Hub
	if traced {
		h = g.Telemetry()
		h.EnableTracing()
	}
	if adaptive {
		g.EnableWeather(weather.Config{})
	}
	dg := g.NewDataGrid(datagrid.Config{Replicas: 2, Streams: 4, Adaptive: adaptive})
	// Placement on the two remote sites only: every GET from site0 has
	// a choice of remote source, which is exactly what the forecast
	// ranking decides.
	placeOn(g, dg, 2, 3, 4, 5)

	res := WeatherResult{Adaptive: adaptive}
	data := weatherPayload(WeatherObjectSize)
	err := g.K.Run(func(p *vtime.Proc) {
		// Phase 1 (healthy): ingest + replication from site0 clients.
		for i := 0; i < WeatherObjects; i++ {
			if err := dg.Put(p, topology.NodeID(i%2), fmt.Sprintf("w-%d", i), data); err != nil {
				panic(err)
			}
		}
		dg.WaitSettled(p)

		// Bulk stream that crosses the degrade instant: start shortly
		// before, so half of it rides the degraded link (static) or a
		// re-selected stack (adaptive).
		streamStart := vtime.Time(0).Add(grid.DegradeAt - 200*time.Millisecond)
		if p.Now() >= streamStart {
			panic("bench: weather ingest ran past the degrade instant")
		}
		p.Sleep(streamStart.Sub(p.Now()))
		var opts []session.Option
		if adaptive {
			opts = append(opts, session.WithAdaptive())
		}
		ch, err := g.Open(p, 0, 2, opts...)
		if err != nil {
			panic(err)
		}
		payload := weatherPayload(WeatherStreamSize)
		done := vtime.NewWaitGroup("weather:stream")
		done.Add(1)
		g.K.Go("weather:sink", func(q *vtime.Proc) {
			defer done.Done()
			buf := make([]byte, len(payload))
			if _, err := ch.Remote().ReadFull(q, buf); err != nil {
				panic(err)
			}
			if !bytes.Equal(buf, payload) {
				panic("bench: weather stream corrupted")
			}
		})
		const chunk = 128 << 10
		for off := 0; off < len(payload); off += chunk {
			end := off + chunk
			if end > len(payload) {
				end = len(payload)
			}
			if _, err := ch.Write(p, payload[off:end]); err != nil {
				panic(err)
			}
		}
		done.Wait(p)
		res.StreamS = p.Now().Sub(streamStart).Seconds()
		ch.Close()
		ch.Remote().Close()

		// Let the forecasts converge on the new conditions (the static
		// run sleeps identically — same phase boundaries).
		settle := vtime.Time(0).Add(grid.DegradeAt + 2*time.Second)
		if p.Now() < settle {
			p.Sleep(settle.Sub(p.Now()))
		}

		// Phase 2 (degraded): GETs from site0; every object has one
		// replica behind the degraded link and one behind a healthy
		// one.
		getStart := p.Now()
		for r := 0; r < WeatherGetRounds; r++ {
			for i := 0; i < WeatherObjects; i++ {
				got, err := dg.Get(p, topology.NodeID(i%2), fmt.Sprintf("w-%d", i))
				if err != nil {
					panic(err)
				}
				if !bytes.Equal(got, data) {
					panic("bench: weather GET corrupted")
				}
			}
		}
		res.GetS = p.Now().Sub(getStart).Seconds()
		res.MakespanS = p.Now().Seconds()
	})
	if err != nil {
		panic(fmt.Sprintf("bench: weather: %v", err))
	}
	res.DegradedLinkMB = float64(g.CoreHop(grid.DegradedCore).Bytes) / 1e6
	res.SourceSwitches = dg.Stats().SourceSwitches
	res.Reselects = g.Session().Stats().Reselects
	res.Resumes = g.Session().Stats().Resumes
	return res, h
}

// ---------------------------------------------------------------------
// Data grid: striped bulk replication across the WAN (extension; the
// heavy-traffic workload the paper's crossroads argument points at).

// DataGridResult is the outcome of one data-grid configuration on the
// lossy two-cluster WAN testbed.
type DataGridResult struct {
	Streams  int
	Replicas int
	// Hierarchical marks runs whose Put fan-out rode group.Multicast
	// over the two-tier spanning tree instead of point-to-point jobs.
	Hierarchical bool
	// IngestMBps is the aggregate client->first-replica PUT rate.
	IngestMBps float64 `prec:"1"`
	// ConvergeS is the virtual time from the last PUT returning until
	// every object reached its full replica set.
	ConvergeS float64 `prec:"2"`
	// WANMB is the total wide-area traffic of the run, both directions.
	WANMB float64 `prec:"1"`
	// CircuitJobs / VLinkJobs split transfers by paradigm; GroupJobs
	// counts replication fan-outs served by one hierarchical multicast.
	CircuitJobs int64
	VLinkJobs   int64
	GroupJobs   int64
}

// DataGridSizes: objects per run and bytes per object.
const (
	DataGridObjects    = 4
	DataGridObjectSize = 4 << 20
	DataGridWANLoss    = 0.01
)

// DataGridBench measures aggregate ingest throughput and replication
// convergence versus stripe count and replica factor on a two-cluster
// WAN with isolated loss.
func DataGridBench() []DataGridResult {
	var out []DataGridResult
	for _, cfg := range []struct{ streams, replicas int }{
		{1, 2}, {4, 2}, {4, 3},
	} {
		r, _ := dataGridRun(cfg.streams, cfg.replicas, false, false)
		out = append(out, r)
	}
	return out
}

// GroupBench is the flat-vs-hierarchical fan-out experiment: the same
// replica-3 workload on the lossy two-cluster WAN, once with PR 2's
// point-to-point fan-out and once with group.Multicast over the
// two-tier spanning tree. With two of the three replicas landing in
// the remote site, the tree pays one WAN crossing per object where the
// flat fan-out pays two — strictly fewer WAN bytes and a lower
// convergence makespan, deterministically.
func GroupBench() []DataGridResult {
	flat, _ := dataGridRun(4, 3, false, false)
	hier, _ := dataGridRun(4, 3, true, false)
	return []DataGridResult{flat, hier}
}

// dataGridRun is one data-grid configuration, with an optional
// telemetry hub (attached before the data grid is built, tracing on).
func dataGridRun(streams, replicas int, hierarchical, traced bool) (DataGridResult, *telemetry.Hub) {
	g := grid.TwoClusterWANLoss(2, 2, DataGridWANLoss)
	var h *telemetry.Hub
	if traced {
		h = g.Telemetry()
		h.EnableTracing()
	}
	dg := g.NewDataGrid(datagrid.Config{Replicas: replicas, Streams: streams, Hierarchical: hierarchical})
	res := DataGridResult{Streams: streams, Replicas: replicas, Hierarchical: hierarchical}
	err := g.K.Run(func(p *vtime.Proc) {
		data := make([]byte, DataGridObjectSize)
		rand.New(rand.NewSource(42)).Read(data)
		start := p.Now()
		for i := 0; i < DataGridObjects; i++ {
			name := fmt.Sprintf("bench-%d", i)
			if err := dg.Put(p, topology.NodeID(i%4), name, data); err != nil {
				panic(err)
			}
		}
		putDone := p.Now()
		res.IngestMBps = float64(DataGridObjects*DataGridObjectSize) /
			putDone.Sub(start).Seconds() / 1e6
		dg.WaitSettled(p)
		res.ConvergeS = p.Now().Sub(putDone).Seconds()
		for i := 0; i < DataGridObjects; i++ {
			if err := dg.VerifyReplicas(fmt.Sprintf("bench-%d", i)); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		panic(fmt.Sprintf("bench: datagrid: %v", err))
	}
	res.CircuitJobs = dg.Stats().CircuitTransfers
	res.VLinkJobs = dg.Stats().VLinkTransfers
	res.GroupJobs = dg.Stats().GroupFanouts
	res.WANMB = float64(dg.Stats().WANBytes) / 1e6
	return res, h
}

// WeatherTrace runs both WeatherBench rows (static, adaptive) with
// span tracing and returns their concatenated Chrome trace JSON.
// Deterministic: byte-identical across runs.
func WeatherTrace() []byte {
	var out []byte
	for _, adaptive := range []bool{false, true} {
		_, h := weatherRun(adaptive, true)
		out = append(out, h.TraceJSON()...)
	}
	return out
}

// DataGridTrace runs the DataGridBench configurations plus the
// hierarchical fan-out row with span tracing and returns their
// concatenated Chrome trace JSON. Deterministic: byte-identical
// across runs.
func DataGridTrace() []byte {
	var out []byte
	for _, cfg := range []struct {
		streams, replicas int
		hier              bool
	}{
		{1, 2, false}, {4, 2, false}, {4, 3, false}, {4, 3, true},
	} {
		_, h := dataGridRun(cfg.streams, cfg.replicas, cfg.hier, true)
		out = append(out, h.TraceJSON()...)
	}
	return out
}

// ---------------------------------------------------------------------
// TraceRun: the full observability workload.

// TraceRun executes one fully observed degrading-WAN run: weather
// monitoring, an adaptive striped data grid with hierarchical fan-out,
// one explicit collective round (multicast + the three-wave barrier),
// and a bulk adaptive stream across the degrade instant, with span
// tracing on and a mid-run loss burst scheduled on the degraded core
// so the TCP recovery path appears in the trace too. It returns the
// hub; callers serialize the trace (Hub.WriteTrace) or snapshot the
// metrics registry from it. Deterministic: two runs yield
// byte-identical trace JSON.
func TraceRun() *telemetry.Hub {
	g := grid.DegradingWAN(2) // site0 {0,1}, site1 {2,3}, site2 {4,5}
	h := g.Telemetry()
	h.EnableTracing()
	g.EnableWeather(weather.Config{})
	hop := g.CoreHop(grid.DegradedCore)
	netsim.ScheduleLoss(g.K, vtime.Time(0).Add(2*time.Second), hop, 0.03)
	netsim.ScheduleLoss(g.K, vtime.Time(0).Add(4*time.Second), hop, 0)
	dg := g.NewDataGrid(datagrid.Config{Replicas: 3, Streams: 4, Adaptive: true, Hierarchical: true})
	placeOn(g, dg, 2, 3, 4, 5)
	data := weatherPayload(1 << 20)
	err := g.K.Run(func(p *vtime.Proc) {
		// Phase 1 (healthy, then through the loss burst): ingest with
		// hierarchical replication.
		for i := 0; i < 4; i++ {
			if err := dg.Put(p, topology.NodeID(i%2), fmt.Sprintf("t-%d", i), data); err != nil {
				panic(err)
			}
		}
		dg.WaitSettled(p)

		// One explicit collective round on a cross-site group.
		grp, err := group.New(g.K, g.Topo, g.Session(), []topology.NodeID{0, 2, 4}, group.Config{})
		if err != nil {
			panic(err)
		}
		if _, err := grp.Multicast(p, 0, "trace", data[:256<<10], 1); err != nil {
			panic(err)
		}
		if err := grp.Barrier(p); err != nil {
			panic(err)
		}

		// Bulk adaptive stream across the degrade instant.
		streamStart := vtime.Time(0).Add(grid.DegradeAt - 200*time.Millisecond)
		if p.Now() < streamStart {
			p.Sleep(streamStart.Sub(p.Now()))
		}
		ch, err := g.Open(p, 0, 2, session.WithAdaptive(), session.WithStreams(4))
		if err != nil {
			panic(err)
		}
		payload := weatherPayload(4 << 20)
		done := vtime.NewWaitGroup("trace:stream")
		done.Add(1)
		g.K.Go("trace:sink", func(q *vtime.Proc) {
			defer done.Done()
			buf := make([]byte, len(payload))
			if _, err := ch.Remote().ReadFull(q, buf); err != nil {
				panic(err)
			}
		})
		const chunk = 128 << 10
		for off := 0; off < len(payload); off += chunk {
			end := off + chunk
			if end > len(payload) {
				end = len(payload)
			}
			if _, err := ch.Write(p, payload[off:end]); err != nil {
				panic(err)
			}
		}
		done.Wait(p)
		ch.Close()
		ch.Remote().Close()

		// Phase 2 (degraded): let forecasts converge, then GETs from
		// site0 — the source ranking walks away from the degraded site.
		settle := vtime.Time(0).Add(grid.DegradeAt + 2*time.Second)
		if p.Now() < settle {
			p.Sleep(settle.Sub(p.Now()))
		}
		for i := 0; i < 4; i++ {
			if _, err := dg.Get(p, topology.NodeID(i%2), fmt.Sprintf("t-%d", i)); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		panic(fmt.Sprintf("bench: trace run: %v", err))
	}
	return h
}

// ---------------------------------------------------------------------
// SLO monitoring: the degrading-WAN ingest workload with a virtual-time
// SLO monitor attached.

// SLOWindows are the burn-rate look-backs of every bench objective:
// short enough that the degrade-era transfers heat both windows within
// the run, long enough that one slow transfer alone does not page.
var SLOWindows = []vtime.Duration{vtime.Duration(2 * time.Second), vtime.Duration(8 * time.Second)}

// SLOObjectives are the stack's standing objectives as exercised by
// SLOBench: transfer latency on the data grid, repair time-to-heal on
// the anti-entropy loop, and probe availability on the weather service.
func SLOObjectives() []telemetry.Objective {
	return []telemetry.Objective{
		{
			Name: "datagrid-transfer-p99", Target: 0.99,
			Hist: "datagrid.transfer_latency", Threshold: vtime.Duration(500 * time.Millisecond),
			Windows: SLOWindows,
		},
		{
			Name: "repair-time-to-heal", Target: 0.90,
			Hist: "store.repair_latency", Threshold: vtime.Duration(5 * time.Second),
			Windows: SLOWindows,
		},
		{
			Name: "probe-availability", Target: 0.95,
			Bad: "weather.probe_failures",
			Total: []string{
				"weather.pings", "weather.bandwidth_probes",
			},
			Windows: SLOWindows,
		},
		{
			// Recovery availability: every repair pass that finds an
			// object with no reachable fresh replica books one bad event
			// (datagrid.lost_objects), every completed repair a good one
			// — so the objective burns for exactly as long as data is
			// unreachable and clears once the heal restores sources.
			Name: "recovery-availability", Target: 0.95,
			Bad: "datagrid.lost_objects",
			Total: []string{
				"datagrid.repairs", "datagrid.lost_objects",
			},
			Windows: SLOWindows,
		},
	}
}

// SLOBench runs an ingest workload across the DegradingWAN degrade
// instant with an SLO monitor evaluating in virtual time: the healthy
// era's transfers stay inside the latency budget, the degraded era's
// crawl through the collapsed core and burn it (breach), and a quiet
// tail lets the short window cool (clear). A final recovery era then
// partitions the replica site entirely — the repair loop screams
// lost-object events until the heal restores reachability, so the
// recovery-availability objective breaches during the outage and
// clears after it. It returns the monitor; render its history with
// FormatSLO. Deterministic: two runs yield a byte-identical table.
func SLOBench() *telemetry.SLOMonitor {
	g := grid.DegradingWAN(2) // site0 {0,1}, site1 {2,3}, site2 {4,5}
	h := g.Telemetry()
	g.EnableWeather(weather.Config{})
	dg := g.NewDataGrid(datagrid.Config{Replicas: 2, Streams: 4, RepairInterval: time.Second})
	// Replicas land in site1 only: every transfer crosses the core that
	// collapses at DegradeAt.
	placeOn(g, dg, 2, 3)
	inj := faults.NewInjector(g)
	wireDetector(g, inj, dg)
	mon := telemetry.NewSLOMonitor(h, 0, SLOObjectives()...)
	mon.Start()
	data := weatherPayload(1 << 20)
	err := g.K.Run(func(p *vtime.Proc) {
		// Healthy era: ingest within the budget.
		for i := 0; i < 4; i++ {
			if err := dg.Put(p, 0, fmt.Sprintf("slo-a-%d", i), data); err != nil {
				panic(err)
			}
		}
		dg.WaitSettled(p)
		// Degraded era: the same traffic after the core collapsed.
		deg := vtime.Time(0).Add(grid.DegradeAt + 250*time.Millisecond)
		if p.Now() < deg {
			p.Sleep(deg.Sub(p.Now()))
		}
		for i := 0; i < 4; i++ {
			if err := dg.Put(p, 0, fmt.Sprintf("slo-b-%d", i), data); err != nil {
				panic(err)
			}
		}
		dg.WaitSettled(p)
		// Quiet tail: no new transfers; the short window cools and the
		// alert clears.
		p.Sleep(4 * time.Second)
		// Recovery era: partition the replica site. Every repair pass
		// finds the objects unreachable and books lost-object events;
		// recovery-availability burns all-bad and breaches.
		inj.PartitionSite("site1",
			"core:vthd:site0+site1", "core:vthd:site1+site2")
		p.Sleep(6 * time.Second)
		// Heal: the detector re-adds the site, the still-fresh replicas
		// count again, the screaming stops and the windows drain.
		inj.HealSite("site1",
			"core:vthd:site0+site1", "core:vthd:site1+site2")
		p.Sleep(6 * time.Second)
	})
	if err != nil {
		panic(fmt.Sprintf("bench: slo: %v", err))
	}
	return mon
}

// ---------------------------------------------------------------------
// Failure scenarios: crash-partition-and-heal, the headline robustness
// bench. Three rows, three failure modes: one node crash, one whole
// site blackout, one WAN partition routed around on the backup wire.

// PartitionResult is one failure-scenario row of the -partition table.
type PartitionResult struct {
	Scenario string // what failed
	Testbed  string
	// DetectS is the fault instant to the first detected transition
	// (failure-detector sweep, or the weather forecast going Down).
	DetectS float64 `prec:"3"`
	// RecoverS is the fault instant to full reconvergence: every object
	// verified at its replication factor again, or — for the WAN
	// partition — a full client read round completing on the rerouted
	// wire.
	RecoverS float64 `prec:"3"`
	// MovedMB counts payload bytes moved while healing (re-replication
	// traffic), or wire bytes the backup WAN carried after the reroute.
	MovedMB float64 `prec:"2"`
	// Repairs counts repair transfers completed while healing.
	Repairs int64
	// Lost is the number of objects with no reachable fresh replica
	// once recovery settled — the headline number, asserted zero.
	Lost int
}

const (
	partitionObjects     = 8
	partitionObjectSize  = 1 << 20
	partitionDetectEvery = 500 * time.Millisecond
)

// PartitionBench runs the three failure scenarios end to end and
// reports time-to-detect, time-to-reconverge, bytes moved while
// healing, and lost objects (always zero). Deterministic: two runs
// yield a byte-identical table.
func PartitionBench() []PartitionResult {
	return []PartitionResult{
		crashRecoveryRun("node-crash", false),
		crashRecoveryRun("site-blackout", true),
		wanPartitionRun(),
	}
}

// placeOn restricts the data grid's ring to the given nodes, zoned by
// site, before the first Put.
func placeOn(g *grid.Grid, dg *datagrid.DataGrid, nodes ...topology.NodeID) {
	ring := datagrid.NewRing(0)
	for _, n := range nodes {
		ring.Add(n, g.Topo.Node(n).Site)
	}
	dg.SetRing(ring)
}

// replicasHealed reports whether every catalogued object verifies at
// its (current) placement.
func replicasHealed(dg *datagrid.DataGrid) bool {
	for _, name := range dg.Objects() {
		if dg.VerifyReplicas(name) != nil {
			return false
		}
	}
	return true
}

// wireDetector connects a failure detector to the datagrid's
// membership: a detected crash marks the node down and shrinks the
// ring (rebalance through the repair path re-replicates everything it
// held); a detected heal marks it up and re-adds it. The returned
// pointer holds the virtual time of the first detected failure.
func wireDetector(g *grid.Grid, inj *faults.Injector, dg *datagrid.DataGrid) *vtime.Time {
	detectAt := new(vtime.Time)
	det := faults.NewDetector(inj, partitionDetectEvery, func(n topology.NodeID, down bool) {
		if down {
			if *detectAt == 0 {
				*detectAt = g.K.Now()
			}
			dg.MarkDown(n)
			dg.RemoveMember(n)
			return
		}
		dg.MarkUp(n)
		dg.AddMember(n, g.Topo.Node(n).Site)
	})
	det.Start()
	return detectAt
}

// crashRecoveryRun ingests a replicated working set on the three-site
// testbed, then kills the primary holder of the first object — alone,
// or with its whole site — and measures the self-heal: the detector
// shrinks the ring, the repair loop re-replicates every object that
// lost a copy from weather-ranked surviving sources, and the run ends
// when every object verifies at full replication again.
func crashRecoveryRun(scenario string, wholeSite bool) PartitionResult {
	g := grid.MultiSiteLoss(3, 2, DataGridWANLoss)
	g.Telemetry()
	dg := g.NewDataGrid(datagrid.Config{Replicas: 2, Streams: 4, RepairInterval: time.Second})
	inj := faults.NewInjector(g)
	detectAt := wireDetector(g, inj, dg)
	res := PartitionResult{Scenario: scenario, Testbed: "MultiSiteLoss(3x2)"}
	err := g.K.Run(func(p *vtime.Proc) {
		data := weatherPayload(partitionObjectSize)
		for i := 0; i < partitionObjects; i++ {
			if err := dg.Put(p, 0, fmt.Sprintf("part-%d", i), data); err != nil {
				panic(err)
			}
		}
		dg.WaitSettled(p)
		meta, _ := dg.Meta("part-0")
		victim := meta.Targets[0]
		before := dg.Stats()
		tFault := p.Now()
		if wholeSite {
			inj.CrashSite(g.Topo.Node(victim).Site)
		} else {
			inj.CrashNode(victim)
		}
		deadline := tFault.Add(120 * time.Second)
		// Wait out the detection latency first: until the detector's
		// sweep shrinks the ring, the stale placement still "verifies".
		for *detectAt == 0 {
			p.Sleep(100 * time.Millisecond)
			if p.Now() > deadline {
				panic("bench: partition: crash never detected")
			}
		}
		for {
			p.Sleep(250 * time.Millisecond)
			dg.WaitSettled(p)
			if replicasHealed(dg) {
				break
			}
			if p.Now() > deadline {
				panic("bench: partition: no reconvergence within 120s of virtual time")
			}
		}
		after := dg.Stats()
		res.DetectS = detectAt.Sub(tFault).Seconds()
		res.RecoverS = p.Now().Sub(tFault).Seconds()
		res.MovedMB = float64(after.BytesMoved-before.BytesMoved) / 1e6
		res.Repairs = after.Repairs - before.Repairs
		res.Lost = len(dg.LostObjects())
	})
	if err != nil {
		panic(fmt.Sprintf("bench: partition %s: %v", scenario, err))
	}
	return res
}

// wanPartitionRun stores the working set in the remote site of the
// dual-homed testbed, cuts the primary WAN core, and measures how long
// client reads take to move onto the backup wire: the weather service
// marks the dead network down after consecutive probe failures, the
// selector's next decisions carry Decision.Network = backup, and sysio
// dials the alternate wire. The core is healed at the end and the
// catalog verified intact.
func wanPartitionRun() PartitionResult {
	g := grid.DualWAN(2) // site0 {0,1}, site1 {2,3}; cores "core:vthd" + "core:backup"
	g.Telemetry()
	wsvc := g.EnableWeather(weather.Config{})
	dg := g.NewDataGrid(datagrid.Config{
		Replicas: 2, Streams: 4, Adaptive: true,
		RetryTimeout: 5 * time.Second, RepairInterval: time.Second,
	})
	// Both replicas in site1: every client read from site0 crosses a WAN.
	placeOn(g, dg, 2, 3)
	inj := faults.NewInjector(g)
	var downAt vtime.Time
	unsub := wsvc.Subscribe(func(a, b topology.NodeID, nw *topology.Network, f selector.Forecast) {
		if f.Down && nw.Name == "vthd" && downAt == 0 {
			downAt = g.K.Now()
		}
	})
	defer unsub()
	backup := g.CoreHop("core:backup")
	res := PartitionResult{Scenario: "wan-partition", Testbed: "DualWAN(2x2)"}
	getRound := func(p *vtime.Proc) bool {
		clean := true
		for i := 0; i < partitionObjects/2; i++ {
			if _, err := dg.Get(p, 0, fmt.Sprintf("wan-%d", i)); err != nil {
				clean = false
			}
		}
		return clean
	}
	err := g.K.Run(func(p *vtime.Proc) {
		data := weatherPayload(partitionObjectSize)
		for i := 0; i < partitionObjects/2; i++ {
			if err := dg.Put(p, 0, fmt.Sprintf("wan-%d", i), data); err != nil {
				panic(err)
			}
		}
		dg.WaitSettled(p)
		if !getRound(p) { // healthy round across the primary
			panic("bench: wan-partition: healthy read round failed")
		}
		backupBefore := backup.Bytes
		tFault := p.Now()
		deadline := tFault.Add(120 * time.Second)
		inj.PartitionCores("core:vthd")
		// Wait for the weather service to notice the dead wire, then
		// read until a full round lands on the backup.
		for downAt == 0 {
			if p.Now() > deadline {
				panic("bench: wan-partition: weather never marked the core down")
			}
			p.Sleep(250 * time.Millisecond)
		}
		for !getRound(p) {
			if p.Now() > deadline {
				panic("bench: wan-partition: reads never reconverged on the backup")
			}
			p.Sleep(250 * time.Millisecond)
		}
		res.DetectS = downAt.Sub(tFault).Seconds()
		res.RecoverS = p.Now().Sub(tFault).Seconds()
		res.MovedMB = float64(backup.Bytes-backupBefore) / 1e6
		inj.HealCores("core:vthd")
		p.Sleep(time.Second)
		if !getRound(p) {
			panic("bench: wan-partition: read round failed after the heal")
		}
		res.Lost = len(dg.LostObjects())
	})
	if err != nil {
		panic(fmt.Sprintf("bench: wan-partition: %v", err))
	}
	return res
}

// ---------------------------------------------------------------------
// Store: the durable pack engine vs the in-memory map, plus the
// corrupt-and-repair anti-entropy drill.

// StoreResult is one engine row of the -store table. Every row runs
// the same workload on the lossy two-cluster WAN: ingest StoreObjects
// objects, read them all back from a non-entry client, scrub every
// node once, then corrupt two needles and drive one full
// audit -> quarantine -> repair cycle.
type StoreResult struct {
	Engine string // "memory" | "pack"
	// PutMBps is the aggregate client->first-replica ingest rate; on
	// the pack engine this includes the simulated needle appends and
	// batched fsyncs, so it trails the memory row.
	PutMBps float64 `prec:"1"`
	// GetMBps is the aggregate read-back rate from a remote client.
	GetMBps float64 `prec:"1"`
	// ScrubS is one synchronous grid-wide audit pass (every replica
	// re-read and re-hashed, paced to the scrub rate bound).
	ScrubS float64 `prec:"3"`
	// Corrupted needles were injected; Quarantined is what the next
	// audit pass caught (must equal Corrupted); Repaired counts copies
	// the anti-entropy loop restored; Lost must be zero.
	Corrupted   int
	Quarantined int
	Repaired    int64
	Lost        int
}

// StoreSizes: objects per run and bytes per object.
const (
	StoreObjects    = 8
	StoreObjectSize = 1 << 20
)

// StoreBench runs the store table: the in-memory map and the durable
// pack engine under the identical datagrid workload. Deterministic on
// both rows — the pack engine's disk charges are simulated virtual
// time, not wall clock.
func StoreBench() []StoreResult {
	return []StoreResult{storeRun("memory"), storeRun("pack")}
}

func storeRun(engine string) StoreResult {
	g := grid.TwoClusterWANLoss(2, 2, DataGridWANLoss)
	cfg := datagrid.Config{Replicas: 2, Streams: 4}
	if engine == "pack" {
		dir, err := os.MkdirTemp("", "padico-store-bench-*")
		if err != nil {
			panic(fmt.Sprintf("bench: store: %v", err))
		}
		defer os.RemoveAll(dir)
		cfg.Engine = store.PackFactory(dir, store.PackConfig{})
	}
	dg := g.NewDataGrid(cfg)
	res := StoreResult{Engine: engine}
	err := g.K.Run(func(p *vtime.Proc) {
		data := make([]byte, StoreObjectSize)
		rand.New(rand.NewSource(7)).Read(data)
		start := p.Now()
		for i := 0; i < StoreObjects; i++ {
			if err := dg.Put(p, topology.NodeID(i%4), fmt.Sprintf("st-%d", i), data); err != nil {
				panic(err)
			}
		}
		dg.WaitSettled(p)
		res.PutMBps = float64(StoreObjects*StoreObjectSize) / p.Now().Sub(start).Seconds() / 1e6

		gs := p.Now()
		for i := 0; i < StoreObjects; i++ {
			if _, err := dg.Get(p, topology.NodeID((i+1)%4), fmt.Sprintf("st-%d", i)); err != nil {
				panic(err)
			}
		}
		res.GetMBps = float64(StoreObjects*StoreObjectSize) / p.Now().Sub(gs).Seconds() / 1e6

		ss := p.Now()
		if n := dg.AuditNow(p); n != 0 {
			panic(fmt.Sprintf("bench: store: clean scrub quarantined %d", n))
		}
		res.ScrubS = p.Now().Sub(ss).Seconds()

		// The drill: two needles rot on different nodes; one audit pass
		// quarantines both, one repair pass restores the replication
		// factor, and nothing is lost.
		for _, i := range []int{1, 5} {
			name := fmt.Sprintf("st-%d", i)
			if !dg.EngineOn(dg.Holders(name)[i%2]).Corrupt(name) {
				panic("bench: store: could not corrupt " + name)
			}
		}
		res.Corrupted = 2
		res.Quarantined = dg.AuditNow(p)
		dg.RepairNow(p)
		dg.WaitSettled(p)
		for i := 0; i < StoreObjects; i++ {
			if err := dg.VerifyReplicas(fmt.Sprintf("st-%d", i)); err != nil {
				panic(err)
			}
		}
		res.Lost = len(dg.LostObjects())
	})
	if err != nil {
		panic(fmt.Sprintf("bench: store: %v", err))
	}
	res.Repaired = dg.Stats().Repairs
	if err := dg.Close(); err != nil {
		panic(fmt.Sprintf("bench: store: close: %v", err))
	}
	return res
}
