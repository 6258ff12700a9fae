package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The reference box is a small VM on a shared host, and its cores do not run
// at one speed. Two things move, and the gauge below tells them apart with two
// L1-resident loops over the same 4 KiB:
//
//   - the clock. A chain of dependent table look-ups, which nothing but the
//     clock rate can hurry or delay, takes 28.9 µs at the host's best and up
//     to a sixth more, in steps, on both cores at once, for minutes;
//   - a busy thread on the same physical core: a neighbour's or, when the
//     host places them so, the VM's own other processor. A loop of
//     independent look-ups that fills the core's issue ports takes 34 µs
//     undisturbed and 1.3 to 2.7 times that for seconds to minutes at a
//     stretch while the chain keeps its pace.
//
// Whole-window timings followed both: the same code read 2.1 ms and 3.0 ms
// for one median an hour apart, and ten runs in a row spread by 20-35 %.
//
// So the timed window is cut into slices. Between two slices every client
// parks, and with the program idle the gauge times both loops on every core.
// A slice's speed is computed from the mean of the readings before and after
// it, 1.0 being the reference box in its usual state, and the slice's wall
// time, CPU time and every latency sampled in it are multiplied by that speed
// before they are added up. The time-derived metrics are therefore in
// reference-speed time: what the clock would have read had the box stayed in
// that one state. The gauge is the benchmark's own code and runs while the
// program rests, so nothing the program does can move it.
//
// The clock's rate scales everything a processor does. Lost ports only slow
// the part of the work that competes for them, and how large that part is
// depends on the work: workload.portBound says, per workload.

const (
	// gaugeEvery is the length of a slice.
	gaugeEvery = 100 * time.Millisecond
	// gaugeBytes, portPasses and chainPasses size one reading: passes over
	// 4 KiB of independent and of dependent byte-table look-ups.
	gaugeBytes  = 4 << 10
	portPasses  = 24
	chainPasses = 4
	// portRefNs and chainRefNs are the two loops' times on the reference box
	// in its usual state: what the gauge read most often, just after the
	// program had parked, over the days this was written. They set the scale
	// of reference-speed time and nothing else.
	portRefNs  = 50000.0
	chainRefNs = 32500.0
	// gaugeReadings are taken per core each time; their medians count.
	gaugeReadings = 9
)

// reading is what the gauge found, relative to the reference box in its usual
// state (1.0): the clock rate, and how much of a core's issue ports was left
// to the loop that wants them all.
type reading struct {
	clock, ports float64
}

// speed is how fast work runs under r when portBound of its processor time
// competes for issue ports and the rest only follows the clock.
func (r reading) speed(portBound float64) float64 {
	return r.clock / (portBound/r.ports + 1 - portBound)
}

// meanReading returns the component-wise mean of readings.
func meanReading(rs ...reading) (m reading) {
	for _, r := range rs {
		m.clock += r.clock
		m.ports += r.ports
	}
	m.clock /= float64(len(rs))
	m.ports /= float64(len(rs))
	return m
}

// gaugeCore is one core's share of the gauge.
type gaugeCore struct {
	tab          [256]byte
	src, dst     [gaugeBytes]byte
	sink         byte
	ports, chain [gaugeReadings]float64
}

// portPass is throughput-bound: every look-up is independent of the others.
func (g *gaugeCore) portPass() {
	tab, src, dst := &g.tab, &g.src, &g.dst
	for i, b := range src {
		dst[i] ^= tab[b]
	}
}

// chainPass is latency-bound: every look-up waits for the one before.
func (g *gaugeCore) chainPass() {
	tab, src, x := &g.tab, &g.src, g.sink
	for _, b := range src {
		x = tab[x^b]
	}
	g.sink = x
}

func (g *gaugeCore) read() reading {
	g.portPass() // untimed: brings the arrays back into L1
	for r := range g.ports {
		start := time.Now()
		for p := 0; p < portPasses; p++ {
			g.portPass()
		}
		mid := time.Now()
		for p := 0; p < chainPasses; p++ {
			g.chainPass()
		}
		g.ports[r], g.chain[r] = float64(mid.Sub(start)), float64(time.Since(mid))
	}
	slices.Sort(g.ports[:])
	slices.Sort(g.chain[:])
	clock := chainRefNs / g.chain[gaugeReadings/2]
	return reading{clock: clock, ports: portRefNs / g.ports[gaugeReadings/2] / clock}
}

// gauge reads every core the process may run on.
type gauge struct {
	cores []*gaugeCore
}

func newGauge() *gauge {
	g := &gauge{cores: make([]*gaugeCore, runtime.GOMAXPROCS(0))}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() byte {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return byte(x)
	}
	for c := range g.cores {
		gc := &gaugeCore{}
		for i := range gc.tab {
			gc.tab[i] = next()
		}
		for i := range gc.src {
			gc.src[i] = next()
		}
		g.cores[c] = gc
	}
	return g
}

// read runs one goroutine per core at once, so that with the program idle
// the scheduler spreads them over the cores, and returns the cores' mean.
func (g *gauge) read() reading {
	perCore := make([]reading, len(g.cores))
	var wg sync.WaitGroup
	for c, gc := range g.cores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perCore[c] = gc.read()
		}()
	}
	wg.Wait()
	return meanReading(perCore...)
}

// gate parks the clients between slices.
type gate struct {
	closing atomic.Bool // clients look at this before every op
	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	parked  int
}

func newGate() *gate {
	g := &gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// pass is called by a client between ops; it returns once the gate is open.
func (g *gate) pass() {
	if !g.closing.Load() {
		return
	}
	g.mu.Lock()
	g.parked++
	g.cond.Broadcast()
	for g.closed {
		g.cond.Wait()
	}
	g.parked--
	g.mu.Unlock()
}

// close returns once n clients are parked.
func (g *gate) close(n int) {
	g.mu.Lock()
	g.closed = true
	g.closing.Store(true)
	for g.parked < n {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func (g *gate) open() {
	g.mu.Lock()
	g.closed = false
	g.closing.Store(false)
	g.cond.Broadcast()
	g.mu.Unlock()
}
