package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/gf256"
	"spacebounds/internal/register"
	"spacebounds/internal/shard"
	"spacebounds/internal/transport"
	"spacebounds/internal/value"
)

// isoFor is how long each isolated measurement loops; long enough that the
// timer and the two ReadMemStats calls vanish in it.
var isoFor = 60 * time.Millisecond

// timeLoop calls fn repeatedly for at least isoFor and returns the mean time
// and heap allocations per call.
func timeLoop(fn func()) (nsPerCall, allocsPerCall float64) {
	fn() // first call pays for lazy initialisation
	var before, after runtime.MemStats
	for n := 1; ; n *= 2 {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		took := time.Since(start)
		if took >= isoFor {
			runtime.ReadMemStats(&after)
			return float64(took) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
		}
	}
}

// mbPerS converts bytes handled per call and time per call to MB/s.
func mbPerS(bytes int, nsPerCall float64) float64 { return float64(bytes) / nsPerCall * 1e3 }

// capturedRMW is one RMW a register operation sent to a base object.
type capturedRMW struct {
	object int
	rmw    dsys.RMW
}

// capturer is a RoundInvoker that records every RMW of every round.
type capturer struct {
	inner dsys.RoundInvoker
	mu    sync.Mutex
	rmws  []capturedRMW
}

func (c *capturer) InvokeRound(ctx context.Context, client int, targets []int, makeRMW func(obj int) dsys.RMW, quorum int) (map[int]any, error) {
	return c.inner.InvokeRound(ctx, client, targets, func(obj int) dsys.RMW {
		rmw := makeRMW(obj)
		c.mu.Lock()
		c.rmws = append(c.rmws, capturedRMW{obj, rmw})
		c.mu.Unlock()
		return rmw
	}, quorum)
}

// captureOps runs writes then reads on shard 0 of a local copy of the
// workload's layout and returns the RMWs they sent to base object 0, in
// order: what one server applies for those operations.
func captureOps(w workload, pay *payloads, writes, reads int) ([]dsys.RMW, error) {
	specs, err := w.layout().Specs()
	if err != nil {
		return nil, err
	}
	local, err := shard.New(specs)
	if err != nil {
		return nil, err
	}
	defer local.Close()
	capt := &capturer{inner: transport.NewLoopback(local.Cluster())}
	remote, err := shard.NewRemote(specs, capt)
	if err != nil {
		return nil, err
	}
	defer remote.Close()
	sh := remote.Shards()[0]
	buf := make([]byte, w.valueSize)
	for i := 0; i < writes; i++ {
		if err := remote.WriteValue(1, sh, value.FromBytes(pay.next(1, buf))); err != nil {
			return nil, err
		}
	}
	for i := 0; i < reads; i++ {
		if _, err := remote.ReadValue(1, sh); err != nil {
			return nil, err
		}
	}
	var out []dsys.RMW
	for _, c := range capt.rmws {
		if c.object == sh.Base {
			out = append(out, c.rmw)
		}
	}
	return out, nil
}

// isolated measures single layers by direct calls into their exported
// functions, at the workload's own k, n and value size, while nothing else
// runs in the process. The results go into m under per-layer names.
func isolated(w workload, seed int64, m map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	pay := newPayloads(w, seed)
	data := make([]byte, w.valueSize)
	rng.Read(data)

	// gf256: the two slice kernels over one piece.
	piece := (w.valueSize + w.k - 1) / w.k
	src, dst := data[:piece], make([]byte, piece)
	ns, _ := timeLoop(func() { gf256.MulAddSlice(0x53, dst, src) })
	m["gf256.muladd_mb_s"] = mbPerS(piece, ns)
	ns, _ = timeLoop(func() { gf256.MulSlice(0x53, dst, src) })
	m["gf256.mul_mb_s"] = mbPerS(piece, ns)

	// erasure: a write's n EncodeBlock calls, a read's one Decode from k blocks.
	cfg, err := register.Config{F: w.f, K: w.k, DataLen: w.valueSize}.Validate()
	if err != nil {
		return err
	}
	var blocks []erasure.Block
	ns, _ = timeLoop(func() {
		blocks = blocks[:0]
		for i := 1; i <= cfg.N(); i++ {
			b, err := cfg.Code.EncodeBlock(data, i)
			if err != nil {
				panic(err)
			}
			blocks = append(blocks, b)
		}
	})
	m["erasure.encode_mb_s"] = mbPerS(w.valueSize, ns)
	ns, _ = timeLoop(func() {
		if _, err := cfg.Code.Decode(w.valueSize, blocks[:w.k]); err != nil {
			panic(err)
		}
	})
	m["erasure.decode_mb_s"] = mbPerS(w.valueSize, ns)

	// The RMW stream one server sees for 32 writes and 32 reads; its largest
	// mutating RMW is the update (a piece plus k full pieces).
	stream, err := captureOps(w, pay, 32, 32)
	if err != nil {
		return fmt.Errorf("capturing RMWs: %w", err)
	}
	var update, readRMW dsys.RMW
	var updateEnv dsys.Envelope
	for _, rmw := range stream {
		env, err := register.EncodeEnvelope(dsys.OpID{Client: 1, Seq: 1, Kind: dsys.OpWrite}, 0, rmw)
		if err != nil {
			return err
		}
		if register.KindReadOnly(env.Kind) {
			readRMW = rmw
		} else if len(env.Payload) > len(updateEnv.Payload) {
			update, updateEnv = rmw, env
		}
	}
	if update == nil || readRMW == nil {
		return fmt.Errorf("captured stream of %d RMWs lacks an update or a read", len(stream))
	}

	// register: the provider codec on the update RMW.
	codec, _ := register.CodecByKind(updateEnv.Kind)
	encNs, encAllocs := timeLoop(func() {
		if _, err := codec.Encode(update); err != nil {
			panic(err)
		}
	})
	decNs, decAllocs := timeLoop(func() {
		if _, err := codec.Decode(updateEnv.Payload); err != nil {
			panic(err)
		}
	})
	m["register.codec_encode_ns"], m["register.codec_decode_ns"] = encNs, decNs
	m["register.codec_allocs"] = encAllocs + decAllocs

	// dsys: the envelope around that payload, and applying the stream.
	wire := make([]byte, 0, 64+len(updateEnv.Payload))
	encNs, encAllocs = timeLoop(func() {
		var err error
		if wire, err = updateEnv.AppendBinary(wire[:0]); err != nil {
			panic(err)
		}
	})
	decNs, decAllocs = timeLoop(func() {
		if _, err := dsys.UnmarshalEnvelope(wire); err != nil {
			panic(err)
		}
	})
	m["dsys.envelope_encode_ns"], m["dsys.envelope_decode_ns"] = encNs, decNs
	m["dsys.envelope_allocs"] = encAllocs + decAllocs
	if m["dsys.apply_one_ns"], err = applyStream(w, stream); err != nil {
		return err
	}

	// shard: routing the workload's keys.
	router, err := shard.New(facadeSpecs(w))
	if err != nil {
		return err
	}
	keys := make([]string, w.keys)
	for i := range keys {
		keys[i] = keyName(i)
	}
	ns, _ = timeLoop(func() {
		for _, k := range keys {
			router.Router().ForKey(k)
		}
	})
	router.Close()
	m["shard.route_ns"] = ns / float64(len(keys))

	// bench: what the harness itself spends per op outside the timed call.
	gen := newOpGen(w, seed, 1)
	buf := make([]byte, w.valueSize)
	sample := slices.Clone(pay.next(1, buf))
	ns, _ = timeLoop(func() {
		if read, _ := gen.next(); read {
			if err := pay.check(sample); err != nil {
				panic(err)
			}
		} else {
			value.FromBytes(pay.next(1, buf))
		}
	})
	m["bench.generator_us_per_op"] = ns / 1e3

	m["transport.pair_rtt_p50_us"] = 0
	if w.tcp {
		if m["transport.pair_rtt_p50_us"], err = pairRTT(w, readRMW); err != nil {
			return err
		}
	}
	return nil
}

// applyStream applies the captured stream to base object 0 of fresh local
// clusters through Cluster.ApplyOne and returns the mean time per RMW.
// Building the cluster is outside the timing.
func applyStream(w workload, stream []dsys.RMW) (float64, error) {
	specs, err := w.layout().Specs()
	if err != nil {
		return 0, err
	}
	var total time.Duration
	applied := 0
	for pass := 0; pass < 200 && total < isoFor; pass++ {
		set, err := shard.New(specs)
		if err != nil {
			return 0, err
		}
		cl := set.Cluster()
		start := time.Now()
		for _, rmw := range stream {
			if _, err := cl.ApplyOne(0, rmw); err != nil {
				set.Close()
				return 0, err
			}
		}
		total += time.Since(start)
		applied += len(stream)
		set.Close()
	}
	return float64(total) / float64(applied), nil
}

// pairRTT is ROADMAP's "TCP-pair round trip" rung: the median of
// single-target, quorum-1 read rounds from one client to one server.
func pairRTT(w workload, readRMW dsys.RMW) (float64, error) {
	specs, err := w.layout().Specs()
	if err != nil {
		return 0, err
	}
	set, err := shard.New(specs)
	if err != nil {
		return 0, err
	}
	defer set.Close()
	srv := transport.NewServer(set.Cluster())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	cli, err := transport.Dial([]string{addr.String()})
	if err != nil {
		return 0, err
	}
	defer cli.Close()
	ctx := context.Background()
	round := func() error {
		_, err := cli.InvokeRound(ctx, 1, []int{0}, func(int) dsys.RMW { return readRMW }, 1)
		return err
	}
	for i := 0; i < 200; i++ { // dial and warm the connection
		if err := round(); err != nil {
			return 0, err
		}
	}
	var took hist
	for i := 0; i < 2000; i++ {
		start := time.Now()
		if err := round(); err != nil {
			return 0, err
		}
		took.add(int64(time.Since(start)))
	}
	return took.percentile(50) / 1e3, nil
}
