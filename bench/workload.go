package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
)

// workload describes one closed-loop traffic mix and the system it runs
// against. Every workload uses the adaptive register: it is the paper's
// algorithm and the only provider whose storage returns to (2f+k)·D/k.
type workload struct {
	name string
	// tcp selects the 4-node loopback cluster; otherwise the public facade.
	tcp       bool
	shards    int
	f, k      int
	valueSize int
	readFrac  float64
	keys      int
	// zipfS > 1 skews key choice (rand.Zipf); 0 picks keys uniformly.
	zipfS   float64
	clients int
	// batch is the facade's Batch.MaxSize; 0 leaves group commit off.
	batch int
	// wal gives every node a journal at SyncEvery=walSyncEvery.
	wal bool
	// portBound is the share of the workload's processor time that competes
	// for a core's issue ports, and so slows down while a neighbour is busy on
	// the same physical core (see calib.go). Measured, not derived: across
	// runs in which the gauge saw the ports anywhere between 0.5 and 1.0
	// free, the facade workload's times followed the port-bound loop one for
	// one, and the TCP workloads', which spend their time in the kernel's
	// network path, in copies and in waiting for wake-ups, about half as far.
	portBound float64
}

// tcpNodes is the cluster size of the TCP workloads: with n = 2f+k ≤ 8 base
// objects per shard placed round-robin, no node hosts more than f objects of
// any shard.
const tcpNodes = 4

// workloads is the benchmark's fixed set; BENCHMARK.json records why each
// exists. Names are matched against BENCHMARK.json by TestBenchmarkJSONSync.
var workloads = []workload{
	{name: "tcp-small", tcp: true, shards: 4, f: 1, k: 2, valueSize: 1 << 10, readFrac: 0.5, keys: 64, clients: 2, portBound: 0.5},
	{name: "tcp-large", tcp: true, shards: 2, f: 2, k: 4, valueSize: 64 << 10, readFrac: 0.3, keys: 64, clients: 2, portBound: 0.5},
	{name: "tcp-durable", tcp: true, shards: 4, f: 1, k: 2, valueSize: 4 << 10, readFrac: 0.1, keys: 64, clients: 2, wal: true, portBound: 0.5},
	{name: "inproc-batched", shards: 8, f: 2, k: 2, valueSize: 1 << 10, readFrac: 0.5, keys: 256, zipfS: 1.2, clients: 8, batch: 16, portBound: 1},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// n is the number of base objects per shard.
func (w workload) n() int { return 2*w.f + w.k }

// quiescentX is the paper's quiescent storage cost in units of D per shard.
func (w workload) quiescentX() float64 { return float64(w.n()) / float64(w.k) }

// storageBoundX is the paper's O(min(f, c)·D) envelope for this workload in
// units of D per shard, with c the client count: a register under c
// concurrent writers may hold up to c+1 coded values, and never more than
// two full replications' worth.
func (w workload) storageBoundX() float64 {
	coded := float64(w.clients+1) * w.quiescentX()
	repl := 2 * float64(w.n())
	return min(coded, repl)
}

// keyName is the routing label of key index i. Keys alias onto one register
// per shard: they shape routing skew, not the number of stored values.
func keyName(i int) string { return fmt.Sprintf("key-%d", i) }

// opGen is one client's deterministic op stream: the read/write coin and the
// key choice are a pure function of (seed, client).
type opGen struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	readFrac float64
	keys     int
}

func newOpGen(w workload, seed int64, client int) *opGen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	g := &opGen{rng: rng, readFrac: w.readFrac, keys: w.keys}
	if w.zipfS > 1 {
		g.zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(w.keys-1))
	}
	return g
}

// next draws the next operation.
func (g *opGen) next() (read bool, key int) {
	read = g.rng.Float64() < g.readFrac
	if g.zipf != nil {
		return read, int(g.zipf.Uint64())
	}
	return read, g.rng.Intn(g.keys)
}

// stampLen is the (client, seq) header every written value starts with.
const stampLen = 16

// payloads builds and checks the values the clients write. Each client has
// one random template made in set-up; a write is the template with
// (client, seq) stamped over its first 16 bytes, so building a value costs a
// copy, and checking a read costs one comparison of the value's length.
type payloads struct {
	size      int
	templates [][]byte        // index = client ID; [0] is the all-zero initial value
	issued    []atomic.Uint64 // index = client ID: highest seq the client has issued
}

func newPayloads(w workload, seed int64) *payloads {
	p := &payloads{
		size:      w.valueSize,
		templates: make([][]byte, w.clients+1),
		issued:    make([]atomic.Uint64, w.clients+1),
	}
	p.templates[0] = make([]byte, w.valueSize)
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	for c := 1; c <= w.clients; c++ {
		p.templates[c] = make([]byte, w.valueSize)
		rng.Read(p.templates[c])
	}
	return p
}

// next stamps client's next write into buf (len == size) and returns it.
func (p *payloads) next(client int, buf []byte) []byte {
	seq := p.issued[client].Add(1)
	copy(buf, p.templates[client])
	binary.BigEndian.PutUint64(buf[0:8], uint64(client))
	binary.BigEndian.PutUint64(buf[8:16], seq)
	return buf
}

// check reports whether got is a value some client actually wrote (or the
// initial value): its stamp names an issued write and its body is that
// client's template.
func (p *payloads) check(got []byte) error {
	if len(got) != p.size {
		return fmt.Errorf("read returned %d bytes, want %d", len(got), p.size)
	}
	client := binary.BigEndian.Uint64(got[0:8])
	seq := binary.BigEndian.Uint64(got[8:16])
	if client == 0 {
		if seq != 0 || !bytes.Equal(got[stampLen:], p.templates[0][stampLen:]) {
			return fmt.Errorf("read returned a value stamped client 0 seq %d that is not the initial value", seq)
		}
		return nil
	}
	if client >= uint64(len(p.templates)) {
		return fmt.Errorf("read returned a value stamped with unknown client %d", client)
	}
	if issued := p.issued[client].Load(); seq == 0 || seq > issued {
		return fmt.Errorf("read returned client %d seq %d, but that client has issued only %d writes", client, seq, issued)
	}
	if !bytes.Equal(got[stampLen:], p.templates[client][stampLen:]) {
		return fmt.Errorf("read returned client %d seq %d with a corrupted body", client, seq)
	}
	return nil
}
