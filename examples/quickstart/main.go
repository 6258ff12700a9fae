// Quickstart: open a fault-tolerant register store over 2f+k simulated
// storage nodes with the paper's adaptive algorithm, write a value, check the
// storage cost against Theorem 2's quiescent (2f+k)/k·D, crash f nodes, and
// read the value back — all through the public spacebounds facade. It exits
// non-zero if the storage cost is not that value.
package main

import (
	"fmt"
	"log"
	"strings"

	"spacebounds"
)

func main() {
	// f = 1 failure tolerated, k = 2 erasure-code threshold => n = 4 nodes,
	// 64-byte values.
	const f, k, valueSize = 1, 2, 64
	store, err := spacebounds.Open(spacebounds.Options{
		Algorithm: spacebounds.Adaptive,
		F:         f,
		K:         k,
		ValueSize: valueSize,
	})
	if err != nil {
		log.Fatalf("opening store: %v", err)
	}
	defer store.Close()
	fmt.Printf("started %s over %d base objects\n", store.Algorithm(), store.Nodes())

	// Client 1 writes. Keys route to shards; with a single shard every key
	// addresses the same register, and "default" is that shard's name.
	msg := "erasure codes meet replication"
	if err := store.WriteKey(1, "default", []byte(msg)); err != nil {
		log.Fatalf("write: %v", err)
	}
	fmt.Printf("client 1 wrote %q\n", msg)

	// The write has finished, so Theorem 2's quiescent clause applies: the
	// base objects hold one piece of D/k bits each, (2f+k)/k·D in all.
	want := (2*f + k) * valueSize * 8 / k
	bits := store.Storage().Bits
	fmt.Printf("storage after write: %d bits, (2f+k)/k·D = %d bits\n", bits, want)
	if bits != want {
		log.Fatalf("quiescent storage is %d bits, want %d", bits, want)
	}

	// Crash one base object — the register tolerates f = 1 such failures.
	if err := store.CrashNode(0); err != nil {
		log.Fatalf("crash: %v", err)
	}
	fmt.Println("crashed base object 0")

	// Client 2 reads despite the failure.
	got, err := store.ReadKey(2, "default")
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	fmt.Printf("client 2 read  %q\n", strings.TrimRight(string(got), "\x00"))
}
