// kvstore builds a tiny fault-tolerant key-value store on the facade's real
// sharded API: one Store multiplexes four named register shards over a single
// shared simulated cluster, keys route to shards by name, several clients
// update and read keys concurrently, one storage node per shard is crashed
// midway (within each shard's f = 1 budget), and the program prints the final
// contents together with the per-shard and total storage cost. It exits
// non-zero if a shard's cost is not Theorem 2's quiescent (2f+k)/k·D.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"

	"spacebounds"
)

func main() {
	keys := []string{"alpha", "beta", "gamma", "delta"}
	shards := make([]spacebounds.ShardSpec, 0, len(keys))
	for _, key := range keys {
		shards = append(shards, spacebounds.ShardSpec{Name: key})
	}
	const f, k, valueSize = 1, 2, 128
	store, err := spacebounds.Open(spacebounds.Options{
		F:         f,
		K:         k,
		ValueSize: valueSize,
		Shards:    shards,
	})
	if err != nil {
		log.Fatalf("opening store: %v", err)
	}
	defer store.Close()
	fmt.Printf("opened %d shards over %d shared base objects\n", len(store.Shards()), store.Nodes())

	// Phase 1: several clients write to all keys concurrently. Clients on
	// different keys proceed in parallel — the shards share no locks.
	var wg sync.WaitGroup
	for client := 1; client <= 3; client++ {
		client := client
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, key := range keys {
				val := fmt.Sprintf("%s=v%d-by-client-%d", key, client, client)
				if err := store.WriteKey(client, key, []byte(val)); err != nil {
					log.Printf("put %s by %d: %v", key, client, err)
				}
			}
		}()
	}
	wg.Wait()
	fmt.Println("three clients wrote every key concurrently")

	// Phase 2: crash one storage node per shard — within the f=1 budget.
	for _, key := range keys {
		if err := store.CrashShardNode(key, 0); err != nil {
			log.Fatalf("crash node for %s: %v", key, err)
		}
	}
	fmt.Println("crashed one storage node per shard")

	// Phase 3: a fourth client reads everything back. Every write has
	// finished, so each shard holds Theorem 2's quiescent (2f+k)/k·D bits (a
	// crashed node keeps its piece; it is only unreachable).
	fmt.Println("\nfinal contents:")
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	want := (2*f + k) * valueSize * 8 / k
	storage := store.Storage()
	for _, key := range sorted {
		raw, err := store.ReadKey(9, key)
		if err != nil {
			log.Fatalf("get %s: %v", key, err)
		}
		val := strings.TrimRight(string(raw), "\x00")
		bits := storage.Shards[key].Bits
		fmt.Printf("  %-6s -> %-24q  (shard storage: %d bits, (2f+k)/k·D = %d)\n", key, val, bits, want)
		if bits != want {
			log.Fatalf("shard %s holds %d bits at quiescence, want %d", key, bits, want)
		}
	}
	fmt.Printf("\ntotal base-object storage: %d bits\n", storage.Bits)
}
