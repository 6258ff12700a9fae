package transport_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/erasure"
	"spacebounds/internal/shard"
	"spacebounds/internal/transport"
	"spacebounds/internal/value"
)

var blockType = reflect.TypeOf(erasure.Block{})

// heldBlocks walks a base object's state (unexported fields included — only
// lengths and capacities are read) and reports every erasure.Block it holds
// whose memory is not exactly its own: cap(Data) != len(Data) means the block
// is a view into something larger, a frame or a sibling's buffer, that the
// object would keep alive beyond what StorageBits charges it for.
func heldBlocks(t *testing.T, where string, v reflect.Value) (blocks int) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			blocks += heldBlocks(t, where, v.Elem())
		}
	case reflect.Struct:
		if v.Type() == blockType {
			if data := v.FieldByName("Data"); data.Cap() != data.Len() {
				t.Errorf("%s: block %d holds %d bytes in memory of capacity %d", where, v.FieldByName("Index").Int(), data.Len(), data.Cap())
			}
			return 1
		}
		for i := 0; i < v.NumField(); i++ {
			blocks += heldBlocks(t, where, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			blocks += heldBlocks(t, where, v.Index(i))
		}
	}
	return blocks
}

// TestQuiescentStateIsExactlySized writes every provider's register from
// concurrent clients — in process, through the loopback's codec round trip
// and over TCP — and, once the writes have quiesced, checks that every block
// every base object holds is exactly sized, owned memory. Decoded parameters
// may alias their frame; what an object keeps may not.
func TestQuiescentStateIsExactlySized(t *testing.T) {
	for _, path := range []string{"in-process", "loopback", "tcp"} {
		t.Run(path, func(t *testing.T) {
			backing, err := shard.New(specsFor(t))
			if err != nil {
				t.Fatal(err)
			}
			defer backing.Close()
			driver := backing
			var srv *transport.Server
			switch path {
			case "loopback":
				if driver, err = shard.NewRemote(specsFor(t), transport.NewLoopback(backing.Cluster())); err != nil {
					t.Fatal(err)
				}
			case "tcp":
				var addr string
				srv, addr = startServer(t, backing)
				cli, err := transport.Dial([]string{addr})
				if err != nil {
					t.Fatal(err)
				}
				if driver, err = shard.NewRemote(specsFor(t), cli); err != nil {
					t.Fatal(err)
				}
			}
			// Three writers per shard at k <= 2 push the adaptive register
			// into its Vf fallback, the one place a decoded parameter that
			// aliases its frame (`full`) is stored.
			var wg sync.WaitGroup
			for i, sh := range driver.Shards() {
				for c := 1; c <= 3; c++ {
					wg.Add(1)
					go func(client int, sh *shard.Shard) {
						defer wg.Done()
						for seq := 1; seq <= 8; seq++ {
							if err := driver.WriteValue(client, sh, value.Sequenced(client, seq, 64)); err != nil {
								t.Errorf("%s: client %d write %d: %v", sh.Name, client, seq, err)
								return
							}
						}
					}(10*i+c, sh)
				}
			}
			wg.Wait()
			// Quiesce: closing the remote side and the server waits out the
			// RMWs still in flight past their rounds' quorums.
			if driver != backing {
				driver.Close()
			}
			if srv != nil {
				_ = srv.Close()
			}
			cluster := backing.Cluster()
			blocks := 0
			for id := 0; id < cluster.N(); id++ {
				err := cluster.ReadObjectState(id, func(s dsys.State) {
					blocks += heldBlocks(t, fmt.Sprintf("object %d", id), reflect.ValueOf(s))
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if blocks < cluster.N() {
				t.Fatalf("found %d blocks in %d objects: the walk is not seeing the states", blocks, cluster.N())
			}
		})
	}
}
