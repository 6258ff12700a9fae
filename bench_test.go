// Benchmark harness: one benchmark per experiment in DESIGN.md's index
// (E1-E8), plus micro-benchmarks for the coding and register substrates.
// The experiment benchmarks report the measured storage (bits) through
// b.ReportMetric so that `go test -bench` regenerates the paper's analytic
// quantities; absolute ns/op numbers only characterize the simulator, not
// the paper's testbed. `make bench` compiles and runs each once; regressions
// are judged by the repository's benchmark (bench/, `make benchmark`), not here.
package spacebounds_test

import (
	"fmt"
	"testing"

	"spacebounds"
	"spacebounds/internal/adversary"
	"spacebounds/internal/erasure"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/register/ecreg"
	"spacebounds/internal/register/safereg"
	"spacebounds/internal/workload"
)

const benchDataLen = 1024 // 1 KiB values, D = 8192 bits

// BenchmarkAdaptiveStorageVsConcurrency is experiment E1 (Theorem 2,
// Corollary 3): the adaptive register's peak storage as concurrency grows.
func BenchmarkAdaptiveStorageVsConcurrency(b *testing.B) {
	for _, c := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("f=2/k=2/c=%d", c), func(b *testing.B) {
			var peak int
			for i := 0; i < b.N; i++ {
				reg, err := adaptive.New(register.Config{F: 2, K: 2, DataLen: benchDataLen})
				if err != nil {
					b.Fatal(err)
				}
				res, err := workload.Run(reg, workload.Spec{Writers: c, WritesPerWriter: 2})
				if err != nil {
					b.Fatal(err)
				}
				peak = res.MaxBaseObjectBits
			}
			b.ReportMetric(float64(peak), "storage-bits")
		})
	}
}

// BenchmarkAdaptiveQuiescentStorage is experiment E2 (Theorem 2 final clause):
// storage after all writes complete.
func BenchmarkAdaptiveQuiescentStorage(b *testing.B) {
	var quiescent int
	for i := 0; i < b.N; i++ {
		reg, err := adaptive.New(register.Config{F: 2, K: 2, DataLen: benchDataLen})
		if err != nil {
			b.Fatal(err)
		}
		res, err := workload.Run(reg, workload.Spec{Writers: 4, WritesPerWriter: 3})
		if err != nil {
			b.Fatal(err)
		}
		quiescent = res.QuiescentBaseObjectBits
	}
	b.ReportMetric(float64(quiescent), "storage-bits")
}

// BenchmarkStorageComparison is experiment E3 (Section 1, Corollary 2):
// replication vs. pure coding vs. adaptive under concurrency.
func BenchmarkStorageComparison(b *testing.B) {
	const f, c = 2, 8
	algorithms := map[string]func() (register.Register, error){
		"abd": func() (register.Register, error) {
			return safereg.NewABD(register.Config{F: f, K: 1, DataLen: benchDataLen})
		},
		"ecreg": func() (register.Register, error) {
			return ecreg.New(register.Config{F: f, K: f, DataLen: benchDataLen})
		},
		"adaptive": func() (register.Register, error) {
			return adaptive.New(register.Config{F: f, K: f, DataLen: benchDataLen})
		},
	}
	for _, name := range []string{"abd", "ecreg", "adaptive"} {
		mk := algorithms[name]
		b.Run(fmt.Sprintf("%s/c=%d", name, c), func(b *testing.B) {
			var peak int
			for i := 0; i < b.N; i++ {
				reg, err := mk()
				if err != nil {
					b.Fatal(err)
				}
				res, err := workload.Run(reg, workload.Spec{Writers: c, WritesPerWriter: 2})
				if err != nil {
					b.Fatal(err)
				}
				peak = res.MaxBaseObjectBits
			}
			b.ReportMetric(float64(peak), "storage-bits")
		})
	}
}

// BenchmarkAdversaryLowerBound is experiment E4 (Theorem 1): the storage the
// adversary Ad extracts from the coded baseline and the adaptive algorithm.
func BenchmarkAdversaryLowerBound(b *testing.B) {
	const f, k = 8, 8
	for _, tc := range []struct {
		name string
		mk   func() (register.Register, error)
	}{
		{"ecreg", func() (register.Register, error) { return ecreg.New(register.Config{F: f, K: k, DataLen: 512}) }},
		{"adaptive", func() (register.Register, error) { return adaptive.New(register.Config{F: f, K: k, DataLen: 512}) }},
	} {
		for _, c := range []int{4, 8} {
			b.Run(fmt.Sprintf("%s/c=%d", tc.name, c), func(b *testing.B) {
				var pinned, bound int
				for i := 0; i < b.N; i++ {
					reg, err := tc.mk()
					if err != nil {
						b.Fatal(err)
					}
					res, err := adversary.Run(reg, c, nil)
					if err != nil {
						b.Fatal(err)
					}
					pinned, bound = res.PinnedBaseObjectBits, res.LowerBoundBits
				}
				b.ReportMetric(float64(pinned), "pinned-bits")
				b.ReportMetric(float64(bound), "bound-bits")
			})
		}
	}
}

// BenchmarkSafeRegisterStorage is experiment E5 (Appendix E, Lemma 17): the
// safe register's constant n·D/k storage.
func BenchmarkSafeRegisterStorage(b *testing.B) {
	for _, c := range []int{1, 8} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			var peak int
			for i := 0; i < b.N; i++ {
				reg, err := safereg.New(register.Config{F: 2, K: 2, DataLen: benchDataLen})
				if err != nil {
					b.Fatal(err)
				}
				res, err := workload.Run(reg, workload.Spec{Writers: c, WritesPerWriter: 2})
				if err != nil {
					b.Fatal(err)
				}
				peak = res.MaxBaseObjectBits
			}
			b.ReportMetric(float64(peak), "storage-bits")
		})
	}
}

// BenchmarkAdversaryTrace is experiment E6 (Figure 3): the scheduling cost of
// pinning a 4-writer run.
func BenchmarkAdversaryTrace(b *testing.B) {
	const c = 4
	var pinned, steps int
	for i := 0; i < b.N; i++ {
		reg, err := ecreg.New(register.Config{F: 4, K: 4, DataLen: 256})
		if err != nil {
			b.Fatal(err)
		}
		res, err := adversary.Run(reg, c, nil)
		if err != nil {
			b.Fatal(err)
		}
		pinned, steps = res.PinnedBaseObjectBits, res.Steps
	}
	b.ReportMetric(float64(pinned), "pinned-bits")
	b.ReportMetric(float64(steps), "sched-steps")
}

// BenchmarkKAblation is experiment E7 (Section 5): quiescent storage as a
// function of the code parameter k.
func BenchmarkKAblation(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var quiescent int
			for i := 0; i < b.N; i++ {
				reg, err := adaptive.New(register.Config{F: 2, K: k, DataLen: benchDataLen})
				if err != nil {
					b.Fatal(err)
				}
				res, err := workload.Run(reg, workload.Spec{Writers: 4, WritesPerWriter: 2})
				if err != nil {
					b.Fatal(err)
				}
				quiescent = res.QuiescentBaseObjectBits
			}
			b.ReportMetric(float64(quiescent), "storage-bits")
		})
	}
}

// BenchmarkOperationLatency is experiment E8: end-to-end operation cost of
// each algorithm on the live (uncontrolled) runtime.
func BenchmarkOperationLatency(b *testing.B) {
	for _, algo := range []spacebounds.Algorithm{spacebounds.Adaptive, spacebounds.Replication, spacebounds.ErasureCoded, spacebounds.Safe} {
		b.Run(string(algo)+"/write+read", func(b *testing.B) {
			store, err := spacebounds.Open(spacebounds.Options{Algorithm: algo, F: 2, K: 2, ValueSize: benchDataLen})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			payload := make([]byte, benchDataLen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				payload[0] = byte(i)
				if err := store.WriteKey(1, "default", payload); err != nil {
					b.Fatal(err)
				}
				if _, err := store.ReadKey(2, "default"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReedSolomon measures the coding substrate itself: the repository
// benchmark's tcp-small shape (1 KiB at k=2, n=4), its tcp-large shape (64 KiB
// at k=4, n=8), and 64 KiB at three wider codes. Encode has two rows per
// shape: into a new list (Encode), and into a list on the caller's stack
// (EncodeTo, as a write encodes), which allocates only the parity blocks. Decode has three rows per
// shape: from the k data blocks (a copy — the systematic code's best case),
// with one data block replaced by a parity block (one shard reconstructed —
// what four tcp-large reads in five see, the first n-f responders rarely
// holding every data block), and from parity blocks alone (every shard
// reconstructed, the worst case).
func BenchmarkReedSolomon(b *testing.B) {
	for _, tc := range []struct {
		k, n, size int
		shape      string
	}{
		{2, 4, 1 << 10, "k=2/n=4/1KiB"}, {4, 8, 64 << 10, "k=4/n=8"},
		{2, 6, 64 << 10, "k=2/n=6"}, {4, 12, 64 << 10, "k=4/n=12"}, {8, 24, 64 << 10, "k=8/n=24"},
	} {
		rs, err := erasure.NewReedSolomon(tc.k, tc.n)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, tc.size)
		for i := range data {
			data[i] = byte(i * 31)
		}
		b.Run("encode/"+tc.shape, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rs.Encode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode-to/"+tc.shape, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var onStack [24]erasure.Block
				if _, err := rs.EncodeTo(onStack[:0], data); err != nil {
					b.Fatal(err)
				}
			}
		})
		blocks, err := rs.Encode(data)
		if err != nil {
			b.Fatal(err)
		}
		oneMissing := append(append([]erasure.Block(nil), blocks[1:tc.k]...), blocks[tc.k])
		for _, from := range []struct {
			name   string
			subset []erasure.Block
		}{
			{"all-data", blocks[:tc.k]},
			{"one-missing", oneMissing},
			{"all-parity", blocks[tc.n-tc.k:]},
		} {
			b.Run("decode/"+from.name+"/"+tc.shape, func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := rs.Decode(len(data), from.subset); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAdaptiveLiveThroughput measures raw operation throughput of the
// adaptive register on the live runtime with several concurrent clients.
func BenchmarkAdaptiveLiveThroughput(b *testing.B) {
	store, err := spacebounds.Open(spacebounds.Options{Algorithm: spacebounds.Adaptive, F: 2, K: 2, ValueSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	payload := make([]byte, 4096)
	b.RunParallel(func(pb *testing.PB) {
		client := 0
		for pb.Next() {
			client++
			if err := store.WriteKey(client%16+1, "default", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
