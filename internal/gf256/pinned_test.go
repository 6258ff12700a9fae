package gf256_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"spacebounds/internal/erasure"
	"spacebounds/internal/gf256"
)

// pinnedValue is a fixed n-byte pattern (a linear congruential sequence, so it
// depends on no library's generator).
func pinnedValue(n int) []byte {
	b, x := make([]byte, n), uint32(25)
	for i := range b {
		x = x*1103515245 + 12345
		b[i] = byte(x >> 16)
	}
	return b
}

// blocksDigest is the SHA-256 of every block in turn: index, length, bytes.
func blocksDigest(blocks []erasure.Block) string {
	h := sha256.New()
	for _, b := range blocks {
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[:8], uint64(b.Index))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(len(b.Data)))
		h.Write(hdr[:])
		h.Write(b.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedDigests were computed by this file's code on the commit before the
// vector kernel existed (PR 24, f0bb72b).
var pinnedDigests = map[string]string{
	"rs(2,4)/1024":  "5a753bb9b34ec464d5efeee5a5a85b56e13a2f35c1d7c7b87c6682879199c495",
	"rs(2,6)/1024":  "3128ae1d61f4e78658071953db0eb6b8a7206d32f54e98fdb47561d3e2f9d43a",
	"rs(4,8)/1024":  "e253b70756b71ed11ad82de25c98c95ba70513fea988e48fc51eb167f868e5da",
	"rs(2,4)/4099":  "dd4102426d62e081f7bf7cfad0b9bea16fe094453dd4835c6df56b486ad4f66e",
	"rs(2,6)/4099":  "f7d54f69af4d884a12cc784536a9720ad043489ff1dbfd33f49d5c308aeb9d2d",
	"rs(4,8)/4099":  "24b42353a70a4a42c122e300b4a4e8c4c5e0bfb51ad4f29d47bc655f1296eccd",
	"rs(2,4)/65536": "773cebbe4736273fd4faa628700a2d390653ab95693e981ce03a7d2af1c197f7",
	"rs(2,6)/65536": "7afa7d59e91355d5abb4b098aa87483fd35aba958f7daf620666a4f06c7c1fce",
	"rs(4,8)/65536": "1f50072d5d5b55d30e6bbba360ce0e2585265595894c32391960d2a99d31dda8",
}

// TestParityBytesArePinned is the interoperability guard: the blocks of a
// value are bit for bit what the table-lookup kernels of earlier builds
// produced, on the vector kernel and on the portable loops, so pieces held by
// base objects, WAL records and snapshots written by either mix freely. It
// lives here, not in internal/erasure, because only this package's tests can
// switch the kernel.
func TestParityBytesArePinned(t *testing.T) {
	gf256.EachKernel(t, func(t *testing.T) {
		for _, n := range []int{1 << 10, 4<<10 + 3, 64 << 10} {
			value := pinnedValue(n)
			for _, kn := range [][2]int{{2, 4}, {2, 6}, {4, 8}} {
				code := erasure.MustReedSolomon(kn[0], kn[1])
				blocks, err := code.Encode(value)
				if err != nil {
					t.Fatal(err)
				}
				checkPinned(t, fmt.Sprintf("%s/%d", code.Name(), n), blocks)
			}
		}
	})
}

func checkPinned(t *testing.T, name string, blocks []erasure.Block) {
	t.Helper()
	if got := blocksDigest(blocks); got != pinnedDigests[name] {
		t.Errorf("%s: blocks hash to %s, pinned %q", name, got, pinnedDigests[name])
	}
}
