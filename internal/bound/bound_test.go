package bound_test

import (
	"testing"

	"spacebounds/internal/bound"
	"spacebounds/internal/register"
)

func config(t *testing.T, f, k, dataLen int) register.Config {
	t.Helper()
	cfg, err := register.Config{F: f, K: k, DataLen: dataLen}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestPieceIsWhatTheCodeStores pins D/k to the code's block size: at k = 3 a
// 1024-byte value's piece is ⌈1024/3⌉ = 342 bytes, 2736 bits, not the 2730
// that ⌊D/k⌋ gives.
func TestPieceIsWhatTheCodeStores(t *testing.T) {
	for _, tc := range []struct{ f, k, dataLen, piece, quiescent int }{
		{1, 3, 1024, 2736, 5 * 2736},
		{1, 2, 1024, 4096, 4 * 4096},
		{2, 1, 100, 800, 5 * 800}, // replication: a piece is D and n·D/k is abd's n·D
	} {
		cfg := config(t, tc.f, tc.k, tc.dataLen)
		if got := bound.Piece(cfg); got != tc.piece {
			t.Errorf("f=%d k=%d DataLen=%d: Piece = %d bits, want %d", tc.f, tc.k, tc.dataLen, got, tc.piece)
		}
		if got := bound.Quiescent(cfg); got != tc.quiescent {
			t.Errorf("f=%d k=%d DataLen=%d: Quiescent = %d bits, want %d", tc.f, tc.k, tc.dataLen, got, tc.quiescent)
		}
	}
}

// TestAdaptiveChangesFormAtK checks Theorem 2's piecewise ceiling on either
// side of c = k: (c+1)·n·D/k below it, n·2D from it on. At c = k the
// min((c+1)·n·D/k, n·2D) form would give only (k+1)·n·D/k.
func TestAdaptiveChangesFormAtK(t *testing.T) {
	const dataLen = 1024 // D = 8192 bits
	for _, tc := range []struct{ f, k, below, plateau int }{
		{1, 2, 2 * 4 * 4096, 4 * 2 * 8192}, // n = 4, D/k = 4096
		{2, 4, 4 * 8 * 2048, 8 * 2 * 8192}, // n = 8, D/k = 2048
	} {
		cfg := config(t, tc.f, tc.k, dataLen)
		for c, want := range map[int]int{tc.k - 1: tc.below, tc.k: tc.plateau, tc.k + 1: tc.plateau} {
			if got := bound.Adaptive(cfg, c); got != want {
				t.Errorf("f=%d k=%d c=%d: Adaptive = %d bits, want %d", tc.f, tc.k, c, got, want)
			}
		}
	}
}

func TestFloor(t *testing.T) {
	const f, d = 2, 8192
	for _, tc := range []struct{ c, ell, want int }{
		{1, d / 2, d / 2},         // c < f+1: one heavy write
		{3, d / 2, 3 * d / 2},     // c = f+1
		{5, d / 2, 3 * d / 2},     // c > f+1: f+1 frozen objects
		{5, 1000, 3 * 1000},       // ℓ < D/2: the frozen objects' ℓ
		{2, 7000, 2 * (d - 7000)}, // ℓ > D/2: each write's D−ℓ
	} {
		if got := bound.Floor(f, tc.c, d, tc.ell); got != tc.want {
			t.Errorf("f=%d c=%d ℓ=%d: Floor = %d bits, want %d", f, tc.c, tc.ell, got, tc.want)
		}
	}
}

// TestObject pins Region's per-object side: each provider's ceiling, and
// what one write that never returned may leave at a live object, read off
// the quiescent form of a one-object region with one such write.
func TestObject(t *testing.T) {
	coded := config(t, 1, 2, 1024)      // D/k = 4096 bits
	replicated := config(t, 1, 1, 1024) // D = 8192 bits
	for _, tc := range []struct {
		algorithm           string
		cfg                 register.Config
		ceiling, leftBehind int
	}{
		{"adaptive", coded, 4 * 4096, 2 * 4096},
		{"ecreg", coded, (3 + 2) * 4096, 4096},
		{"safereg", coded, 4096, 0},
		{"abd", replicated, 8192, 0},
		{"planted", coded, 4096, 0}, // a provider the rule does not know: one block
	} {
		least, most, ceiling := bound.Region(tc.algorithm, tc.cfg, 1, 3, 1, true)
		piece := bound.Piece(tc.cfg)
		if ceiling != tc.ceiling || least != piece || most != min(piece+tc.leftBehind, tc.ceiling) {
			t.Errorf("%s after 3 writes, one unreturned: Region = (%d, %d, %d) bits, want ceiling %d and left behind %d",
				tc.algorithm, least, most, ceiling, tc.ceiling, tc.leftBehind)
		}
	}
}

// TestRegionWhileWritesRun: in flight, adaptive's live objects answer to
// Theorem 2 at the window c, and every other provider's to its ceiling per
// live object; nothing is owed below.
func TestRegionWhileWritesRun(t *testing.T) {
	cfg := config(t, 1, 2, 1024) // n = 4, D/k = 4096 bits
	for _, tc := range []struct {
		algorithm     string
		live, c, most int
	}{
		{"adaptive", 4, 1, bound.Adaptive(cfg, 1)},
		{"adaptive", 3, 2, bound.Adaptive(cfg, 2)}, // the plateau, crashed object or not
		{"safereg", 3, 5, 3 * 4096},
		{"ecreg", 4, 2, 4 * (3 + 2) * 4096},
	} {
		if least, most, _ := bound.Region(tc.algorithm, cfg, tc.live, 3, tc.c, false); least != 0 || most != tc.most {
			t.Errorf("%s, %d live, c = %d: Region = (%d, %d), want (0, %d)", tc.algorithm, tc.live, tc.c, least, most, tc.most)
		}
	}
}
