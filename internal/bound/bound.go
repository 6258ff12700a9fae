// Package bound holds every storage bound the program checks, in bits: the
// piece D/k a base object stores, Theorem 1's floor, Theorem 2's ceiling for
// the adaptive register and its quiescent clause, and the most one base
// object of each register provider ever holds. The experiments, the
// simulator, the adversary and the tests read the bounds from here and
// compute none of them themselves.
package bound

import "spacebounds/internal/register"

// Piece returns D/k: the bits of one code block as cfg's code stores it,
// ⌈DataLen/k⌉ bytes for Reed-Solomon and D for replication. cfg must be
// validated, as a register's Config is.
func Piece(cfg register.Config) int { return 8 * cfg.Code.BlockSizeBytes(cfg.DataLen, 1) }

// Quiescent returns n·D/k, Theorem 2's final clause: the adaptive register's
// storage once writes quiesce, one piece per base object. It is also the safe
// register's storage at every point (Appendix E, Lemma 17) and, at k = 1,
// abd's n·D.
func Quiescent(cfg register.Config) int { return cfg.N() * Piece(cfg) }

// Adaptive returns Theorem 2's ceiling on the adaptive register's base-object
// storage with c concurrent writes: (c+1)·n·D/k while c < k, and n·2D from
// c = k on, where every object holds at most k pieces in Vp and a replica in
// Vf. Adaptive(cfg, cfg.K) is that replication plateau.
func Adaptive(cfg register.Config, c int) int {
	if c < cfg.K {
		return (c + 1) * Quiescent(cfg)
	}
	return cfg.N() * 2 * cfg.K * Piece(cfg)
}

// Floor returns Theorem 1's lower bound on the storage of a regular register
// that tolerates f crashes under c concurrent writes of D = dBits bits, as the
// adversary with freezing threshold ℓ = ellBits pins it:
// min(f+1, c)·min(ℓ, D−ℓ).
func Floor(f, c, dBits, ellBits int) int {
	return min(f+1, c) * min(ellBits, dBits-ellBits)
}

// Object returns, for the named register provider with writes recorded on
// its register, the most one base object ever holds (ceiling) and the most
// one write that never returned may leave at a live object (leftBehind):
//   - adaptive: 2k·D/k (k pieces in Vp and a replica in Vf) and a replica;
//   - ecreg: (writes+2)·D/k (a piece per value the register took: its initial
//     value, a move's seed and each write) and a piece;
//   - abd and safereg: one block, overwritten in place, and nothing.
func Object(algorithm string, cfg register.Config, writes int) (ceiling, leftBehind int) {
	piece := Piece(cfg)
	switch algorithm {
	case "adaptive":
		return 2 * cfg.K * piece, cfg.K * piece
	case "ecreg":
		return (writes + 2) * piece, piece
	}
	return piece, 0
}
