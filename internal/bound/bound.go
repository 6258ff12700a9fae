// Package bound holds every storage bound the program checks, in bits: the
// piece D/k a base object stores, Theorem 1's floor, Theorem 2's ceiling for
// the adaptive register and its quiescent clause, and what the simulator's
// space rule allows a region of each register provider. The experiments, the
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

// Region returns the bits the space rule allows one region of the named
// register provider, whose register has taken writes writes and which has
// live non-crashed objects: at most ceiling at any one object, crashed or
// not, and from least to most over the live objects together.
//   - While writes run (quiesced false), c is the region's window c: most
//     is Adaptive(cfg, c) for adaptive, live·ceiling for any other provider,
//     and least is 0.
//   - At quiescence, c counts the writes that never returned, each of which
//     may leave left bits at a live object: least is live·D/k, Theorem 2's
//     final clause, and most is live·min(D/k + c·left, ceiling).
//
// The ceiling and left, per provider:
//   - adaptive: 2k·D/k (k pieces in Vp and a replica in Vf) and a replica;
//   - ecreg: (writes+2)·D/k (a piece per value the register took: its initial
//     value, a move's seed and each write) and a piece;
//   - abd, safereg and any other provider: one block, overwritten in place,
//     and nothing.
func Region(algorithm string, cfg register.Config, live, writes, c int, quiesced bool) (least, most, ceiling int) {
	piece := Piece(cfg)
	ceiling, left := piece, 0
	switch algorithm {
	case "adaptive":
		ceiling, left = 2*cfg.K*piece, cfg.K*piece
	case "ecreg":
		ceiling, left = (writes+2)*piece, piece
	}
	switch {
	case quiesced:
		return live * piece, live * min(piece+c*left, ceiling), ceiling
	case algorithm == "adaptive":
		return 0, Adaptive(cfg, c), ceiling
	}
	return 0, live * ceiling, ceiling
}
