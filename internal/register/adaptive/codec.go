package adaptive

import (
	"fmt"
	"math"
	"sync"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
)

// The update payload — the shared body of updateRMW and seedUpdateRMW, which
// differ only in idempotence handling, not in fields — is the update's own
// fields followed by the full replica. Both encoders below are those two
// writers in that order; they differ only in where the bytes land.

func updateOwnSize(u *updateRMW) int {
	return register.WireIntSize + 2*register.WireTSSize + register.ChunkWireSize(u.piece)
}

func writeUpdateOwn(w *register.WireWriter, u *updateRMW) {
	w.Int(int(u.k))
	w.TS(u.ts)
	w.TS(u.storedTS)
	w.Chunk(u.piece)
}

// encodeUpdate returns the whole payload in one exactly sized buffer.
func encodeUpdate(u *updateRMW) []byte {
	var w register.WireWriter
	w.Grow(updateOwnSize(u) + register.ChunksWireSize(u.full))
	writeUpdateOwn(&w, u)
	w.Chunks(u.full)
	return w.Finish()
}

// encodeUpdateShared returns the same bytes in two runs: the update's own
// fields, and the full replica's encoding, which the updates of one follow-up
// round produce once and share. An update without a replica — a write's
// first — or one no writer built (a decoded one) has nothing to share and
// goes out whole.
func encodeUpdateShared(u *updateRMW) (own, shared []byte, err error) {
	if u.wire == nil {
		return encodeUpdate(u), nil, nil
	}
	u.wire.once.Do(func() {
		var w register.WireWriter
		w.Grow(register.ChunksWireSize(u.full))
		w.Chunks(u.full)
		u.wire.b = w.Finish()
	})
	var w register.WireWriter
	w.Grow(updateOwnSize(u))
	writeUpdateOwn(&w, u)
	return w.Finish(), u.wire.b, nil
}

// fullWire holds the wire encoding of one write's full replica. The update
// RMWs of the write's follow-up round point at one fullWire, and the first
// sender that ships one of them in two runs fills it in; rounds applied in
// process never do.
type fullWire struct {
	once sync.Once
	b    []byte
}

func decodeUpdate(payload []byte) (updateRMW, error) {
	r := register.NewWireReader(payload)
	k := r.Int()
	if k < 0 || k > math.MaxInt32 {
		return updateRMW{}, fmt.Errorf("%w: update with k = %d", register.ErrCodec, k)
	}
	u := updateRMW{
		k:        int32(k),
		ts:       r.TS(),
		storedTS: r.TS(),
		piece:    r.Chunk(),
		full:     r.ChunksAlias(),
	}
	if err := r.Finish(); err != nil {
		return updateRMW{}, err
	}
	return u, nil
}

// encodeUpdateResp / decodeUpdateResp serialize the update round's response:
// the two flags, which is all a client that sends its replica with every
// update ever gets, and after them a third byte on a NeedFull answer alone.
func encodeUpdateResp(resp any) ([]byte, error) {
	ur := resp.(updateResp)
	var w register.WireWriter
	w.Bool(ur.Stored)
	w.Bool(ur.ToVp)
	if ur.NeedFull {
		w.Bool(true)
	}
	return w.Finish(), nil
}

func decodeUpdateResp(payload []byte) (any, error) {
	r := register.NewWireReader(payload)
	ur := updateResp{Stored: r.Bool(), ToVp: r.Bool()}
	if len(payload) > 2 {
		ur.NeedFull = r.Bool()
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return ur, nil
}

// Wire codecs for the adaptive register's RMW kinds, registered at init so
// that linking the provider makes its operations transportable.
func init() {
	register.RegisterCodec(register.Codec{
		Kind:     "adaptive.read",
		ReadOnly: true,
		Encode:   register.EmptyPayload,
		Decode: func(payload []byte) (dsys.RMW, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			return &readValueRMW{}, nil
		},
		EncodeResp: func(resp any) ([]byte, error) {
			rr := resp.(readValueResp)
			var w register.WireWriter
			w.Grow(register.WireTSSize + register.ChunksWireSize(rr.Chunks))
			w.TS(rr.StoredTS)
			w.Chunks(rr.Chunks)
			return w.Finish(), nil
		},
		DecodeResp: func(payload []byte) (any, error) {
			r := register.NewWireReader(payload)
			rr := readValueResp{StoredTS: r.TS(), Chunks: r.ChunksAlias()}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return rr, nil
		},
	}, &readValueRMW{})

	register.RegisterCodec(register.Codec{
		Kind:     "adaptive.readts",
		ReadOnly: true,
		Encode:   register.EmptyPayload,
		Decode: func(payload []byte) (dsys.RMW, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			return &readTSRMW{}, nil
		},
		EncodeResp: func(resp any) ([]byte, error) {
			rt := resp.(readTSResp)
			var w register.WireWriter
			w.Grow(register.WireTSSize + register.WireIntSize)
			w.TS(rt.StoredTS)
			w.Int(rt.MaxNum)
			return w.Finish(), nil
		},
		DecodeResp: func(payload []byte) (any, error) {
			r := register.NewWireReader(payload)
			rt := readTSResp{StoredTS: r.TS(), MaxNum: r.Int()}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return rt, nil
		},
	}, &readTSRMW{})

	register.RegisterCodec(register.Codec{
		Kind: "adaptive.update",
		Encode: func(rmw dsys.RMW) ([]byte, error) {
			return encodeUpdate(rmw.(*updateRMW)), nil
		},
		EncodeShared: func(rmw dsys.RMW) ([]byte, []byte, error) {
			return encodeUpdateShared(rmw.(*updateRMW))
		},
		Decode: func(payload []byte) (dsys.RMW, error) {
			u, err := decodeUpdate(payload)
			if err != nil {
				return nil, err
			}
			return &u, nil
		},
		EncodeResp: encodeUpdateResp,
		DecodeResp: decodeUpdateResp,
	}, &updateRMW{})

	register.RegisterCodec(register.Codec{
		Kind: "adaptive.seedupdate",
		Encode: func(rmw dsys.RMW) ([]byte, error) {
			return encodeUpdate(&rmw.(*seedUpdateRMW).updateRMW), nil
		},
		EncodeShared: func(rmw dsys.RMW) ([]byte, []byte, error) {
			return encodeUpdateShared(&rmw.(*seedUpdateRMW).updateRMW)
		},
		Decode: func(payload []byte) (dsys.RMW, error) {
			u, err := decodeUpdate(payload)
			if err != nil {
				return nil, err
			}
			return &seedUpdateRMW{updateRMW: u}, nil
		},
		EncodeResp: encodeUpdateResp,
		DecodeResp: decodeUpdateResp,
	}, &seedUpdateRMW{})

	register.RegisterCodec(register.Codec{
		// A GC without a piece is this same layout around a zero chunk, whose
		// block is empty.
		Kind: "adaptive.gc",
		Encode: func(rmw dsys.RMW) ([]byte, error) {
			g := rmw.(*gcRMW)
			var w register.WireWriter
			w.Grow(register.WireTSSize + register.ChunkWireSize(g.piece))
			w.TS(g.ts)
			w.Chunk(g.piece)
			return w.Finish(), nil
		},
		Decode: func(payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			g := &gcRMW{ts: r.TS(), piece: r.Chunk()}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return g, nil
		},
		EncodeResp: func(resp any) ([]byte, error) {
			if _, ok := resp.(gcResp); !ok {
				return nil, fmt.Errorf("%w: response %T is not gcResp", register.ErrCodec, resp)
			}
			return nil, nil
		},
		DecodeResp: func(payload []byte) (any, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			return gcResp{}, nil
		},
	}, &gcRMW{})
}
