package adaptive

import (
	"fmt"
	"math"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
)

// writeUpdate writes the update payload, the shared body of updateRMW and
// seedUpdateRMW, which differ only in idempotence handling, not in fields: the
// update's own fields followed by the full replica — none on a write's first
// update, and on a follow-up's the k blocks of writeSet, which a sender's
// writer holds by reference, so that the replica costs a round a few headers
// per update and is copied nowhere before the socket.
func writeUpdate(w *register.WireWriter, u *updateRMW) error {
	w.Int(int(u.k))
	w.TS(u.ts)
	w.TS(u.storedTS)
	w.Chunk(u.piece)
	w.Chunks(u.full)
	return nil
}

func decodeUpdate(payload []byte) (updateRMW, error) {
	r := register.NewWireReader(payload)
	k := r.Int()
	if k < 0 || k > math.MaxInt32 {
		return updateRMW{}, fmt.Errorf("%w: update with k = %d", register.ErrCodec, k)
	}
	u := updateRMW{
		k:        int32(k),
		borrowed: true,
		ts:       r.TS(),
		storedTS: r.TS(),
		piece:    r.ChunkAlias(),
		full:     r.ChunksAlias(),
	}
	if err := r.Finish(); err != nil {
		return updateRMW{}, err
	}
	return u, nil
}

// writeUpdateResp / decodeUpdateResp serialize the update round's response:
// the two flags, which is all a client that sends its replica with every
// update ever gets, and after them a third byte on a NeedFull answer alone.
func writeUpdateResp(w *register.WireWriter, resp any) error {
	ur := resp.(updateResp)
	w.Bool(ur.Stored)
	w.Bool(ur.ToVp)
	if ur.NeedFull {
		w.Bool(true)
	}
	return nil
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
		Write:    register.EmptyPayload,
		Decode: func(payload []byte) (dsys.RMW, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			return &readValueRMW{}, nil
		},
		WriteResp: func(w *register.WireWriter, resp any) error {
			rr := resp.(readValueResp)
			w.TS(rr.StoredTS)
			w.Chunks(rr.Chunks)
			return nil
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
		Write:    register.EmptyPayload,
		Decode: func(payload []byte) (dsys.RMW, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			return &readTSRMW{}, nil
		},
		WriteResp: func(w *register.WireWriter, resp any) error {
			rt := resp.(readTSResp)
			w.TS(rt.StoredTS)
			w.Int(rt.MaxNum)
			return nil
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
		Write: func(w *register.WireWriter, rmw dsys.RMW) error {
			return writeUpdate(w, rmw.(*updateRMW))
		},
		Decode: func(payload []byte) (dsys.RMW, error) {
			u, err := decodeUpdate(payload)
			if err != nil {
				return nil, err
			}
			return &u, nil
		},
		WriteResp:  writeUpdateResp,
		DecodeResp: decodeUpdateResp,
	}, &updateRMW{})

	register.RegisterCodec(register.Codec{
		Kind: "adaptive.seedupdate",
		Write: func(w *register.WireWriter, rmw dsys.RMW) error {
			return writeUpdate(w, &rmw.(*seedUpdateRMW).updateRMW)
		},
		Decode: func(payload []byte) (dsys.RMW, error) {
			u, err := decodeUpdate(payload)
			if err != nil {
				return nil, err
			}
			return &seedUpdateRMW{updateRMW: u}, nil
		},
		WriteResp:  writeUpdateResp,
		DecodeResp: decodeUpdateResp,
	}, &seedUpdateRMW{})

	register.RegisterCodec(register.Codec{
		// A GC without a piece is this same layout around a zero chunk, whose
		// block is empty.
		Kind: "adaptive.gc",
		Write: func(w *register.WireWriter, rmw dsys.RMW) error {
			g := rmw.(*gcRMW)
			w.TS(g.ts)
			w.Chunk(g.piece)
			return nil
		},
		Decode: func(payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			g := &gcRMW{ts: r.TS(), piece: r.ChunkAlias(), borrowed: true}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return g, nil
		},
		WriteResp: func(_ *register.WireWriter, resp any) error {
			if _, ok := resp.(gcResp); !ok {
				return fmt.Errorf("%w: response %T is not gcResp", register.ErrCodec, resp)
			}
			return nil
		},
		DecodeResp: func(payload []byte) (any, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			return gcResp{}, nil
		},
	}, &gcRMW{})
}
