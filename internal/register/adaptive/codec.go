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

// decodeUpdate decodes the update payload over u, every field of it.
func decodeUpdate(u *updateRMW, payload []byte) error {
	r := register.NewWireReader(payload)
	k := r.Int()
	if k < 0 || k > math.MaxInt32 {
		return fmt.Errorf("%w: update with k = %d", register.ErrCodec, k)
	}
	*u = updateRMW{
		k:        int32(k),
		borrowed: true,
		ts:       r.TS(),
		storedTS: r.TS(),
		piece:    r.ChunkAlias(),
		full:     r.ChunksAlias(),
	}
	return r.Finish()
}

// writeUpdateResp / decodeUpdateResp serialize the update round's response:
// the two flags, which is all a client that sends its replica with every
// update ever gets, and after them a third byte on a NeedFull answer alone.
func writeUpdateResp(w *register.WireWriter, resp any) error {
	ur := resp.(updateResp)
	w.Bool(ur.has(respStored))
	w.Bool(ur.has(respToVp))
	if ur.has(respNeedFull) {
		w.Bool(true)
	}
	return nil
}

func decodeUpdateResp(_ dsys.RMW, payload []byte) (any, error) {
	r := register.NewWireReader(payload)
	var ur updateResp
	flag := func(f updateResp) {
		if r.Bool() {
			ur |= f
		}
	}
	flag(respStored)
	flag(respToVp)
	if len(payload) > 2 {
		flag(respNeedFull)
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
		DecodeInto: func(dst dsys.RMW, payload []byte) (dsys.RMW, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			// The answer's list keeps its capacity for Apply, and none of the
			// headers of the last answer.
			rr := register.Reuse[readValueRMW](dst)
			chunks := rr.resp.Chunks
			clear(chunks)
			*rr = readValueRMW{resp: readValueResp{Chunks: chunks[:0]}}
			return rr, nil
		},
		WriteResp: func(w *register.WireWriter, resp any) error {
			rr := resp.(*readValueResp)
			w.TS(rr.StoredTS)
			w.Chunks(rr.Chunks)
			return nil
		},
		DecodeResp: func(sent dsys.RMW, payload []byte) (any, error) {
			// The headers land in the list the round gave the RMW, its window
			// of one (readValue): a quiescent object's answer allocates none.
			r := register.NewWireReader(payload)
			rr := &register.Reuse[readValueRMW](sent).resp
			*rr = readValueResp{StoredTS: r.TS(), Chunks: r.ChunksAliasAppend(rr.Chunks[:0])}
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
		DecodeInto: func(dst dsys.RMW, payload []byte) (dsys.RMW, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			rt := register.Reuse[readTSRMW](dst)
			*rt = readTSRMW{}
			return rt, nil
		},
		WriteResp: func(w *register.WireWriter, resp any) error {
			rt := resp.(*readTSResp)
			w.TS(rt.StoredTS)
			w.Int(rt.MaxNum)
			return nil
		},
		DecodeResp: func(sent dsys.RMW, payload []byte) (any, error) {
			r := register.NewWireReader(payload)
			rt := &register.Reuse[readTSRMW](sent).resp
			*rt = readTSResp{StoredTS: r.TS(), MaxNum: r.Int()}
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
		DecodeInto: func(dst dsys.RMW, payload []byte) (dsys.RMW, error) {
			u := register.Reuse[updateRMW](dst)
			if err := decodeUpdate(u, payload); err != nil {
				return nil, err
			}
			return u, nil
		},
		WriteResp:  writeUpdateResp,
		DecodeResp: decodeUpdateResp,
	}, &updateRMW{})

	register.RegisterCodec(register.Codec{
		Kind: "adaptive.seedupdate",
		Write: func(w *register.WireWriter, rmw dsys.RMW) error {
			return writeUpdate(w, &rmw.(*seedUpdateRMW).updateRMW)
		},
		DecodeInto: func(dst dsys.RMW, payload []byte) (dsys.RMW, error) {
			u := register.Reuse[seedUpdateRMW](dst)
			if err := decodeUpdate(&u.updateRMW, payload); err != nil {
				return nil, err
			}
			return u, nil
		},
		WriteResp:  writeUpdateResp,
		DecodeResp: decodeUpdateResp,
	}, &seedUpdateRMW{})

	register.RegisterCodec(register.Codec{
		// A GC without a piece is this same layout around a zero chunk, whose
		// block is empty. Its answer is empty, and what it does — raise
		// storedTS, drop older pieces — a write's update round has already
		// made safe to lose (DESIGN.md, "A departure from Algorithm 2 as
		// printed: the posted GC round").
		Kind:   "adaptive.gc",
		Posted: true,
		Write: func(w *register.WireWriter, rmw dsys.RMW) error {
			g := rmw.(*gcRMW)
			w.TS(g.ts)
			w.Chunk(g.piece)
			return nil
		},
		DecodeInto: func(dst dsys.RMW, payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			g := register.Reuse[gcRMW](dst)
			*g = gcRMW{ts: r.TS(), piece: r.ChunkAlias(), borrowed: true}
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
		DecodeResp: func(_ dsys.RMW, payload []byte) (any, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			return gcResp{}, nil
		},
	}, &gcRMW{})
}
