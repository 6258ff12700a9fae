package adaptive

import (
	"fmt"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
)

// encodeUpdate / decodeUpdate serialize the shared body of updateRMW and
// seedUpdateRMW (they differ only in idempotence handling, not in fields).
func encodeUpdate(u *updateRMW) []byte {
	var w register.WireWriter
	w.Grow(register.WireIntSize + 2*register.WireTSSize + register.ChunkWireSize(u.piece) + register.ChunksWireSize(u.full))
	w.Int(u.k)
	w.TS(u.ts)
	w.TS(u.storedTS)
	w.Chunk(u.piece)
	w.Chunks(u.full)
	return w.Finish()
}

func decodeUpdate(payload []byte) (updateRMW, error) {
	r := register.NewWireReader(payload)
	u := updateRMW{
		k:        r.Int(),
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

// encodeUpdateResp / decodeUpdateResp serialize the update round's response.
func encodeUpdateResp(resp any) ([]byte, error) {
	ur := resp.(updateResp)
	var w register.WireWriter
	w.Bool(ur.Stored)
	w.Bool(ur.ToVp)
	return w.Finish(), nil
}

func decodeUpdateResp(payload []byte) (any, error) {
	r := register.NewWireReader(payload)
	ur := updateResp{Stored: r.Bool(), ToVp: r.Bool()}
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
		Kind: "adaptive.update",
		Encode: func(rmw dsys.RMW) ([]byte, error) {
			return encodeUpdate(rmw.(*updateRMW)), nil
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
