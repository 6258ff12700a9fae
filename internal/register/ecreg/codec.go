package ecreg

import (
	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
)

// Wire codecs for the pure-erasure-coded register's RMW kinds, registered at
// init so that linking the provider makes its operations transportable.
func init() {
	register.RegisterCodec(register.Codec{
		Kind:     "ec.read",
		ReadOnly: true,
		Write:    register.EmptyPayload,
		DecodeInto: func(dst dsys.RMW, payload []byte) (dsys.RMW, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			// The answer's list keeps its capacity for Apply, and none of the
			// headers of the last answer.
			rr := register.Reuse[readRMW](dst)
			pieces := rr.resp.Pieces
			clear(pieces)
			*rr = readRMW{resp: readResp{Pieces: pieces[:0]}}
			return rr, nil
		},
		WriteResp: func(w *register.WireWriter, resp any) error {
			rr := resp.(*readResp)
			w.TS(rr.CommittedTS)
			w.Chunks(rr.Pieces)
			return nil
		},
		DecodeResp: func(sent dsys.RMW, payload []byte) (any, error) {
			// The headers land in the list the round gave the RMW, its window
			// of one (readRound): a quiescent object's answer allocates none.
			r := register.NewWireReader(payload)
			rr := &register.Reuse[readRMW](sent).resp
			*rr = readResp{CommittedTS: r.TS(), Pieces: r.ChunksAliasAppend(rr.Pieces[:0])}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return rr, nil
		},
	}, &readRMW{})

	register.RegisterCodec(register.Codec{
		Kind: "ec.store",
		Write: func(w *register.WireWriter, rmw dsys.RMW) error {
			w.Chunk(rmw.(*storeRMW).piece)
			return nil
		},
		DecodeInto: func(dst dsys.RMW, payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			u := register.Reuse[storeRMW](dst)
			*u = storeRMW{piece: r.ChunkAlias(), borrowed: true}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return u, nil
		},
		WriteResp:  register.WriteBoolResp,
		DecodeResp: register.DecodeBoolResp,
	}, &storeRMW{})

	register.RegisterCodec(register.Codec{
		Kind: "ec.seedstore",
		Write: func(w *register.WireWriter, rmw dsys.RMW) error {
			w.Chunk(rmw.(*seedStoreRMW).piece)
			return nil
		},
		DecodeInto: func(dst dsys.RMW, payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			u := register.Reuse[seedStoreRMW](dst)
			*u = seedStoreRMW{piece: r.ChunkAlias(), borrowed: true}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return u, nil
		},
		WriteResp:  register.WriteBoolResp,
		DecodeResp: register.DecodeBoolResp,
	}, &seedStoreRMW{})

	register.RegisterCodec(register.Codec{
		Kind: "ec.commit",
		Write: func(w *register.WireWriter, rmw dsys.RMW) error {
			w.TS(rmw.(*commitRMW).ts)
			return nil
		},
		DecodeInto: func(dst dsys.RMW, payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			u := register.Reuse[commitRMW](dst)
			*u = commitRMW{ts: r.TS()}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return u, nil
		},
		WriteResp:  register.WriteBoolResp,
		DecodeResp: register.DecodeBoolResp,
	}, &commitRMW{})
}
