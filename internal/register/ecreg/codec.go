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
		Decode: func(payload []byte) (dsys.RMW, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			return &readRMW{}, nil
		},
		WriteResp: func(w *register.WireWriter, resp any) error {
			rr := resp.(readResp)
			w.TS(rr.CommittedTS)
			w.Chunks(rr.Pieces)
			return nil
		},
		DecodeResp: func(payload []byte) (any, error) {
			r := register.NewWireReader(payload)
			rr := readResp{CommittedTS: r.TS(), Pieces: r.ChunksAlias()}
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
		Decode: func(payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			u := &storeRMW{piece: r.ChunkAlias(), borrowed: true}
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
		Decode: func(payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			u := &seedStoreRMW{piece: r.ChunkAlias(), borrowed: true}
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
		Decode: func(payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			u := &commitRMW{ts: r.TS()}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return u, nil
		},
		WriteResp:  register.WriteBoolResp,
		DecodeResp: register.DecodeBoolResp,
	}, &commitRMW{})
}
