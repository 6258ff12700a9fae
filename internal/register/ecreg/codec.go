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
		Encode:   register.EmptyPayload,
		Decode: func(payload []byte) (dsys.RMW, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			return &readRMW{}, nil
		},
		EncodeResp: func(resp any) ([]byte, error) {
			rr := resp.(readResp)
			var w register.WireWriter
			w.Grow(register.WireTSSize + register.ChunksWireSize(rr.Pieces))
			w.TS(rr.CommittedTS)
			w.Chunks(rr.Pieces)
			return w.Finish(), nil
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
		Encode: func(rmw dsys.RMW) ([]byte, error) {
			u := rmw.(*storeRMW)
			var w register.WireWriter
			w.Grow(register.ChunkWireSize(u.piece))
			w.Chunk(u.piece)
			return w.Finish(), nil
		},
		Decode: func(payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			u := &storeRMW{piece: r.Chunk()}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return u, nil
		},
		EncodeResp: register.EncodeBoolResp,
		DecodeResp: register.DecodeBoolResp,
	}, &storeRMW{})

	register.RegisterCodec(register.Codec{
		Kind: "ec.seedstore",
		Encode: func(rmw dsys.RMW) ([]byte, error) {
			u := rmw.(*seedStoreRMW)
			var w register.WireWriter
			w.Grow(register.ChunkWireSize(u.piece))
			w.Chunk(u.piece)
			return w.Finish(), nil
		},
		Decode: func(payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			u := &seedStoreRMW{piece: r.Chunk()}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return u, nil
		},
		EncodeResp: register.EncodeBoolResp,
		DecodeResp: register.DecodeBoolResp,
	}, &seedStoreRMW{})

	register.RegisterCodec(register.Codec{
		Kind: "ec.commit",
		Encode: func(rmw dsys.RMW) ([]byte, error) {
			u := rmw.(*commitRMW)
			var w register.WireWriter
			w.TS(u.ts)
			return w.Finish(), nil
		},
		Decode: func(payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			u := &commitRMW{ts: r.TS()}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return u, nil
		},
		EncodeResp: register.EncodeBoolResp,
		DecodeResp: register.DecodeBoolResp,
	}, &commitRMW{})
}
