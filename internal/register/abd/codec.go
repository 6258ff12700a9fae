package abd

import (
	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
)

// Wire codecs for the ABD RMW kinds, registered at init so that linking the
// provider makes its operations transportable.
func init() {
	register.RegisterCodec(register.Codec{
		Kind:     "abd.read",
		ReadOnly: true,
		Encode:   register.EmptyPayload,
		Decode: func(payload []byte) (dsys.RMW, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			return &readRMW{}, nil
		},
		EncodeResp: register.EncodeChunkResp,
		DecodeResp: register.DecodeChunkResp,
	}, &readRMW{})

	register.RegisterCodec(register.Codec{
		Kind: "abd.update",
		Encode: func(rmw dsys.RMW) ([]byte, error) {
			u := rmw.(*updateRMW)
			var w register.WireWriter
			w.Grow(register.ChunkWireSize(u.chunk))
			w.Chunk(u.chunk)
			return w.Finish(), nil
		},
		Decode: func(payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			u := &updateRMW{chunk: r.Chunk()}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return u, nil
		},
		EncodeResp: register.EncodeBoolResp,
		DecodeResp: register.DecodeBoolResp,
	}, &updateRMW{})
}
