package safereg

import (
	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
)

// Wire codecs for the safe-register RMW kinds, registered at init so that
// linking the provider makes its operations transportable.
func init() {
	register.RegisterCodec(register.Codec{
		Kind:     "safe.read",
		ReadOnly: true,
		Write:    register.EmptyPayload,
		Decode: func(payload []byte) (dsys.RMW, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			return &readRMW{}, nil
		},
		WriteResp:  register.WriteChunkResp,
		DecodeResp: register.DecodeChunkResp,
	}, &readRMW{})

	register.RegisterCodec(register.Codec{
		Kind: "safe.update",
		Write: func(w *register.WireWriter, rmw dsys.RMW) error {
			w.Chunk(rmw.(*updateRMW).chunk)
			return nil
		},
		Decode: func(payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			u := &updateRMW{chunk: r.ChunkAlias(), borrowed: true}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return u, nil
		},
		WriteResp:  register.WriteBoolResp,
		DecodeResp: register.DecodeBoolResp,
	}, &updateRMW{})
}
