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
		Write:    register.EmptyPayload,
		DecodeInto: func(dst dsys.RMW, payload []byte) (dsys.RMW, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			rr := register.Reuse[readRMW](dst)
			*rr = readRMW{}
			return rr, nil
		},
		WriteResp: register.WriteChunkResp,
		DecodeResp: func(sent dsys.RMW, payload []byte) (any, error) {
			return register.DecodeChunkResp(&register.Reuse[readRMW](sent).resp, payload)
		},
	}, &readRMW{})

	register.RegisterCodec(register.Codec{
		Kind: "abd.update",
		Write: func(w *register.WireWriter, rmw dsys.RMW) error {
			w.Chunk(rmw.(*updateRMW).chunk)
			return nil
		},
		DecodeInto: func(dst dsys.RMW, payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			u := register.Reuse[updateRMW](dst)
			*u = updateRMW{chunk: r.ChunkAlias(), borrowed: true}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return u, nil
		},
		WriteResp:  register.WriteBoolResp,
		DecodeResp: register.DecodeBoolResp,
	}, &updateRMW{})
}
