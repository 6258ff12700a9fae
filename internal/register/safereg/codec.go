package safereg

import (
	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
)

// Wire codecs for both families' RMW kinds, registered at init so that
// linking the providers makes their operations transportable.
func init() {
	registerCodecs[abd]("abd")
	registerCodecs[safe]("safe")
}

// registerCodecs registers family F's RMW kinds, name.read and name.update.
func registerCodecs[F family](name string) {
	register.RegisterCodec(register.Codec{
		Kind:     name + ".read",
		ReadOnly: true,
		Write:    register.EmptyPayload,
		DecodeInto: func(dst dsys.RMW, payload []byte) (dsys.RMW, error) {
			if err := register.RequireEmpty(payload); err != nil {
				return nil, err
			}
			rr := register.Reuse[readRMW[F]](dst)
			*rr = readRMW[F]{}
			return rr, nil
		},
		WriteResp: register.WriteChunkResp,
		DecodeResp: func(sent dsys.RMW, payload []byte) (any, error) {
			return register.DecodeChunkResp(&register.Reuse[readRMW[F]](sent).resp, payload)
		},
	}, &readRMW[F]{})

	register.RegisterCodec(register.Codec{
		Kind: name + ".update",
		Write: func(w *register.WireWriter, rmw dsys.RMW) error {
			w.Chunk(rmw.(*updateRMW[F]).chunk)
			return nil
		},
		DecodeInto: func(dst dsys.RMW, payload []byte) (dsys.RMW, error) {
			r := register.NewWireReader(payload)
			u := register.Reuse[updateRMW[F]](dst)
			*u = updateRMW[F]{chunk: r.ChunkAlias(), borrowed: true}
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return u, nil
		},
		WriteResp:  register.WriteBoolResp,
		DecodeResp: register.DecodeBoolResp,
	}, &updateRMW[F]{})
}
