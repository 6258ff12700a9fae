package safereg

import (
	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
)

// State codecs for snapshot persistence. An abd.state entry is the stored
// replica; a safe.state entry leads with the base-object index, which no code
// reads but the snapshot format carries.
func init() {
	registerStateCodec[abd]("abd.state", false)
	registerStateCodec[safe]("safe.state", true)
}

// registerStateCodec registers family F's state codec under kind: the stored
// piece, led by the object's index when indexed.
func registerStateCodec[F family](kind string, indexed bool) {
	register.RegisterStateCodec(register.StateCodec{
		Kind: kind,
		Encode: func(s dsys.State) ([]byte, error) {
			st := s.(*objectState[F])
			var w register.WireWriter
			if indexed {
				w.Int(st.index)
			}
			w.Chunk(st.chunk)
			return w.Finish(), nil
		},
		Decode: func(payload []byte) (dsys.State, error) {
			r := register.NewWireReader(payload)
			st := &objectState[F]{}
			if indexed {
				st.index = r.Int()
			}
			st.chunk = r.Chunk()
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return st, nil
		},
	}, &objectState[F]{})
}
