package register_test

import (
	"context"
	"reflect"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/value"

	_ "spacebounds/internal/register/adaptive"
	_ "spacebounds/internal/register/ecreg"
	_ "spacebounds/internal/register/safereg"
)

// kindRecorder is a RoundInvoker that notes the type of every RMW a round
// builds and applies it to a live backing cluster, whose objects keep global
// IDs.
type kindRecorder struct {
	backing *dsys.Cluster
	built   map[reflect.Type]bool
}

func (r *kindRecorder) InvokeRound(_ context.Context, _ int, targets []int, makeRMW func(int) dsys.RMW, _ int) (map[int]any, error) {
	out := dsys.RoundResult()
	posted := false
	for _, g := range targets {
		rmw := makeRMW(g)
		r.built[reflect.TypeOf(rmw)] = true
		c, _ := register.CodecOf(rmw)
		posted = c.Posted
		a, err := r.backing.ApplyOne(g, rmw)
		if err != nil {
			return nil, err
		}
		out[g] = a
	}
	if posted {
		dsys.ReleaseRoundResult(out)
		return nil, nil
	}
	return out, nil
}

// TestEveryRoundRMWHasACodec: every RMW type the rounds of every provider
// build — in a seed write, writes and a read — has a registered codec. (An
// adaptive write's follow-up update is of its first update's type.) A
// controlled cluster delivers through the codecs and passes an RMW by pointer
// only when its type has none, so no provider's round ever takes that path:
// only test types do.
func TestEveryRoundRMWHasACodec(t *testing.T) {
	for _, p := range []struct {
		name  string
		k     int
		types int // RMW types its rounds build
	}{{"adaptive", 2, 5}, {"abd", 1, 2}, {"ecreg", 2, 4}, {"safereg", 2, 2}} {
		provider := p.name
		t.Run(provider, func(t *testing.T) {
			reg, err := register.NewByName(provider, register.Config{F: 1, K: p.k, DataLen: 8})
			if err != nil {
				t.Fatal(err)
			}
			n := reg.Config().N()
			states, err := reg.InitialStates(value.Zero(8))
			if err != nil {
				t.Fatal(err)
			}
			backing := dsys.NewCluster(states, dsys.WithLiveMode())
			defer backing.Close()
			rec := &kindRecorder{backing: backing, built: map[reflect.Type]bool{}}
			remote := dsys.NewRemoteCluster(n, rec)
			defer remote.Close()
			err = remote.RunScoped(1, 0, n, func(h *dsys.ClientHandle) error {
				if err := reg.WriteSeed(h, value.Sequenced(1, 1, 8)); err != nil {
					return err
				}
				for seq := 2; seq <= 4; seq++ {
					if err := reg.Write(h, value.Sequenced(1, seq, 8)); err != nil {
						return err
					}
				}
				_, err := reg.Read(h)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.built) != p.types {
				t.Errorf("the rounds built %d RMW types, want %d: %v", len(rec.built), p.types, rec.built)
			}
			for typ := range rec.built {
				if _, ok := register.CodecOf(reflect.Zero(typ).Interface().(dsys.RMW)); !ok {
					t.Errorf("%s's rounds build a %v, which has no codec", provider, typ)
				}
			}
		})
	}
}
