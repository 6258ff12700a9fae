package register_test

import (
	"bytes"
	"context"
	"fmt"
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
// IDs. It also holds every RMW to its wire form: the RMW decoded from the
// bytes register.Wire gives it must make the same transition, from a copy of
// the object's state taken through the state codec, as the RMW itself makes
// through ApplyOne, and give the same answer. It loses every posted RMW bound
// for object 0, as a dropped connection may: then no GC repeats what an
// update carries there, so an update must carry it by itself.
type kindRecorder struct {
	backing *dsys.Cluster
	built   map[reflect.Type]bool
	checked map[string]int // RMWs of each kind held to their wire form
	wire    register.Wire
	env     []byte
	last    []dsys.RMW // what the wire decodes over, as a node's connection
}

func (r *kindRecorder) InvokeRound(_ context.Context, _ int, targets []int, makeRMW func(int) dsys.RMW, _ int) (map[int]any, error) {
	out := dsys.RoundResult()
	posted := false
	for _, g := range targets {
		rmw := makeRMW(g)
		r.built[reflect.TypeOf(rmw)] = true
		c, _ := register.CodecOf(rmw)
		posted = c.Posted
		if posted && g == 0 {
			continue // lost on the way: a legal delivery of a posted RMW
		}
		a, err := r.applyBothWays(g, c, rmw)
		if err != nil {
			dsys.ReleaseRoundResult(out)
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

// applyBothWays applies rmw to object g through ApplyOne, and the RMW decoded
// from rmw's envelope to a copy of g's state, and fails unless the two leave
// the same encoded state and give the same encoded answer.
func (r *kindRecorder) applyBothWays(g int, c register.Codec, rmw dsys.RMW) (any, error) {
	kind, before, err := r.encodedState(g)
	if err != nil {
		return nil, err
	}
	clone, err := register.DecodeState(kind, before)
	if err != nil {
		return nil, err
	}
	env, _, ok, err := r.wire.AppendRequest(r.env[:0], dsys.OpID{}, g, rmw)
	if err != nil || !ok {
		return nil, fmt.Errorf("encoding %T (codec found: %v): %v", rmw, ok, err)
	}
	r.env = env
	decoded, err := r.wire.DecodeRequest(env, &r.last)
	if err != nil {
		return nil, err
	}
	got := decoded.Apply(clone)
	want, err := r.backing.ApplyOne(g, rmw)
	if err != nil {
		return nil, err
	}
	_, after, err := r.encodedState(g)
	if err != nil {
		return nil, err
	}
	_, cloneAfter, err := register.EncodeState(clone)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(after, cloneAfter) {
		return nil, fmt.Errorf("%s on object %d: from state %x the RMW leaves %x, the RMW decoded from its wire bytes %x", c.Kind, g, before, after, cloneAfter)
	}
	wantResp, err := c.EncodeResp(want)
	if err != nil {
		return nil, err
	}
	gotResp, err := c.EncodeResp(got)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(wantResp, gotResp) {
		return nil, fmt.Errorf("%s on object %d: the RMW answers %x, the RMW decoded from its wire bytes %x", c.Kind, g, wantResp, gotResp)
	}
	r.checked[c.Kind]++
	return want, nil
}

// encodedState is object g's state through its state codec.
func (r *kindRecorder) encodedState(g int) (kind string, payload []byte, err error) {
	if rerr := r.backing.ReadObjectState(g, func(s dsys.State) { kind, payload, err = register.EncodeState(s) }); rerr != nil {
		return "", nil, rerr
	}
	return kind, payload, err
}

// TestEveryRoundRMWHasACodec: every RMW type the rounds of every provider
// build — in a seed write, writes and a read — has a registered codec. (An
// adaptive write's follow-up update is of its first update's type.) A
// controlled cluster delivers through the codecs and passes an RMW by pointer
// only when its type has none, so no provider's round ever takes that path:
// only test types do. And every kind those rounds send makes, decoded from
// its wire bytes, the transition the RMW itself makes (kindRecorder).
func TestEveryRoundRMWHasACodec(t *testing.T) {
	// adaptive runs at k = 3: object 0, which gets no GC, then keeps room in
	// Vp for every write, and each update there takes the lines 35-36 branch,
	// where the caller's storedTS trims Vp (at k = 2 the seed fills its Vp and
	// every later update answers NeedFull, changing nothing).
	for _, p := range []struct {
		name  string
		k     int
		types int // RMW types its rounds build
	}{{"adaptive", 3, 5}, {"abd", 1, 2}, {"ecreg", 2, 4}, {"safereg", 2, 2}} {
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
			rec := &kindRecorder{backing: backing, built: map[reflect.Type]bool{}, checked: map[string]int{}}
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
				c, ok := register.CodecOf(reflect.Zero(typ).Interface().(dsys.RMW))
				if !ok {
					t.Errorf("%s's rounds build a %v, which has no codec", provider, typ)
				} else if rec.checked[c.Kind] == 0 {
					t.Errorf("no %s RMW was held to its wire form", c.Kind)
				}
			}
			t.Logf("RMWs held to their wire form, by kind: %v", rec.checked)
		})
	}
}
