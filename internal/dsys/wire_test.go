package dsys

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"spacebounds/internal/oracle"
)

// blocksRMW stores the blocks it carries on a testState and answers with the
// object's counter.
type blocksRMW struct{ refs []BlockRef }

func (r *blocksRMW) Apply(s State) any {
	ts := s.(*testState)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.counter++
	ts.blocks = append(ts.blocks, r.refs...)
	return ts.counter
}

func (r *blocksRMW) AppendBlocks(dst []BlockRef) []BlockRef { return append(dst, r.refs...) }

// blocksWire carries a blocksRMW as its count of blocks and each block's
// source and size, and its answer as it stands. With drop set it loses the
// last block of every RMW it decodes. Any other RMW crosses by pointer.
type blocksWire struct{ drop bool }

func (blocksWire) AppendRequest(dst []byte, _ OpID, _ int, rmw RMW) ([]byte, bool, bool, error) {
	r, ok := rmw.(*blocksRMW)
	if !ok {
		return dst, false, false, nil
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.refs)))
	for _, b := range r.refs {
		for _, v := range []int{b.Source.Write.Client, b.Source.Write.Seq, b.Source.Index, b.Bits} {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	}
	return dst, false, true, nil
}

func (w blocksWire) DecodeRequest(env []byte, _ *[]RMW) (RMW, error) {
	next := func() int {
		v, n := binary.Uvarint(env)
		env = env[n:]
		return int(v)
	}
	r := &blocksRMW{refs: make([]BlockRef, next())}
	for i := range r.refs {
		r.refs[i] = BlockRef{Source: oracle.SourceTag{Write: oracle.WriteID{Client: next(), Seq: next()}, Index: next()}, Bits: next()}
	}
	if w.drop && len(r.refs) > 0 {
		r.refs = r.refs[:len(r.refs)-1]
	}
	return r, nil
}

func (blocksWire) Answer(_ RMW, resp any) (any, error) { return resp, nil }

// withWire runs fn with w installed as the wire of the clusters it makes.
func withWire(w Wire, fn func()) {
	saved := newWire
	InstallWire(func() Wire { return w })
	defer InstallWire(saved)
	fn()
}

// TestChannelCheckCatchesALostBlock: a controlled cluster checks at every
// delivery that the decoded RMW carries the blocks its channel was charged
// for at trigger. Over a wire that carries every block the run has no fault;
// over one that drops a block of every RMW it decodes, the cluster reports the
// first delivery's step, with both lists of blocks.
func TestChannelCheckCatchesALostBlock(t *testing.T) {
	const n = 3
	for _, drop := range []bool{false, true} {
		t.Run(fmt.Sprintf("drop=%v", drop), func(t *testing.T) {
			firstApply := -1
			var c *Cluster
			withWire(blocksWire{drop: drop}, func() {
				c = newTestCluster(n, WithEventLog(func(ev Event) {
					if ev.Kind == EventApply && firstApply < 0 {
						firstApply = ev.Step
					}
				}))
			})
			defer c.Close()
			task := c.Spawn(1, func(h *ClientHandle) error {
				op := h.BeginOp(OpWrite)
				defer h.EndOp()
				_, err := h.InvokeAll(func(obj int) RMW {
					return &blocksRMW{refs: []BlockRef{
						{Source: oracle.SourceTag{Write: op.WriteID(), Index: 2*obj + 1}, Bits: 32},
						{Source: oracle.SourceTag{Write: op.WriteID(), Index: 2*obj + 2}, Bits: 32},
					}}
				}, n)
				return err
			})
			c.Start()
			if reason := c.WaitIdle(); reason != IdleQuiesced {
				t.Fatalf("the run ended %s", reason)
			}
			if err := task.Wait(); err != nil {
				t.Fatal(err)
			}
			fault := c.WireFault()
			if !drop {
				if fault != nil {
					t.Fatalf("a wire that carries every block faulted: %v", fault)
				}
				return
			}
			if !errors.Is(fault, ErrWireFault) {
				t.Fatalf("a wire that drops a block of every RMW: fault %v, want ErrWireFault", fault)
			}
			if at := fmt.Sprintf("at step %d:", firstApply); !strings.Contains(fault.Error(), at) || !strings.Contains(fault.Error(), "charged") {
				t.Fatalf("fault %q does not name the first delivery (%s) and what its channel was charged", fault, at)
			}
		})
	}
}
