package dsys

import (
	"context"
	"errors"
	"testing"
)

// fakeInvoker answers every target with a fixed value and records Close.
type fakeInvoker struct {
	closed bool
}

func (f *fakeInvoker) InvokeRound(ctx context.Context, client int, targets []int, makeRMW func(obj int) RMW, quorum int) (map[int]any, error) {
	out := make(map[int]any, len(targets))
	for _, obj := range targets {
		makeRMW(obj) // the transport always materializes the RMW to encode it
		out[obj] = obj
	}
	return out, nil
}

func (f *fakeInvoker) Close() error {
	f.closed = true
	return nil
}

func TestRemoteClusterDelegatesAndCloses(t *testing.T) {
	inv := &fakeInvoker{}
	c := NewRemoteCluster(3, inv)
	if got := c.remote; got != RoundInvoker(inv) {
		t.Fatalf("remote invoker = %v, want the dialed invoker", got)
	}
	if c.N() != 3 {
		t.Fatalf("N = %d, want 3", c.N())
	}
	// The placeholder states store no blocks: a remote cluster never charges
	// Definition-2 storage locally.
	if blocks := (emptyState{}).AppendBlocks(nil); blocks != nil {
		t.Fatalf("emptyState.AppendBlocks = %v, want nil", blocks)
	}
	c.Close()
	if !inv.closed {
		t.Fatal("Close did not shut the transport down")
	}
	// Closing a cluster whose invoker is not a Closer must not panic.
	NewRemoteCluster(1, roundInvokerFunc(func(ctx context.Context, client int, targets []int, makeRMW func(obj int) RMW, quorum int) (map[int]any, error) {
		return nil, nil
	})).Close()
}

type roundInvokerFunc func(ctx context.Context, client int, targets []int, makeRMW func(obj int) RMW, quorum int) (map[int]any, error)

func (f roundInvokerFunc) InvokeRound(ctx context.Context, client int, targets []int, makeRMW func(obj int) RMW, quorum int) (map[int]any, error) {
	return f(ctx, client, targets, makeRMW, quorum)
}

func TestRemoteClusterValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero objects", func() { NewRemoteCluster(0, &fakeInvoker{}) })
	mustPanic("nil invoker", func() { NewRemoteCluster(1, nil) })
	local := newTestCluster(2)
	defer local.Close()
	if local.remote != nil {
		t.Fatal("local cluster reports a remote invoker")
	}
}

// ApplyOne is the server-side entry point: its error surface is what the
// transport server maps onto envelope statuses.
func TestApplyOneLifecycleErrors(t *testing.T) {
	c := newTestCluster(4, WithLiveMode())
	rmw := addBlockRMW{bits: 8}

	if v, err := c.ApplyOne(1, rmw); err != nil || v.(int) != 1 {
		t.Fatalf("ApplyOne = (%v, %v), want (1, nil)", v, err)
	}
	if v, err := c.ApplyOne(1, readCounterRMW{}); err != nil || v.(int) != 1 {
		t.Fatalf("read after apply = (%v, %v), want (1, nil)", v, err)
	}

	if _, err := c.ApplyOne(-1, rmw); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("negative id: %v, want ErrUnknownObject", err)
	}
	if _, err := c.ApplyOne(4, rmw); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("out-of-range id: %v, want ErrUnknownObject", err)
	}

	if err := c.CrashObject(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyOne(2, rmw); !errors.Is(err, ErrObjectDown) {
		t.Fatalf("crashed object: %v, want ErrObjectDown", err)
	}

	if err := c.RetireObjects(3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyOne(3, rmw); !errors.Is(err, ErrRetiredObject) {
		t.Fatalf("retired object: %v, want ErrRetiredObject", err)
	}

	c.Close()
	if _, err := c.ApplyOne(0, rmw); !errors.Is(err, ErrHalted) {
		t.Fatalf("halted cluster: %v, want ErrHalted", err)
	}
}
