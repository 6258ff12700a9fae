package dsys

import (
	"errors"
	"testing"
)

// TestSubReachesBeyondItsRegionOnlyFromAWholeHandle: the first region's
// handle has base 0 like a whole-cluster handle, and must still be refused
// every object outside its region; a whole handle follows the cluster as it
// grows; a handle derived by Sub is region-scoped, whatever its base.
func TestSubReachesBeyondItsRegionOnlyFromAWholeHandle(t *testing.T) {
	for name, mode := range map[string]Option{"live": WithLiveMode(), "controlled": WithControlledMode()} {
		t.Run(name, func(t *testing.T) {
			c := newTestCluster(6, mode) // two regions of three objects
			defer c.Close()
			c.Start()

			err := c.RunScoped(1, 0, 3, func(h *ClientHandle) error {
				if _, err := h.Sub(3, 3); !errors.Is(err, ErrUnknownObject) {
					t.Errorf("region 0's handle: Sub(3, 3) returned %v, want ErrUnknownObject", err)
				}
				_, err := h.Sub(1, 2)
				return err
			})
			if err != nil {
				t.Fatalf("region 0's handle: Sub(1, 2): %v", err)
			}

			err = c.RunScoped(2, 0, c.N(), func(h *ClientHandle) error {
				grown, err := c.ExtendObjects([]State{&testState{}, &testState{}, &testState{}})
				if err != nil {
					return err
				}
				sub, err := h.Sub(grown, 3)
				if err != nil {
					t.Errorf("whole handle: Sub into the region grown after it: %v", err)
					return nil
				}
				if _, err := sub.InvokeAll(func(int) RMW { return readCounterRMW{} }, 3); err != nil {
					t.Errorf("round on the grown region: %v", err)
				}
				first, err := h.Sub(0, 3)
				if err != nil {
					return err
				}
				if _, err := first.Sub(3, 3); !errors.Is(err, ErrUnknownObject) {
					t.Errorf("Sub(0, 3) of a whole handle: Sub(3, 3) returned %v, want ErrUnknownObject", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
