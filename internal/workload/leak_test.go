package workload_test

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. An
// open-loop run dispatches every operation on a goroutine and a scheduled
// move runs beside the clients; RunSharded must join them all.
func TestMain(m *testing.M) { leakcheck.Main(m) }
