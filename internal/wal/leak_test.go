package wal

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. A
// journal with snapshots runs its snapshotter on a goroutine of its own, and
// Close must stop it.
func TestMain(m *testing.M) { leakcheck.Main(m) }
