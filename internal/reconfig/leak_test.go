package reconfig

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. A move
// under test runs on a shard set, some over a controlled cluster whose
// coordinator and clients run on goroutines of their own; every set must be
// closed.
func TestMain(m *testing.M) { leakcheck.Main(m) }
