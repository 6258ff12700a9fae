package dsys

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. A
// controlled cluster's coordinator and every spawned client task run on
// goroutines of their own, and Close must join them.
func TestMain(m *testing.M) { leakcheck.Main(m) }
