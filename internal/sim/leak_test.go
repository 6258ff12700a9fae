package sim

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. Every
// simulated run drives a controlled cluster whose coordinator and clients run
// on goroutines of their own, and the run must close it.
func TestMain(m *testing.M) { leakcheck.Main(m) }
