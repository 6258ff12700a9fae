package spacebounds

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. A store,
// its batchers, journal and servers all own goroutines, and Close must take
// every one of them down.
func TestMain(m *testing.M) { leakcheck.Main(m) }
