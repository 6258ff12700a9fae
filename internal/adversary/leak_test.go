package adversary_test

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. The
// adversary schedules a controlled cluster whose coordinator and clients run
// on goroutines of their own, and each run must close it.
func TestMain(m *testing.M) { leakcheck.Main(m) }
