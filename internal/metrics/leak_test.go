package metrics

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. A
// metrics endpoint serves HTTP on goroutines of its own, and Close must stop
// them.
func TestMain(m *testing.M) { leakcheck.Main(m) }
