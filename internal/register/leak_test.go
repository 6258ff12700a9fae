package register

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. The
// codec and ownership tests run live clusters and journals, and must close
// them.
func TestMain(m *testing.M) { leakcheck.Main(m) }
