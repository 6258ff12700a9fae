package experiments

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. Every
// experiment runs its registers on controlled clusters, each with a
// coordinator and clients on goroutines of their own, and must close them.
func TestMain(m *testing.M) { leakcheck.Main(m) }
