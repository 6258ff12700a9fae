package node

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. A
// node runs a cluster, and optionally a server, a journal and a fault
// injector; Close must stop all of them.
func TestMain(m *testing.M) { leakcheck.Main(m) }
