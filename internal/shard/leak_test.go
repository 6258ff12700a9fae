package shard

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. A batch
// lane's leader, a parked caller and a routed move all run on goroutines the
// tests start, and each test must take them down.
func TestMain(m *testing.M) { leakcheck.Main(m) }
