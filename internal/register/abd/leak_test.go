package abd_test

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. Every
// test drives the register against a cluster whose coordinator and clients
// run on goroutines of their own, and must close it.
func TestMain(m *testing.M) { leakcheck.Main(m) }
