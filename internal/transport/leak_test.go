package transport

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. A
// server's accept loop and handlers, and a client connection's reader and
// sender, each own one, and Close must take every one of them down.
func TestMain(m *testing.M) { leakcheck.Main(m) }
