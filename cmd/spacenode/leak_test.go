package main

import (
	"testing"

	"spacebounds/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind. run
// starts a node's listener and its metrics and trace endpoints in-process,
// and the end-to-end tests read child processes' output on goroutines of
// their own; each test must stop what it started.
func TestMain(m *testing.M) { leakcheck.Main(m) }
