package shard

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines behind: after a
// passing run the count must settle back to where it started within two
// seconds. A batch lane's leader, a parked caller and a routed move all run
// on goroutines the tests start, and each test must take them down.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "goroutines leaked: %d before the tests, %d after:\n%s\n",
				before, n, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}
