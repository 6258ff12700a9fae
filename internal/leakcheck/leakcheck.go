// Package leakcheck fails a test binary whose tests leave goroutines behind.
// A package whose tests start servers, connections, lanes or clusters runs
// its tests through it:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle is how long the goroutine count may take to fall back after a
// passing run: what Close stops may still be on its way out.
const settle = 2 * time.Second

// Main runs the tests and exits with their code — or with 1 if they passed
// but the goroutine count has not settled back to where it started within
// settle, in which case it prints every goroutine's stack first. A fuzzing
// run is not checked: the fuzzing engine starts os/signal's goroutine, which
// lives as long as the process; the same targets' seed corpus runs checked
// under plain go test.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && !fuzzing() {
		deadline := time.Now().Add(settle)
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

// fuzzing reports whether the binary was asked to run a fuzz target, as the
// engine's coordinator or as one of its workers.
func fuzzing() bool {
	for _, name := range []string{"test.fuzz", "test.fuzzworker"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" && f.Value.String() != "false" {
			return true
		}
	}
	return false
}
