package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun smokes one small attack per algorithm — one result line per
// concurrency level, each naming the register and its pinned storage — and
// the ways a command line can be wrong.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		lines   int
		prefix  string
		wantErr string
	}{
		{name: "ecreg", args: []string{"-algo", "ecreg", "-f", "2", "-k", "2", "-size", "64", "-c", "1,3"}, lines: 2, prefix: "ecreg"},
		{name: "adaptive", args: []string{"-algo", "adaptive", "-f", "2", "-k", "2", "-size", "64", "-c", "2"}, lines: 1, prefix: "adaptive"},
		{name: "safe", args: []string{"-algo", "safe", "-f", "2", "-k", "2", "-size", "64", "-c", "2"}, lines: 1, prefix: "safe"},
		{name: "unknown flag", args: []string{"-no-such-flag"}, wantErr: "not defined"},
		{name: "unknown algorithm", args: []string{"-algo", "paxos"}, wantErr: "unknown algorithm"},
		{name: "bad concurrency list", args: []string{"-c", "1,x"}, wantErr: "bad concurrency level"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("run(%v) = %v, want an error containing %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if len(lines) != tc.lines {
				t.Fatalf("run(%v) printed %d lines, want %d:\n%s", tc.args, len(lines), tc.lines, out.String())
			}
			for _, l := range lines {
				if !strings.HasPrefix(l, tc.prefix) || !strings.Contains(l, "pinned storage") {
					t.Errorf("unexpected result line %q", l)
				}
			}
		})
	}
}
