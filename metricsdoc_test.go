package spacebounds_test

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"spacebounds"
	"spacebounds/internal/node"
	"spacebounds/internal/register"
	"spacebounds/internal/shard"
	"spacebounds/internal/value"
)

// docFamily is one row of the docs/METRICS.md reference tables.
type docFamily struct {
	Type   string
	Labels []string
}

// metricRow matches a table row documenting one family: the first cell holds
// the backticked metric name, the second the type, the third the label keys.
var metricRow = regexp.MustCompile("^\\|\\s*`(spacebounds_[a-z_]+)`\\s*\\|([^|]*)\\|([^|]*)\\|")

// backticked pulls every `token` out of a table cell.
var backticked = regexp.MustCompile("`([^`]+)`")

// parseMetricsDoc reads the reference tables out of docs/METRICS.md.
func parseMetricsDoc(t *testing.T) map[string]docFamily {
	t.Helper()
	data, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := make(map[string]docFamily)
	for _, line := range strings.Split(string(data), "\n") {
		m := metricRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		if _, dup := doc[name]; dup {
			t.Errorf("docs/METRICS.md documents %s twice", name)
		}
		var labels []string
		for _, lm := range backticked.FindAllStringSubmatch(m[3], -1) {
			labels = append(labels, lm[1])
		}
		doc[name] = docFamily{Type: strings.TrimSpace(m[2]), Labels: labels}
	}
	if len(doc) == 0 {
		t.Fatal("docs/METRICS.md has no metric rows; is the table format intact?")
	}
	return doc
}

// TestMetricsDocSync proves docs/METRICS.md enumerates exactly the metric
// families the system registers — no more, no fewer, with matching types and
// label keys. It exercises every instrumented subsystem against one registry:
// a batched store (quorum engine, batching, reconfiguration) plus a TCP
// client/server pair (both transport sides), mirroring how a real deployment
// shares a registry.
func TestMetricsDocSync(t *testing.T) {
	reg := spacebounds.NewMetrics()

	store, err := spacebounds.Open(spacebounds.Options{
		ValueSize:  64,
		Shards:     []spacebounds.ShardSpec{{Name: "a"}, {Name: "b"}},
		Batch:      spacebounds.BatchOptions{MaxSize: 4},
		Durability: spacebounds.Durability{Dir: t.TempDir()},
		Metrics:    reg,
		Trace:      spacebounds.NewTracer(spacebounds.TraceOptions{Sample: 1, Metrics: reg}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.WriteKey(1, "a", []byte("doc-sync")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReadKey(2, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.SplitShard("b"); err != nil {
		t.Fatal(err)
	}

	// One write over real TCP, through the assembly spacenode and the
	// spacebench client use, registers (and exercises) both transport sides
	// and whatever else the assembly instruments.
	wire := node.Config{
		Shards:  []shard.Spec{{Name: "wire", Algorithm: "abd", Config: register.Config{F: 1, DataLen: 16}}},
		Metrics: reg,
	}
	backing, err := node.Open(wire)
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	addr, err := backing.Serve("127.0.0.1:0", 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	client, err := node.Connect([]string{addr.String()}, wire)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Set().Write(1, "wire", value.FromBytes(make([]byte, 16))); err != nil {
		t.Fatal(err)
	}

	doc := parseMetricsDoc(t)
	seen := make(map[string]bool)
	for _, fam := range reg.Families() {
		seen[fam.Name] = true
		row, ok := doc[fam.Name]
		if !ok {
			t.Errorf("registry has %s (%v%s) but docs/METRICS.md does not document it",
				fam.Name, fam.Type, labelSuffix(fam.LabelKeys))
			continue
		}
		if row.Type != fam.Type.String() {
			t.Errorf("%s: docs/METRICS.md says type %q, registry says %q", fam.Name, row.Type, fam.Type)
		}
		if fmt.Sprint(row.Labels) != fmt.Sprint(fam.LabelKeys) {
			t.Errorf("%s: docs/METRICS.md says labels %v, registry says %v", fam.Name, row.Labels, fam.LabelKeys)
		}
	}
	for name := range doc {
		if !seen[name] {
			t.Errorf("docs/METRICS.md documents %s but nothing registers it", name)
		}
	}
	if t.Failed() {
		t.Log("update docs/METRICS.md (or the metric registration) so the reference and the registry agree")
	}
}

// labelSuffix renders label keys for error messages.
func labelSuffix(keys []string) string {
	if len(keys) == 0 {
		return ""
	}
	return " labeled by " + strings.Join(keys, ",")
}
