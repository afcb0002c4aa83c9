package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunWritesChromeTrace: a small run prints its stage table, and the
// file it writes decodes as Chrome trace_event JSON holding exactly the
// spans the run reports.
func TestRunWritesChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if code := run([]string{"-streams", "2", "-groups", "10", "-o", path}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "# 2 streams × 10 groups, 1-in-1 sampled") {
		t.Fatalf("no stage table:\n%s", out.String())
	}
	var spans int
	_, tail, _ := strings.Cut(out.String(), "wrote "+path+" (")
	if _, err := fmt.Sscanf(tail, "%d spans", &spans); err != nil || spans != 2*10 {
		t.Fatalf("reported %d spans (%v), want one per write:\n%s", spans, err, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	ids := map[any]bool{}
	for _, e := range tr.TraceEvents {
		if e.Ph != "M" {
			ids[e.Args["id"]] = true
		}
	}
	if len(ids) != spans {
		t.Fatalf("the file holds %d spans, the run reports %d", len(ids), spans)
	}
}
