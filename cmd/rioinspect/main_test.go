package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nvmeof"
)

// TestEncodePrintsTable1Dwords: -encode prints every dword of the Rio write
// command for the attribute its flags name.
func TestEncodePrintsTable1Dwords(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-encode", "-initiator", "1", "-stream", "2", "-seq", "7", "-lba", "4096", "-blocks", "8"}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	a := core.Attr{Initiator: 1, Stream: 2, SeqStart: 7, SeqEnd: 7, Num: 1, ServerIdx: 1, LBA: 4096, Blocks: 8, Boundary: true}
	for i, dw := range nvmeof.RioWriteCommand(0, a) {
		if want := fmt.Sprintf("dword %02d: 0x%08X\n", i, dw); !strings.Contains(out.String(), want) {
			t.Errorf("missing %q", want)
		}
	}
	for _, want := range []string{"05:16-31 stream id       = 2", "06:00-31 initiator id    = 1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q", want)
		}
	}
	if t.Failed() {
		t.Log(out.String())
	}
}

// TestDemoDumpsOnePartitionPerInitiator: -demo walks the PMR partition of
// every initiator of its cluster.
func TestDemoDumpsOnePartitionPerInitiator(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-demo", "-initiators", "3"}, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	for i := 0; i < 3; i++ {
		if n := strings.Count(out.String(), fmt.Sprintf("PMR partition of initiator %d on target 0", i)); n != 1 {
			t.Errorf("partition of initiator %d printed %d times", i, n)
		}
	}
	if n := strings.Count(out.String(), "PMR partition of initiator"); n != 3 {
		t.Fatalf("%d partitions printed, want 3:\n%s", n, out.String())
	}
}
