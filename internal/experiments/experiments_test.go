package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestFiguresContainBothTrees(t *testing.T) {
	var buf bytes.Buffer
	if err := Figures(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"Figure 1", "Figure 2", "read-TM", "write-TM", "O(x)"} {
		if !strings.Contains(out, frag) {
			t.Errorf("figures output missing %q", frag)
		}
	}
}

func TestModelChecksSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := ModelChecks(&buf, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"E1", "E2", "E3", "E4", "3/3 seeds"} {
		if !strings.Contains(out, frag) {
			t.Errorf("model checks output missing %q:\n%s", frag, out)
		}
	}
}

func TestAvailabilityTableShape(t *testing.T) {
	var buf bytes.Buffer
	if err := Availability(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The classic shape: read-one/write-all at n=3, p=0.99 has read
	// availability 1.000 and write 0.970.
	if !strings.Contains(out, "1.000/0.970") {
		t.Errorf("expected the known rowa n=3 p=0.99 cell:\n%s", out)
	}
	if !strings.Contains(out, "majority") {
		t.Error("majority rows missing")
	}
}

func TestMessagesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	var buf bytes.Buffer
	if err := Messages(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "read-one/write-all") {
		t.Errorf("messages table malformed:\n%s", buf.String())
	}
}

func TestNestingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	var buf bytes.Buffer
	if err := Nesting(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "depth") {
		t.Errorf("nesting table malformed:\n%s", buf.String())
	}
}

func TestFaultsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	var buf bytes.Buffer
	if err := Faults(&buf, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"healthy", "no reconfig", "reconfigured"} {
		if !strings.Contains(out, frag) {
			t.Errorf("faults table missing %q:\n%s", frag, out)
		}
	}
}

func TestLatencySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	var buf bytes.Buffer
	if err := Latency(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "read p50") {
		t.Errorf("latency table malformed:\n%s", buf.String())
	}
}
