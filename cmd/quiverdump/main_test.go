package main

import (
	"bytes"
	"strings"
	"testing"
)

func runDump(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestPairWithoutDestinationIsUsageError: "-pair L3" has no "-" and once
// indexed past the end of the split.
func TestPairWithoutDestinationIsUsageError(t *testing.T) {
	code, out, errs := runDump("-pair", "L3")
	if code != 2 || !strings.Contains(errs, "bad -pair") || out != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 with a -pair usage error", code, out, errs)
	}
}

// TestFailRejectsUnknownSpine: on a 3-spine fabric "L0-S9" names no spine
// and must not fall back to failing L0-S0.
func TestFailRejectsUnknownSpine(t *testing.T) {
	for _, arg := range []string{"L0-S9", "L0-S3", "L0-S-1"} {
		code, out, errs := runDump("-spines", "3", "-fail", arg)
		if code != 2 || !strings.Contains(errs, "out of range") {
			t.Fatalf("-fail %s: exit %d, stderr %q; want exit 2, spine out of range", arg, code, errs)
		}
		if strings.Contains(out, "failed") {
			t.Fatalf("-fail %s: reported a failed link: %q", arg, out)
		}
	}
	if code, _, errs := runDump("-fail", "L7-S0"); code != 2 || !strings.Contains(errs, "L7 out of range") {
		t.Fatalf("-fail L7-S0: exit %d, stderr %q; want leaf out of range", code, errs)
	}
}

// TestPairPrintsComponentsWithMemberPaths is the Fig. 4 walk-through:
// after L0-S0 fails, L3→L1 splits into {via S0} with weight 1 and
// {via S1, via S2} with weight 2, each listing its member paths.
func TestPairPrintsComponentsWithMemberPaths(t *testing.T) {
	code, out, errs := runDump("-fail", "L0-S0", "-pair", "L3-L1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	want := `failed L0-S0

L3 -> L1: 2 symmetric component(s)
  component 0  weight=1  capacity=40Gbps
    L3 -> S0 -> L1
  component 1  weight=2  capacity=80Gbps
    L3 -> S1 -> L1
    L3 -> S2 -> L1
`
	if out != want {
		t.Fatalf("stdout:\n%s\nwant:\n%s", out, want)
	}
}

func TestUnknownTopology(t *testing.T) {
	if code, _, errs := runDump("-topo", "torus"); code != 2 || !strings.Contains(errs, "unknown topology") {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
}
