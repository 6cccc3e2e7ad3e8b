package main

import (
	"strings"
	"testing"
)

// TestRun measures a small Table I on two team sizes with every optional
// section on: the relative table, both layers' schedule and array
// sweeps, and the absolute overheads.
func TestRun(t *testing.T) {
	var out strings.Builder
	args := []string{"-threads", "4,8", "-inner", "16", "-outer", "3", "-sched", "-array", "-absolute"}
	if err := run(args, &out); err != nil {
		t.Fatalf("%v\n%s", err, &out)
	}
	for _, want := range []string{
		"TABLE I: Relative overhead",
		"Reduction ",
		"[native layer] EPCC schedbench",
		"[mca layer] EPCC schedbench",
		"[native layer] EPCC arraybench",
		"[mca layer] EPCC arraybench",
		"Absolute overheads (µs, median):",
		"reduction      mca:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, &out)
		}
	}
}

// TestRunRejectsBadFlags: out-of-range repetition and delay counts are
// errors, not silently replaced by defaults.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-inner", "0"},
		{"-outer", "-2"},
		{"-delay", "-9"},
	} {
		var out strings.Builder
		if err := run(append([]string{"-threads", "4", "-inner", "1", "-outer", "1"}, args...), &out); err == nil {
			t.Errorf("run(%v) accepted; output:\n%s", args, &out)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("4,8, 12")
	if err != nil || len(got) != 3 || got[2] != 12 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a", "-4"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) accepted", bad)
		}
	}
}

func TestPickBoard(t *testing.T) {
	b, err := pickBoard("p4080ds")
	if err != nil || b.Cores != 8 {
		t.Errorf("pickBoard = %v, %v", b, err)
	}
	if _, err := pickBoard("zynq"); err == nil {
		t.Error("unknown board accepted")
	}
}

func TestRuntimeFor(t *testing.T) {
	b, _ := pickBoard("t4240")
	for _, layer := range []string{"native", "mca"} {
		rt, err := runtimeFor(b, layer, 4)
		if err != nil {
			t.Fatalf("%s: %v", layer, err)
		}
		if rt.NumThreads() != 4 {
			t.Errorf("%s threads = %d", layer, rt.NumThreads())
		}
		_ = rt.Close()
	}
}
