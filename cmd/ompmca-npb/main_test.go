package main

import (
	"strings"
	"testing"
)

// TestRun measures class S EP on both layers at 1 and 4 threads: every
// point of the panel must pass the kernel's self-verification.
func TestRun(t *testing.T) {
	var out strings.Builder
	args := []string{"-kernel", "EP", "-class", "S", "-threads", "1,4", "-calibrate=false", "-plot=false"}
	if err := run(args, &out); err != nil {
		t.Fatalf("%v\n%s", err, &out)
	}
	points := 0
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 6 || (f[0] != "native" && f[0] != "mca") {
			continue
		}
		points++
		if f[5] != "true" {
			t.Errorf("unverified point: %q", line)
		}
	}
	if points != 4 {
		t.Errorf("got %d panel points, want 4 (2 layers x 2 team sizes):\n%s", points, &out)
	}
}

// TestRunRejectsBadFlags: a bad class, board or team size is an error.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-class", "Z"},
		{"-board", "imx8"},
		{"-threads", "0"},
	} {
		var out strings.Builder
		if err := run(append([]string{"-kernel", "EP", "-calibrate=false"}, args...), &out); err == nil {
			t.Errorf("run(%v) accepted; output:\n%s", args, &out)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,24")
	if err != nil || len(got) != 3 || got[2] != 24 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "0", "1,-2"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) accepted", bad)
		}
	}
}

func TestPickBoard(t *testing.T) {
	for _, name := range []string{"t4240", "T4240RDB", "p4080", "P4080DS"} {
		if _, err := pickBoard(name); err != nil {
			t.Errorf("pickBoard(%q): %v", name, err)
		}
	}
	if _, err := pickBoard("imx8"); err == nil {
		t.Error("unknown board accepted")
	}
}

func TestMaxOf(t *testing.T) {
	if maxOf([]int{3, 24, 7}) != 24 || maxOf(nil) != 1 {
		t.Error("maxOf wrong")
	}
}
