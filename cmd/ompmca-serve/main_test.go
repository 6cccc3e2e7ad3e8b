package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"testing"
	"time"

	"openmpmca/internal/jobservice"
)

// readyLine matches the readiness line scripts and the crash campaign
// parse.
var readyLine = regexp.MustCompile(`^ompmca-serve: listening on (http://\S+)`)

// envelope is the service's JSON response wrapper.
type envelope struct {
	Type     string          `json:"type"`
	Metadata json.RawMessage `json:"metadata"`
	Error    string          `json:"error"`
}

// call issues one request as the smoke tenant and decodes the envelope's
// metadata into out.
func call(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "key-smoke")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("%s %s: decode envelope: %v", method, url, err)
	}
	if out != nil && env.Metadata != nil {
		if err := json.Unmarshal(env.Metadata, out); err != nil {
			t.Fatalf("%s %s: decode metadata: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestRunSmoke boots the server on an ephemeral port, settles one fib job
// and one parallel_for region byte-exact on its one fabric, checks that
// no second fabric's domains are listed, then shuts it down through the
// context.
func TestRunSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-domains", "2",
			"-tenant", "smoke:key-smoke:8:normal"}, pw)
		pw.Close()
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("no readiness line: %v (run: %v)", err, <-done)
	}
	m := readyLine.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("readiness line %q", line)
	}
	base := m[1]
	go io.Copy(io.Discard, pr)

	settle := func(req map[string]any, want []byte) {
		t.Helper()
		var v jobservice.JobView
		if code := call(t, http.MethodPost, base+"/v1/jobs", req, &v); code != http.StatusAccepted {
			t.Fatalf("submit %v: HTTP %d", req, code)
		}
		deadline := time.Now().Add(30 * time.Second)
		for v.Status != jobservice.StatusSucceeded {
			if v.Status == jobservice.StatusFailed || time.Now().After(deadline) {
				t.Fatalf("job %s: %+v", v.ID, v)
			}
			call(t, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%s?wait=2s", base, v.ID), nil, &v)
		}
		if !bytes.Equal(v.Result, want) {
			t.Errorf("%v: result %x, want %x", req, v.Result, want)
		}
	}
	settle(map[string]any{"job": jobservice.JobFib, "arg": jobservice.U64(40)}, jobservice.FibExpected(40))
	settle(map[string]any{"job": jobservice.KernelVecSum, "kind": jobservice.KindParallelFor, "n": 5000},
		jobservice.VecSumExpected(5000))

	var domains map[string]json.RawMessage
	call(t, http.MethodGet, base+"/v1/domains", nil, &domains)
	if _, ok := domains["offload"]; ok || domains["fabric"] == nil {
		t.Errorf("/v1/domains sections %v, want fabric only", domains)
	}
	var snap jobservice.Snapshot
	call(t, http.MethodGet, base+"/v1/stats", nil, &snap)
	if snap.Offload == nil || snap.Offload.Regions != 1 {
		t.Errorf("/v1/stats offload = %+v, want 1 region", snap.Offload)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}
