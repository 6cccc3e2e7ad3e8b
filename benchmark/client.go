package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"openmpmca/internal/jobservice"
)

// longPoll is the ?wait the client grants a job; expiry is a failed
// operation, never retried.
const longPoll = "10s"

// client is one closed-loop caller: one tenant, one keep-alive
// connection.
type client struct {
	tr   *http.Transport
	hc   *http.Client
	base string
	key  string
}

func newClient(base, key string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	// The timeout is a backstop against a hung server, far above any
	// latency the workloads produce; hitting it is a failed operation.
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base, key: key}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// envelope is the service's response wrapper with the metadata typed.
type envelope[T any] struct {
	Type     string `json:"type"`
	Metadata T      `json:"metadata"`
	Error    string `json:"error"`
}

// drainClose reads a response to its end before closing it: net/http
// reuses a keep-alive connection only after a fully read body, and the
// one-connection-per-client load shape depends on reuse.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func (c *client) request(method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-API-Key", c.key)
	return c.hc.Do(req)
}

// call issues one request and decodes the envelope's metadata into T. Any
// status other than want is an error: the benchmark's workloads are built
// so that nothing is refused.
func call[T any](c *client, method, path string, body []byte, want int) (T, error) {
	var env envelope[T]
	resp, err := c.request(method, path, body)
	if err != nil {
		return env.Metadata, err
	}
	defer drainClose(resp)
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return env.Metadata, fmt.Errorf("%s %s: bad envelope: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return env.Metadata, fmt.Errorf("%s %s: HTTP %d (want %d): %s", method, path, resp.StatusCode, want, env.Error)
	}
	return env.Metadata, nil
}

// verify is the oracle for one settled job: terminal success and the
// exact expected bytes.
func verify(in *jobInput, v *jobservice.JobView) error {
	if v.Status != jobservice.StatusSucceeded {
		return fmt.Errorf("job %s (%s): status %q, error %q", v.ID, in.Job, v.Status, v.Error)
	}
	if !bytes.Equal(v.Result, in.Want) {
		return fmt.Errorf("job %s (%s): result differs from expected (%d vs %d bytes)", v.ID, in.Job, len(v.Result), len(in.Want))
	}
	return nil
}

// jobTimes are the client-side instants of one single-job operation, as
// unix nanoseconds so they sit on the same axis as the server's
// submitted_at and at_ns.
type jobTimes struct {
	post     int64 // POST about to be sent
	accepted int64 // 202 decoded
	done     int64 // result bytes verified
	view     jobservice.JobView
}

// runJob is one svc_small / svc_durable / svc_payload operation:
// POST /v1/jobs, then long-poll until settled, then verify.
func (c *client) runJob(in *jobInput) (jobTimes, error) {
	var jt jobTimes
	jt.post = time.Now().UnixNano()
	v, err := call[jobservice.JobView](c, http.MethodPost, "/v1/jobs", in.body, http.StatusAccepted)
	if err != nil {
		return jt, err
	}
	jt.accepted = time.Now().UnixNano()
	jt.view, err = call[jobservice.JobView](c, http.MethodGet, "/v1/jobs/"+v.ID+"?wait="+longPoll, nil, http.StatusOK)
	if err != nil {
		return jt, err
	}
	if err := verify(in, &jt.view); err != nil {
		return jt, err
	}
	jt.done = time.Now().UnixNano()
	return jt, nil
}

// getJob re-reads a settled job (the restart sample).
func (c *client) getJob(id string) (jobservice.JobView, error) {
	return call[jobservice.JobView](c, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK)
}

// jobEvents dumps a settled job's progress log.
func (c *client) jobEvents(id string) ([]jobservice.JobEvent, error) {
	resp, err := c.request(http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET events %s: HTTP %d", id, resp.StatusCode)
	}
	var evs []jobservice.JobEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var e jobservice.JobEvent
		if err := dec.Decode(&e); err == io.EOF {
			return evs, nil
		} else if err != nil {
			return nil, err
		}
		evs = append(evs, e)
	}
}

func (c *client) stats() (jobservice.Snapshot, error) {
	return call[jobservice.Snapshot](c, http.MethodGet, "/v1/stats", nil, http.StatusOK)
}

// streamLine is one NDJSON line of GET /v1/groups/{id}/stream.
type streamLine struct {
	Type  string               `json:"type"` // job | progress | drained
	Job   *jobservice.JobView  `json:"job"`
	JobID string               `json:"job_id"`
	Event *jobservice.JobEvent `json:"event"`
}

// memberTimes are the instants of one burst member.
type memberTimes struct {
	post     int64
	accepted int64
	done     int64 // its "job" line read off the stream and verified
	id       string
	view     jobservice.JobView
	events   []jobservice.JobEvent // progress lines, traced runs only
}

// burstTimes are the instants of one svc_fanout operation.
type burstTimes struct {
	start   int64 // group create about to be sent
	created int64
	drained int64
	lines   int
	members []memberTimes
}

// runBurst is one svc_fanout operation: create a group, POST its 18
// members, read the NDJSON stream to "drained", verify every member
// exactly once. keepEvents retains the stream's progress lines.
func (c *client) runBurst(b *burstInput, keepEvents bool) (burstTimes, error) {
	bt := burstTimes{members: make([]memberTimes, len(b.Members))}
	bt.start = time.Now().UnixNano()
	g, err := call[jobservice.GroupView](c, http.MethodPost, "/v1/groups", nil, http.StatusCreated)
	if err != nil {
		return bt, err
	}
	bt.created = time.Now().UnixNano()
	byID := make(map[string]int, len(b.Members))
	for i := range b.Members {
		m := &bt.members[i]
		m.post = time.Now().UnixNano()
		v, err := call[jobservice.JobView](c, http.MethodPost, "/v1/jobs", b.Members[i].bodyInGroup(g.ID), http.StatusAccepted)
		if err != nil {
			return bt, err
		}
		m.accepted = time.Now().UnixNano()
		m.id = v.ID
		byID[v.ID] = i
	}
	resp, err := c.request(http.MethodGet, "/v1/groups/"+g.ID+"/stream", nil)
	if err != nil {
		return bt, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return bt, fmt.Errorf("GET stream %s: HTTP %d", g.ID, resp.StatusCode)
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	seen := 0
	for {
		raw, err := rd.ReadBytes('\n')
		if err != nil {
			return bt, fmt.Errorf("stream %s ended before drained: %w", g.ID, err)
		}
		var ln streamLine
		if err := json.Unmarshal(raw, &ln); err != nil {
			return bt, fmt.Errorf("stream %s: bad line: %w", g.ID, err)
		}
		bt.lines++
		switch ln.Type {
		case "progress":
			if i, ok := byID[ln.JobID]; ok && keepEvents && ln.Event != nil {
				bt.members[i].events = append(bt.members[i].events, *ln.Event)
			}
		case "job":
			if ln.Job == nil {
				return bt, fmt.Errorf("stream %s: job line without a job", g.ID)
			}
			i, ok := byID[ln.Job.ID]
			if !ok || bt.members[i].done != 0 {
				return bt, fmt.Errorf("stream %s: job %s unknown or delivered twice", g.ID, ln.Job.ID)
			}
			if err := verify(&b.Members[i], ln.Job); err != nil {
				return bt, err
			}
			bt.members[i].view = *ln.Job
			bt.members[i].done = time.Now().UnixNano()
			seen++
		case "drained":
			if seen != len(b.Members) {
				return bt, fmt.Errorf("stream %s drained after %d of %d members", g.ID, seen, len(b.Members))
			}
			bt.drained = time.Now().UnixNano()
			return bt, nil
		}
	}
}
