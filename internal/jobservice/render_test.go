package jobservice

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"openmpmca/internal/durable"
)

// syncBytes is what writeSync sends for metadata with status code.
func syncBytes(code int, metadata any) []byte {
	rec := httptest.NewRecorder()
	writeSync(rec, code, metadata)
	return rec.Body.Bytes()
}

// jobViewOf is the JobView of the job st describes: what the appended
// job responses and stream lines are defined by.
func jobViewOf(st *durable.JobState) JobView {
	at := func(ns int64) *time.Time {
		if ns == 0 {
			return nil
		}
		t := time.Unix(0, ns)
		return &t
	}
	v := JobView{
		ID: st.ID, Tenant: st.Tenant, Kind: st.Kind, Name: st.Name, Status: st.Status,
		Group: st.Group, Result: st.Result, Error: st.Error, Recovered: st.Recovered,
		StartedAt: at(st.StartedNs), FinishedAt: at(st.FinishedNs),
	}
	if st.SubmittedNs != 0 {
		v.SubmittedAt = *at(st.SubmittedNs)
	}
	return v
}

// jobEventOf is the JobEvent a log's event stands for.
func jobEventOf(e event) JobEvent {
	v := JobEvent{
		Seq: int(e.seq), AtNs: e.at, Type: e.typ, Chunk: int(e.chunk), Total: int(e.total),
		Status: e.status,
	}
	if e.domain != noDomain {
		v.Domain = domainOf(int(e.domain))
	}
	return v
}

// domainOf boxes a domain id for the JSON shape.
func domainOf(d int) *int { return &d }

// streamEvent is one NDJSON line of a group stream, as encoding/json
// defines it.
type streamEvent struct {
	Type string   `json:"type"` // "job" | "progress" | "drained"
	Job  *JobView `json:"job,omitempty"`
	// Progress events: the member's id and its progress line.
	JobID string    `json:"job_id,omitempty"`
	Event *JobEvent `json:"event,omitempty"`
	Group GroupView `json:"group"`
}

// encodeLine is what json.Encoder writes for v.
func encodeLine(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzJobViewEnvelope holds the appended job responses to their
// definition: for any view, writeJob's and GET /v1/jobs's bytes equal
// what writeSync sends for the same JobView and []JobView.
func FuzzJobViewEnvelope(f *testing.F) {
	type seed struct {
		id, tenant, kind, name, status, group, errMsg string
		result                                        []byte
		recovered                                     bool
		submitted, started, finished                  int64
	}
	for _, s := range []seed{
		{id: "j-1", tenant: "alice", kind: KindTask, name: JobEcho, status: StatusQueued, submitted: 1},
		{id: "j-2", tenant: "bob", kind: KindParallelFor, name: KernelVecSum, status: StatusSucceeded,
			group: "g-1", result: []byte("ok"), recovered: true, submitted: 1e18, started: 1e18 + 1, finished: 1e18 + 2},
		{id: "j-3", tenant: "t", kind: KindTask, name: "fail", status: StatusFailed, errMsg: "boom: <a href=\"x\">&amp;</a>"},
		{id: "bad\xff\xfe", tenant: "\xc3\x28", kind: "\xed\xa0\x80", name: "\xf0\x28\x8c\x28", status: "x"},
		{id: "sep\u2028\u2029", tenant: "ctl\x00\x01\x1f\x7f\b\f\n\r\t\"\\", kind: "k", name: "n", status: "s"},
		{id: "", tenant: "", kind: "", name: "", status: "", result: []byte{}},
		{id: "nil-result", tenant: "t", kind: "k", name: "n", status: StatusCanceled, result: nil, finished: -1},
		{id: "utf8 é 日本 🙂", tenant: "t", kind: "k", name: "n", status: "s", result: []byte{0, 255, 254, 1}},
	} {
		f.Add(s.id, s.tenant, s.kind, s.name, s.status, s.group, s.errMsg, s.result, s.recovered, s.submitted, s.started, s.finished)
	}
	f.Fuzz(func(t *testing.T, id, tenant, kind, name, status, group, errMsg string, result []byte,
		recovered bool, submitted, started, finished int64) {
		st := durable.JobState{
			ID: id, Tenant: tenant, Kind: kind, Name: name, Status: status, Group: group, Error: errMsg,
			Result: result, Recovered: recovered, SubmittedNs: submitted, StartedNs: started, FinishedNs: finished,
		}
		v := jobViewOf(&st)
		if got, want := appendSyncClose(appendJob(appendSyncOpen(nil, http.StatusOK), &st)), syncBytes(http.StatusOK, v); !bytes.Equal(got, want) {
			t.Fatalf("appended\n%s\nwriteSync\n%s", got, want)
		}
		list := append(appendSyncOpen(nil, http.StatusOK), '[')
		list = append(appendJob(list, &st), ',')
		list = appendSyncClose(append(appendJob(list, &st), ']'))
		if want := syncBytes(http.StatusOK, []JobView{v, v}); !bytes.Equal(list, want) {
			t.Fatalf("appended list\n%s\nwriteSync\n%s", list, want)
		}
	})
}

// FuzzStreamLines holds the appended NDJSON lines to their definition:
// each /events line is json.Encoder's encoding of its JobEvent, and each
// group-stream line (progress, job, drained) that of its streamEvent.
func FuzzStreamLines(f *testing.F) {
	type seed struct {
		id, tenant, errMsg, gid string
		typ, status             string
		chunk, total            int32
		domain                  int16
		at                      int64
		members, pending        int
		canceled                bool
	}
	for _, s := range []seed{
		{id: "j-1", tenant: "alice", gid: "g-1", typ: EventTaskSent, chunk: -1, domain: 1, at: 1e18, members: 2, pending: 1},
		{id: "<j>&\"1\"", tenant: "a<b>&c", errMsg: "<script>&amp;</script>", gid: "g<&>", typ: EventSettled, chunk: -1, domain: noDomain, status: StatusFailed},
		{id: "sep\u2028\u2029", tenant: "t\u2028", gid: "g\u2029", typ: EventChunk, chunk: 3, total: 16, domain: -1, canceled: true},
		{id: "j-2", tenant: "t", gid: "g-2", typ: EventAccepted, chunk: -1, domain: noDomain},                 // nil Domain
		{id: "", tenant: "", gid: "", typ: EventChunk, chunk: 0, total: 0, domain: 0, members: 0, pending: 0}, // every omitempty field empty
		{id: "bad\xff", tenant: "\x00\x1f", gid: "g-3", typ: EventSettled, status: StatusCanceled, chunk: -1, domain: noDomain, at: -5, members: 16},
	} {
		f.Add(s.id, s.tenant, s.errMsg, s.gid, s.typ, s.status, s.chunk, s.total, s.domain, s.at, s.members, s.pending, s.canceled)
	}
	f.Fuzz(func(t *testing.T, id, tenant, errMsg, gid string, typ, status string, chunk, total int32, domain int16,
		at int64, members, pending int, canceled bool) {
		e := event{at: at, seq: chunk / 2, chunk: chunk, total: total, domain: domain,
			typ: typ, status: status}
		ev := jobEventOf(e)
		if got, want := append(appendEvent(nil, &e), '\n'), encodeLine(t, ev); !bytes.Equal(got, want) {
			t.Fatalf("/events line\n%s\nencoding/json\n%s", got, want)
		}
		gv := GroupView{ID: gid, Tenant: tenant, Members: members, Pending: pending, Canceled: canceled}
		p := groupProgress{jobID: id, event: e}
		if got, want := appendStreamLine(nil, "progress", nil, &p, &gv), encodeLine(t, streamEvent{Type: "progress", JobID: id, Event: &ev, Group: gv}); !bytes.Equal(got, want) {
			t.Fatalf("progress line\n%s\nencoding/json\n%s", got, want)
		}
		st := durable.JobState{ID: id, Tenant: tenant, Kind: KindTask, Name: JobEcho, Status: e.status,
			Group: gid, Error: errMsg, SubmittedNs: at, FinishedNs: int64(total)}
		v := jobViewOf(&st)
		if got, want := appendStreamLine(nil, "job", &st, nil, &gv), encodeLine(t, streamEvent{Type: "job", Job: &v, Group: gv}); !bytes.Equal(got, want) {
			t.Fatalf("job line\n%s\nencoding/json\n%s", got, want)
		}
		if got, want := appendStreamLine(nil, "drained", nil, nil, &gv), encodeLine(t, streamEvent{Type: "drained", Group: gv}); !bytes.Equal(got, want) {
			t.Fatalf("drained line\n%s\nencoding/json\n%s", got, want)
		}
	})
}

// TestWriteJobMatchesWriteSync: a job's 202 and 200 responses carry
// writeSync's bytes, a Content-Type and a Content-Length.
func TestWriteJobMatchesWriteSync(t *testing.T) {
	now := time.Now().UnixNano()
	st := &durable.JobState{ID: "j-9", Tenant: "bob", Kind: KindTask, Name: JobEcho,
		Group: "g-2", Status: StatusSucceeded, Result: []byte("hi <&>"),
		SubmittedNs: now, StartedNs: now + 1e3, FinishedNs: now + 1e6}
	for _, code := range []int{http.StatusOK, http.StatusAccepted} {
		rec := httptest.NewRecorder()
		writeJob(rec, code, st)
		if want := syncBytes(code, jobViewOf(st)); rec.Code != code || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("writeJob(%d) = %d\n%s\nwant\n%s", code, rec.Code, rec.Body, want)
		}
		h := rec.Header()
		if h.Get("Content-Type") != "application/json" || h.Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("writeJob(%d) headers %v for a %d-byte body", code, h, rec.Body.Len())
		}
	}
}
