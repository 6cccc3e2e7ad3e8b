package jobservice

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// syncBytes is what writeSync sends for metadata with status code.
func syncBytes(code int, metadata any) []byte {
	rec := httptest.NewRecorder()
	writeSync(rec, code, metadata)
	return rec.Body.Bytes()
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
		at := func(ns int64) time.Time {
			if ns == 0 {
				return time.Time{}
			}
			return time.Unix(0, ns)
		}
		w := jobWire{
			id: id, tenant: tenant, kind: kind, name: name, status: status, group: group, errMsg: errMsg,
			result: result, recovered: recovered,
			submitted: at(submitted), started: at(started), finished: at(finished),
		}
		v := w.view()
		if got, want := appendSyncClose(appendJob(appendSyncOpen(nil, http.StatusOK), &w)), syncBytes(http.StatusOK, v); !bytes.Equal(got, want) {
			t.Fatalf("appended\n%s\nwriteSync\n%s", got, want)
		}
		list := append(appendSyncOpen(nil, http.StatusOK), '[')
		list = append(appendJob(list, &w), ',')
		list = appendSyncClose(append(appendJob(list, &w), ']'))
		if want := syncBytes(http.StatusOK, []JobView{v, v}); !bytes.Equal(list, want) {
			t.Fatalf("appended list\n%s\nwriteSync\n%s", list, want)
		}
	})
}

// TestWriteJobMatchesWriteSync: a record's 202 and 200 responses carry
// writeSync's bytes, a Content-Type and a Content-Length.
func TestWriteJobMatchesWriteSync(t *testing.T) {
	now := time.Now()
	j := &jobRec{id: "j-9", tenant: &tenantState{Tenant: Tenant{Name: "bob"}}, kind: KindTask, name: JobEcho,
		group: &groupRec{id: "g-2"}, status: StatusSucceeded, result: []byte("hi <&>"),
		submitted: now, started: now.Add(time.Microsecond), finished: now.Add(time.Millisecond)}
	for _, code := range []int{http.StatusOK, http.StatusAccepted} {
		rec := httptest.NewRecorder()
		writeJob(rec, code, j)
		if want := syncBytes(code, j.view()); rec.Code != code || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("writeJob(%d) = %d\n%s\nwant\n%s", code, rec.Code, rec.Body, want)
		}
		h := rec.Header()
		if h.Get("Content-Type") != "application/json" || h.Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("writeJob(%d) headers %v for a %d-byte body", code, h, rec.Body.Len())
		}
	}
}
