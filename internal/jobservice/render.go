package jobservice

import (
	"encoding/base64"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"openmpmca/internal/durable"
)

// Job responses. POST /v1/jobs, GET /v1/jobs/{id} and GET /v1/jobs
// answer with the sync envelope around job views, appended into one
// pooled buffer instead of reflected by encoding/json, and sent with a
// Content-Length. writeSync of the same views defines the bytes:
// FuzzJobViewEnvelope holds the two equal. Every other route writes
// through writeSync.

// jobWire is what a job's view shows: a record's fields read under its
// lock, or a cold job's JobState. A zero started or finished time is
// left out, as JobView leaves out a nil one.
type jobWire struct {
	id, tenant, kind, name, status, group, errMsg string
	result                                        []byte
	recovered                                     bool
	submitted, started, finished                  time.Time
}

// wire reads the job's view fields.
func (j *jobRec) wire() jobWire {
	j.mu.Lock()
	defer j.mu.Unlock()
	w := jobWire{
		id: j.id, tenant: j.tenant.Name, kind: j.kind, name: j.name, status: j.status,
		errMsg: j.errMsg, result: j.result, recovered: j.recovered,
		submitted: j.submitted, started: j.started, finished: j.finished,
	}
	if j.group != nil {
		w.group = j.group.id
	}
	return w
}

// coldWire reads the view of a cold job, whose record would be built
// from js by replayedRec: settled, ungrouped, times from the journal.
func coldWire(js *durable.JobState, tenant string) jobWire {
	w := jobWire{
		id: js.ID, tenant: tenant, kind: js.Kind, name: js.Name, status: js.Status,
		errMsg: js.Error, result: js.Result, recovered: js.Recovered,
	}
	if js.SubmittedNs != 0 {
		w.submitted = time.Unix(0, js.SubmittedNs)
	}
	if js.StartedNs != 0 {
		w.started = time.Unix(0, js.StartedNs)
	}
	if js.FinishedNs != 0 {
		w.finished = time.Unix(0, js.FinishedNs)
	}
	return w
}

// view is the JobView of w, for the routes that encode with
// encoding/json.
func (w *jobWire) view() JobView {
	v := JobView{
		ID: w.id, Tenant: w.tenant, Kind: w.kind, Name: w.name, Status: w.status,
		Group: w.group, Result: w.result, Error: w.errMsg, Recovered: w.recovered,
		SubmittedAt: w.submitted,
	}
	if !w.started.IsZero() {
		t := w.started
		v.StartedAt = &t
	}
	if !w.finished.IsZero() {
		t := w.finished
		v.FinishedAt = &t
	}
	return v
}

// appendJob appends w as encoding/json encodes its JobView.
func appendJob(b []byte, w *jobWire) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, w.id)
	b = append(b, `,"tenant":`...)
	b = appendString(b, w.tenant)
	b = append(b, `,"kind":`...)
	b = appendString(b, w.kind)
	b = append(b, `,"name":`...)
	b = appendString(b, w.name)
	b = append(b, `,"status":`...)
	b = appendString(b, w.status)
	if w.group != "" {
		b = append(b, `,"group":`...)
		b = appendString(b, w.group)
	}
	if len(w.result) > 0 {
		b = append(b, `,"result":"`...)
		b = base64.StdEncoding.AppendEncode(b, w.result)
		b = append(b, '"')
	}
	if w.errMsg != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, w.errMsg)
	}
	if w.recovered {
		b = append(b, `,"recovered":true`...)
	}
	b = append(b, `,"submitted_at":`...)
	b = appendTime(b, w.submitted)
	if !w.started.IsZero() {
		b = append(b, `,"started_at":`...)
		b = appendTime(b, w.started)
	}
	if !w.finished.IsZero() {
		b = append(b, `,"finished_at":`...)
		b = appendTime(b, w.finished)
	}
	return append(b, '}')
}

// appendSyncOpen appends the sync envelope up to its metadata value;
// appendSyncClose ends it, with the newline json.Encoder writes.
func appendSyncOpen(b []byte, code int) []byte {
	b = append(b, `{"type":"sync","status":`...)
	b = appendString(b, http.StatusText(code))
	b = append(b, `,"status_code":`...)
	b = strconv.AppendInt(b, int64(code), 10)
	return append(b, `,"metadata":`...)
}

func appendSyncClose(b []byte) []byte { return append(b, "}\n"...) }

// appendTime appends t as time.Time's MarshalJSON does, for any time
// whose year has four digits.
func appendTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"')
}

// appendString appends s as a JSON string escaped exactly as
// encoding/json escapes it with HTML escaping on (json.Encoder's
// default): quote, backslash and control bytes escaped, <, > and &
// as \u00XX, each invalid UTF-8 byte as \ufffd, and U+2028 and U+2029
// as \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// renderBufs are the response buffers job views are appended into.
var renderBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// maxPooledRender caps the buffers returned to renderBufs, so one large
// list does not stay pinned in the pool.
const maxPooledRender = 64 << 10

// jsonContentType is the Content-Type of every appended response, one
// slice for all of them: net/http copies header values and never writes
// into them.
var jsonContentType = []string{"application/json"}

// writeJob answers with the sync envelope around j's view.
func writeJob(w http.ResponseWriter, code int, j *jobRec) {
	jw := j.wire()
	bp := renderBufs.Get().(*[]byte)
	b := appendSyncOpen((*bp)[:0], code)
	b = appendJob(b, &jw)
	writeRendered(w, code, bp, appendSyncClose(b))
}

// writeRendered sends body, appended into the pooled buffer *bp, with
// its Content-Length, and returns the buffer to the pool.
func writeRendered(w http.ResponseWriter, code int, bp *[]byte, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(code)
	_, _ = w.Write(body)
	if cap(body) <= maxPooledRender {
		*bp = body
		renderBufs.Put(bp)
	}
}
