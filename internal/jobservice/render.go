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

// Job responses and streams. POST /v1/jobs, GET /v1/jobs/{id} and GET
// /v1/jobs answer with the sync envelope around job views, and
// /v1/jobs/{id}/events and group streams send NDJSON lines, all
// appended into one pooled buffer instead of reflected by encoding/json,
// and the envelopes sent with a Content-Length. encoding/json of the
// same values defines the bytes: FuzzJobViewEnvelope and
// FuzzStreamLines hold the two equal. Every other route writes through
// writeSync.

// appendJob appends the view of the job st describes as encoding/json
// encodes its JobView: a zero started or finished instant is left out,
// as JobView leaves out a nil time.
func appendJob(b []byte, st *durable.JobState) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, st.ID)
	b = append(b, `,"tenant":`...)
	b = appendString(b, st.Tenant)
	b = append(b, `,"kind":`...)
	b = appendString(b, st.Kind)
	b = append(b, `,"name":`...)
	b = appendString(b, st.Name)
	b = append(b, `,"status":`...)
	b = appendString(b, st.Status)
	if st.Group != "" {
		b = append(b, `,"group":`...)
		b = appendString(b, st.Group)
	}
	if len(st.Result) > 0 {
		b = append(b, `,"result":"`...)
		b = base64.StdEncoding.AppendEncode(b, st.Result)
		b = append(b, '"')
	}
	if st.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, st.Error)
	}
	if st.Recovered {
		b = append(b, `,"recovered":true`...)
	}
	b = append(b, `,"submitted_at":`...)
	b = appendTime(b, st.SubmittedNs)
	if st.StartedNs != 0 {
		b = append(b, `,"started_at":`...)
		b = appendTime(b, st.StartedNs)
	}
	if st.FinishedNs != 0 {
		b = append(b, `,"finished_at":`...)
		b = appendTime(b, st.FinishedNs)
	}
	return append(b, '}')
}

// appendEvent appends e as encoding/json encodes its JobEvent.
func appendEvent(b []byte, e *event) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(e.seq), 10)
	b = append(b, `,"at_ns":`...)
	b = strconv.AppendInt(b, e.at, 10)
	b = append(b, `,"type":`...)
	b = appendString(b, e.typ)
	if e.chunk != 0 {
		b = append(b, `,"chunk":`...)
		b = strconv.AppendInt(b, int64(e.chunk), 10)
	}
	if e.total != 0 {
		b = append(b, `,"total":`...)
		b = strconv.AppendInt(b, int64(e.total), 10)
	}
	if e.domain != noDomain {
		b = append(b, `,"domain":`...)
		b = strconv.AppendInt(b, int64(e.domain), 10)
	}
	if e.status != "" {
		b = append(b, `,"status":`...)
		b = appendString(b, e.status)
	}
	return append(b, '}')
}

// appendStreamLine appends one group-stream line as json.Encoder writes
// its streamEvent: its type, then its member's settled view (st) or
// progress line (p) when it has one, then the group's view, and a
// newline.
func appendStreamLine(b []byte, typ string, st *durable.JobState, p *groupProgress, gv *GroupView) []byte {
	b = append(b, `{"type":`...)
	b = appendString(b, typ)
	if st != nil {
		b = append(b, `,"job":`...)
		b = appendJob(b, st)
	}
	if p != nil {
		if p.jobID != "" {
			b = append(b, `,"job_id":`...)
			b = appendString(b, p.jobID)
		}
		b = append(b, `,"event":`...)
		b = appendEvent(b, &p.event)
	}
	b = append(b, `,"group":{"id":`...)
	b = appendString(b, gv.ID)
	b = append(b, `,"tenant":`...)
	b = appendString(b, gv.Tenant)
	b = append(b, `,"members":`...)
	b = strconv.AppendInt(b, int64(gv.Members), 10)
	b = append(b, `,"pending":`...)
	b = strconv.AppendInt(b, int64(gv.Pending), 10)
	if gv.Canceled {
		b = append(b, `,"canceled":true`...)
	}
	return append(b, "}}\n"...)
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

// appendTime appends the instant ns (unix ns, 0 for the zero time) as
// time.Time's MarshalJSON does, for any time whose year has four
// digits.
func appendTime(b []byte, ns int64) []byte {
	t := time.Time{}
	if ns != 0 {
		t = time.Unix(0, ns)
	}
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

// writeJob answers with the sync envelope around the view of the job st
// describes.
func writeJob(w http.ResponseWriter, code int, st *durable.JobState) {
	bp := renderBufs.Get().(*[]byte)
	b := appendSyncOpen((*bp)[:0], code)
	writeRendered(w, code, bp, appendSyncClose(appendJob(b, st)))
}

// writeRendered sends body, appended into the pooled buffer *bp, with
// its Content-Length, and returns the buffer to the pool.
func writeRendered(w http.ResponseWriter, code int, bp *[]byte, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(code)
	_, _ = w.Write(body)
	*bp = body
	putRender(bp)
}

// putRender returns a render buffer to the pool unless it has grown past
// maxPooledRender.
func putRender(bp *[]byte) {
	if cap(*bp) <= maxPooledRender {
		renderBufs.Put(bp)
	}
}
