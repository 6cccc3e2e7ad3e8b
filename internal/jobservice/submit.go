package jobservice

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"

	"openmpmca/internal/mcapi"
)

// Submit decoding. encoding/json defines what a POST /v1/jobs body
// means; decodeSubmit only gets there faster for the one shape every
// in-repo client sends — an object of the keys job, kind, arg, n and
// group, each at most once, string values in plain ASCII without
// escapes, arg in padded standard base64, n a plain integer of at most
// 18 digits, and only whitespace after the closing brace. Any other body
// goes to encoding/json, whose result and error stay the contract;
// FuzzSubmitDecode holds the two equal wherever the fast path accepts.

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	Job   string `json:"job"`             // registered job (kind=task) or kernel (kind=parallel_for) name
	Kind  string `json:"kind,omitempty"`  // default "task"
	Arg   []byte `json:"arg,omitempty"`   // opaque argument, base64 in JSON
	N     int    `json:"n,omitempty"`     // parallel_for iteration count
	Group string `json:"group,omitempty"` // optional group membership
}

// maxSubmitBody caps a POST /v1/jobs body. Every argument rides one
// inline task frame, so the largest useful argument is one MCAPI message
// (mcapi.MaxMsgSize); in JSON it is base64, 4/3 the size, plus slack for
// the envelope's other fields. The cap is on the whole body: a body over
// it is refused (413) whatever its prefix, a declared Content-Length over
// it before a byte is read. A body shorter than its Content-Length is
// malformed (400), not too large.
const maxSubmitBody = (mcapi.MaxMsgSize+2)/3*4 + (4 << 10)

// readSubmitBody reads a whole submit body under maxSubmitBody: in one
// read into a buffer of the declared Content-Length, or, for a chunked
// body, growing as it arrives. Over the cap it returns an
// *http.MaxBytesError.
func readSubmitBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxSubmitBody {
		return nil, &http.MaxBytesError{Limit: maxSubmitBody}
	}
	if r.ContentLength >= 0 {
		body := make([]byte, r.ContentLength)
		if _, err := io.ReadFull(r.Body, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
}

// decodeSubmit decodes a submit body exactly as
// json.NewDecoder(bytes.NewReader(body)).Decode would.
func decodeSubmit(body []byte) (submitRequest, error) {
	if req, ok := fastSubmit(body); ok {
		return req, nil
	}
	var req submitRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// Field bits of fastSubmit's duplicate-key check.
const (
	fieldJob = 1 << iota
	fieldKind
	fieldArg
	fieldN
	fieldGroup
)

// fastSubmit decodes body in one pass when it has the common shape (see
// above); ok is false for any other body, valid or not.
func fastSubmit(b []byte) (req submitRequest, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return req, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return req, skipSpace(b, i+1) == len(b)
	}
	var seen int
	for {
		key, j, ok := plainString(b, i)
		if !ok {
			return req, false
		}
		i = skipSpace(b, j)
		if i == len(b) || b[i] != ':' {
			return req, false
		}
		i = skipSpace(b, i+1)
		var field int
		switch string(key) {
		case "job":
			field = fieldJob
			i, ok = stringField(b, i, &req.Job)
		case "kind":
			field = fieldKind
			i, ok = stringField(b, i, &req.Kind)
		case "group":
			field = fieldGroup
			i, ok = stringField(b, i, &req.Group)
		case "arg":
			field = fieldArg
			req.Arg, i, ok = base64Value(b, i)
		case "n":
			field = fieldN
			req.N, i, ok = plainInt(b, i)
		}
		if !ok || field == 0 || seen&field != 0 {
			return req, false
		}
		seen |= field
		i = skipSpace(b, i)
		if i == len(b) {
			return req, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return req, skipSpace(b, i+1) == len(b)
		default:
			return req, false
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte of b at
// or after i, or len(b).
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// plainString scans the JSON string at b[i]: the contents and the index
// past its closing quote. ok is false unless every byte is printable
// ASCII other than a backslash, so the contents are the decoded value.
func plainString(b []byte, i int) (s []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// stringField stores the plain string at b[i] in dst.
func stringField(b []byte, i int, dst *string) (next int, ok bool) {
	s, next, ok := plainString(b, i)
	if ok {
		*dst = string(s)
	}
	return next, ok
}

// base64Value decodes the padded standard base64 string at b[i] into a
// slice of its own, exactly as encoding/json decodes a []byte. The
// contents up to the first quote are handed to the decoder unscanned:
// it refuses every byte outside its alphabet but '\r' and '\n', which it
// skips, and a skipped byte shows in the decoded length.
func base64Value(b []byte, i int) (v []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, 0, false
	}
	end := bytes.IndexByte(b[i+1:], '"')
	if end < 0 {
		return nil, 0, false
	}
	s := b[i+1 : i+1+end]
	if len(s)%4 != 0 {
		return nil, 0, false
	}
	want := len(s) / 4 * 3
	if len(s) > 0 && s[len(s)-1] == '=' {
		want--
		if s[len(s)-2] == '=' {
			want--
		}
	}
	v = make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(v, s)
	if err != nil || n != want {
		return nil, 0, false
	}
	return v[:n], i + 2 + end, true
}

// plainInt parses the JSON integer at b[i] of at most 18 digits, which
// always fits an int. A fraction, an exponent or a longer run of digits
// leaves a byte the caller's structure check refuses.
func plainInt(b []byte, i int) (v, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(b) && i-start < 18 && '0' <= b[i] && b[i] <= '9' {
		v = v*10 + int(b[i]-'0')
		i++
	}
	if i == start || (b[start] == '0' && i-start > 1) {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}
