package jobservice

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// jsonSubmit is the definition decodeSubmit must reproduce.
func jsonSubmit(body []byte) (submitRequest, error) {
	var req submitRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// echoBody is a marshalled echo submit whose argument is n bytes.
func echoBody(n int) []byte {
	arg := make([]byte, n)
	for i := range arg {
		arg[i] = byte(i * 31)
	}
	b, _ := json.Marshal(submitRequest{Job: JobEcho, Arg: arg})
	return b
}

// FuzzSubmitDecode holds the fast path to encoding/json: a body it
// accepts, encoding/json accepts too with an identical request (a nil
// and an empty Arg differ); any body at all, decodeSubmit returns
// exactly encoding/json's request and error.
func FuzzSubmitDecode(f *testing.F) {
	for _, s := range []string{
		`{"job":"echo","arg":"aGk="}`,
		`{"job":"vecsum","kind":"parallel_for","n":4000,"group":"g-1"}`,
		`{"arg":"AQI=","group":"g-7","job":"sum"}`,
		` { "job" : "fib" ,	"arg":"AAAAAAAAACg=" } ` + "\n",
		`{}`, `{"arg":""}`, `{"n":-0}`, `{"n":-5}`, `{"n":0}`,
		// Upper-case and unknown keys.
		`{"JOB":"echo"}`, `{"Job":"echo","Arg":"aGk="}`, `{"job":"echo","extra":1}`,
		// Escapes.
		`{"job":"ec\u0068o"}`, `{"job":"a\"b"}`, `{"job":"a\\b"}`, `{"j\u006fb":"echo"}`,
		`{"arg":"aGk\u003d"}`, `{"arg":"aGk\n="}`, `{"arg":"aGk\/"}`,
		// null.
		`null`, `{"job":null}`, `{"arg":null}`, `{"n":null}`,
		// Duplicate keys.
		`{"job":"a","job":"b"}`, `{"arg":"AA==","arg":"AQ=="}`, `{"n":1,"n":2}`,
		// Numbers.
		`{"n":1.5}`, `{"n":1e3}`, `{"n":1E3}`, `{"n":01}`, `{"n":-}`, `{"n":+1}`, `{"n":"5"}`,
		`{"n":123456789012345678}`, `{"n":-123456789012345678}`, `{"n":1234567890123456789}`,
		`{"n":9223372036854775807}`, `{"n":9223372036854775808}`, `{"n":00000000000000000001}`,
		// Base64 padding and alphabet.
		`{"arg":"AA="}`, `{"arg":"AA"}`, `{"arg":"A==="}`, `{"arg":"AA==AA=="}`, `{"arg":"QR=="}`,
		`{"arg":"-_8="}`, `{"arg":"QQ` + "\n" + `=="}`, `{"arg":"QUJD` + "\r\n\r\n" + `"}`, `{"arg":5}`,
		// Structure and trailing data.
		`{"job":"echo"}x`, `{"job":"echo"} {}`, `{"job":"echo"}` + " \t\r\n", `{"job":"echo",}`,
		`{,}`, `{"job" "echo"}`, `{"job":"echo"`, `{"job":"echo`, `[]`, `"job"`, `{"kind":5}`,
		// Non-ASCII, control bytes, empty.
		`{"job":"é"}`, "{\"job\":\"\xff\"}", "{\"job\":\"a\x01\"}", "{\"job\":\"\x7f\"}", "\ufeff{}",
		``, `   `,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := jsonSubmit(body)
		if got, ok := fastSubmit(body); ok {
			if wantErr != nil {
				t.Fatalf("fast path accepted %q, which encoding/json refuses: %v", body, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fast path decoded %q as %#v, encoding/json as %#v", body, got, want)
			}
		}
		got, err := decodeSubmit(body)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("decodeSubmit(%q) = %#v, %v; encoding/json gives %#v, %v", body, got, err, want, wantErr)
		}
	})
}

// TestSubmitFastPath pins that the bodies in-repo clients send take the
// fast path: the benchmark generator's and the tests' structs,
// the chaos campaigns' and ompmca-serve smoke's maps, and the curl line
// in ompmca-serve's docs.
func TestSubmitFastPath(t *testing.T) {
	// The benchmark generator marshals this shape; the
	// generator splices a group in after the fact (bodyInGroup).
	type clientBody struct {
		Job  string `json:"job"`
		Kind string `json:"kind,omitempty"`
		Arg  []byte `json:"arg,omitempty"`
		N    int    `json:"n,omitempty"`
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	inGroup := func(body []byte, group string) []byte {
		return append(append(body[:len(body)-1:len(body)-1], `,"group":"`+group...), `"}`...)
	}
	bodies := map[string][]byte{
		"bench echo":          marshal(clientBody{Job: JobEcho, Arg: make([]byte, 18<<10)}),
		"bench small echo":    marshal(clientBody{Job: JobEcho, Arg: []byte("0123456789abcdef")}),
		"bench fib":           marshal(clientBody{Job: JobFib, Arg: U64(90)}),
		"bench sum":           marshal(clientBody{Job: JobSum, Arg: I64Pair(7, 10_007)}),
		"bench sum in group":  inGroup(marshal(clientBody{Job: JobSum, Arg: I64Pair(1, 2)}), "g-7"),
		"bench vecsum group":  inGroup(marshal(clientBody{Job: KernelVecSum, Kind: KindParallelFor, N: 400_001}), "g-12"),
		"struct spin":         marshal(clientBody{Job: JobSpin, Arg: U64(50_000_000)}),
		"struct echo no arg":  marshal(clientBody{Job: JobEcho}),
		"tests submitRequest": marshal(submitRequest{Job: JobSpin, Arg: U64(100), Group: "g-3"}),
		"tests vecsum":        marshal(submitRequest{Job: KernelVecSum, Kind: KindParallelFor, N: 500}),
		"chaos sum map":       marshal(map[string]any{"job": JobSum, "arg": I64Pair(3, 9)}),
		"chaos spin map":      marshal(map[string]any{"job": JobSpin, "arg": U64(1e6), "group": "g-2"}),
		"chaos vecsum map":    marshal(map[string]any{"job": KernelVecSum, "kind": "parallel_for", "n": 4000}),
		"serve smoke fib":     marshal(map[string]any{"job": JobFib, "arg": U64(40)}),
		"serve smoke vecsum":  marshal(map[string]any{"job": KernelVecSum, "kind": KindParallelFor, "n": 5000}),
		"serve docs curl":     []byte(`{"job":"fib","arg":"AAAAAAAAACg="}`),
	}
	for name, body := range bodies {
		got, ok := fastSubmit(body)
		if !ok {
			t.Errorf("%s: %.80s fell back to encoding/json", name, body)
			continue
		}
		if want, err := jsonSubmit(body); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fast path %#v, encoding/json %#v, %v", name, got, want, err)
		}
	}
}

// TestSubmitDecodeAllocs pins the fast path's garbage: a 24 KiB echo
// body costs its argument and its job name, nothing else.
func TestSubmitDecodeAllocs(t *testing.T) {
	body := echoBody(24 << 10)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeSubmit(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("decodeSubmit allocates %.0f objects per 24 KiB echo body, want <= 2", allocs)
	}
}

// BenchmarkSubmitDecode compares encoding/json with decodeSubmit on a
// small echo, an svc_payload-sized echo and a region in a group.
func BenchmarkSubmitDecode(b *testing.B) {
	vecsum, _ := json.Marshal(submitRequest{Job: KernelVecSum, Kind: KindParallelFor, N: 250_000, Group: "g-12"})
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"echo16B", echoBody(16)},
		{"echo18KiB", echoBody(18 << 10)},
		{"vecsumGroup", vecsum},
	} {
		for _, d := range []struct {
			name   string
			decode func([]byte) (submitRequest, error)
		}{
			{"json", jsonSubmit},
			{"onepass", decodeSubmit},
		} {
			b.Run(fmt.Sprintf("%s/%s", c.name, d.name), func(b *testing.B) {
				b.SetBytes(int64(len(c.body)))
				b.ReportAllocs()
				for range b.N {
					if _, err := d.decode(c.body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
