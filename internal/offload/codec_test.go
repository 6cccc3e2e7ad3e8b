package offload

import (
	"bytes"
	"testing"
)

func TestChunkRoundTrip(t *testing.T) {
	in := ChunkDesc{Kernel: "ep-like", Lo: -5, Hi: 1 << 40, Arg: []byte{1, 2, 3}}
	out, err := DecodeChunkDesc(EncodeChunkDesc(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Lo != in.Lo || out.Hi != in.Hi || out.Kernel != in.Kernel || !bytes.Equal(out.Arg, in.Arg) {
		t.Errorf("round trip mismatch: %+v != %+v", out, in)
	}

	out, err = DecodeChunkDesc(EncodeChunkDesc(ChunkDesc{Kernel: "k", Hi: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Arg != nil {
		t.Errorf("empty arg decoded as %v", out.Arg)
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	for _, kind := range []msgKind{kindPing, kindPong} {
		in := hbMsg{Domain: 3, Seq: 99}
		out, err := decodeHB(kind, encodeHB(kind, in))
		if err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Errorf("kind %d round trip mismatch: %+v != %+v", kind, out, in)
		}
	}
	if _, err := decodeHB(kindPong, encodeHB(kindPing, hbMsg{})); err == nil {
		t.Error("pong decoder accepted a ping")
	}
}

func TestDecodeMalformed(t *testing.T) {
	good := EncodeChunkDesc(ChunkDesc{Kernel: "kern", Hi: 9, Arg: []byte{1}})
	oversize := append([]byte(nil), good...)
	oversize[16], oversize[17] = 0xff, 0xff // name length far past the buffer
	inverted := EncodeChunkDesc(ChunkDesc{Kernel: "k", Lo: 2, Hi: 1})
	for i, b := range [][]byte{nil, good[:chunkDescHeader-1], good[:chunkDescHeader+2], oversize, inverted} {
		if _, err := DecodeChunkDesc(b); err == nil {
			t.Errorf("case %d: DecodeChunkDesc accepted malformed input", i)
		}
	}
	ping := encodeHB(kindPing, hbMsg{})
	for i, msg := range [][]byte{nil, ping[:4], append(ping, 0xff), {byte(KindTask)}} {
		if _, err := decodeHB(kindPing, msg); err == nil {
			t.Errorf("case %d: decodeHB accepted malformed input", i)
		}
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	k := FuncKernel{KernelName: "a"}
	if err := reg.Register(k); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(k); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := reg.Register(FuncKernel{}); err == nil {
		t.Error("empty-name registration accepted")
	}
	if _, ok := reg.Lookup("a"); !ok {
		t.Error("registered kernel not found")
	}
	if _, ok := reg.Lookup("b"); ok {
		t.Error("phantom kernel found")
	}
	if n := reg.Names(); len(n) != 1 || n[0] != "a" {
		t.Errorf("Names() = %v", n)
	}
}

// TestEncodeRecycleAllocs pins a pooled frame's round trip: encoding a
// chunk descriptor into a recycled buffer and recycling it again
// allocates nothing.
func TestEncodeRecycleAllocs(t *testing.T) {
	d := ChunkDesc{Kernel: "vecsum", Lo: 0, Hi: 64, Arg: []byte("arg")}
	RecycleFrame(EncodeChunkDesc(d)) // warm the pools
	allocs := testing.AllocsPerRun(1000, func() {
		RecycleFrame(EncodeChunkDesc(d))
	})
	if raceEnabled {
		return
	}
	if allocs != 0 {
		t.Fatalf("EncodeChunkDesc + RecycleFrame allocate %.2f objects, want 0", allocs)
	}
}
