package offload

import (
	"bytes"
	"testing"
)

func TestMeshCodecRoundTrips(t *testing.T) {
	ps := PeerStealFrame{Thief: 3, Want: 7}
	if got, err := DecodePeerSteal(EncodePeerSteal(ps)); err != nil || got != ps {
		t.Fatalf("peer-steal round trip: %+v, %v", got, err)
	}

	py := PeerYieldFrame{
		Victim: 5,
		Task:   TaskFrame{Task: 42, Attempt: 2, Group: 9, Job: "sum", Arg: []byte{1, 2, 3}},
	}
	got, err := DecodePeerYield(EncodePeerYield(py))
	if err != nil {
		t.Fatal(err)
	}
	if got.Victim != py.Victim || got.Task.Task != py.Task.Task ||
		got.Task.Attempt != py.Task.Attempt || got.Task.Group != py.Task.Group ||
		got.Task.Job != py.Task.Job || !bytes.Equal(got.Task.Arg, py.Task.Arg) {
		t.Fatalf("peer-yield round trip %+v != %+v", got, py)
	}

	sm := StealMovedFrame{Task: 42, Thief: 3, Victim: 5}
	if got, err := DecodeStealMoved(EncodeStealMoved(sm)); err != nil || got != sm {
		t.Fatalf("steal-moved round trip: %+v, %v", got, err)
	}

	lm := LoadMapFrame{Occ: []uint32{0, 5, 2, 9}}
	gotLm, err := DecodeLoadMap(EncodeLoadMap(lm))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotLm.Occ) != len(lm.Occ) {
		t.Fatalf("load-map round trip %+v != %+v", gotLm, lm)
	}
	for i := range lm.Occ {
		if gotLm.Occ[i] != lm.Occ[i] {
			t.Fatalf("load-map occ[%d] = %d, want %d", i, gotLm.Occ[i], lm.Occ[i])
		}
	}
}

func TestMeshFrameKindClassifies(t *testing.T) {
	cases := []struct {
		pkt  []byte
		want WireKind
	}{
		{EncodePeerSteal(PeerStealFrame{}), KindPeerSteal},
		{EncodePeerYield(PeerYieldFrame{}), KindPeerYield},
		{EncodeStealMoved(StealMovedFrame{}), KindStealMoved},
		{EncodeLoadMap(LoadMapFrame{}), KindLoadMap},
	}
	for _, c := range cases {
		if k, ok := FrameKind(c.pkt); !ok || k != c.want {
			t.Fatalf("FrameKind(% x): kind %d ok=%v, want %d", c.pkt, k, ok, c.want)
		}
	}
	// One past the mesh range must not classify, and neither may the
	// retired kinds: 1, 2, 5 (chunk dispatcher), 8, 9, 10 (host-brokered
	// steal: yield, grant, credit) and 17, 18 (remote-memory descriptor
	// and ack), however well-formed the rest of the frame.
	if _, ok := FrameKind([]byte{byte(KindLoadMap) + 1}); ok {
		t.Fatal("kind past the mesh range classified as a fabric frame")
	}
	for _, kind := range []byte{1, 2, 5, 8, 9, 10, 17, 18} {
		pkt := append([]byte{kind}, EncodeTaskFrame(KindTask, TaskFrame{Task: 42, Job: "sum"})...)
		if k, ok := FrameKind(pkt); ok {
			t.Fatalf("retired kind %d classified as fabric frame kind %d", kind, k)
		}
	}
}
