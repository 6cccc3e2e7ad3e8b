package offload

import (
	"bytes"
	"testing"
)

func TestTaskCodecRoundTrips(t *testing.T) {
	tf := TaskFrame{Task: 42, Attempt: 3, Group: 7, Job: "fib", Arg: []byte{1, 2, 3}}
	for _, kind := range []WireKind{KindTask, KindTaskYield} {
		got, err := DecodeTaskFrame(kind, EncodeTaskFrame(kind, tf))
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if got.Task != tf.Task || got.Attempt != tf.Attempt || got.Group != tf.Group ||
			got.Job != tf.Job || !bytes.Equal(got.Arg, tf.Arg) {
			t.Fatalf("kind %d: round trip %+v != %+v", kind, got, tf)
		}
	}

	res := TaskResultFrame{Task: 42, Attempt: 3, Status: StatusJobError, Payload: []byte("boom")}
	gotRes, err := DecodeTaskResult(EncodeTaskResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.Task != res.Task || gotRes.Attempt != res.Attempt ||
		gotRes.Status != res.Status || !bytes.Equal(gotRes.Payload, res.Payload) {
		t.Fatalf("result round trip %+v != %+v", gotRes, res)
	}

	cr := CreditFrame{Domain: 2, Queued: 5, Running: 1}
	if got, err := DecodeCredit(EncodeCredit(cr)); err != nil || got != cr {
		t.Fatalf("credit round trip: %+v, %v", got, err)
	}
	sg := StealGrantFrame{Want: 4}
	if got, err := DecodeStealGrant(EncodeStealGrant(sg)); err != nil || got != sg {
		t.Fatalf("steal grant round trip: %+v, %v", got, err)
	}
	gd := GroupDoneFrame{Group: 9}
	if got, err := DecodeGroupDone(EncodeGroupDone(gd)); err != nil || got != gd {
		t.Fatalf("group-done round trip: %+v, %v", got, err)
	}
	hb := HBFrame{Domain: 1, Seq: 99}
	if got, err := DecodePing(EncodePing(hb)); err != nil || got != hb {
		t.Fatalf("ping round trip: %+v, %v", got, err)
	}
	if got, err := DecodePong(EncodePong(hb)); err != nil || got != hb {
		t.Fatalf("pong round trip: %+v, %v", got, err)
	}
}

func TestFrameKindClassifies(t *testing.T) {
	if _, ok := FrameKind(nil); ok {
		t.Fatal("empty packet classified as task-fabric frame")
	}
	if _, ok := FrameKind([]byte{byte(kindPing)}); ok {
		t.Fatal("heartbeat kind classified as task-fabric frame")
	}
	k, ok := FrameKind(EncodeFabricShutdown())
	if !ok || k != KindFabricShutdown {
		t.Fatalf("shutdown frame: kind %d ok=%v", k, ok)
	}
	if k, ok := FrameKind(EncodeCredit(CreditFrame{})); !ok || k != KindCredit {
		t.Fatalf("credit frame: kind %d ok=%v", k, ok)
	}
}

// FuzzTaskCodec feeds arbitrary bytes to every task-fabric decoder — no
// input may panic — and, when a decode succeeds, re-encodes and checks
// the bytes round-trip exactly (the canonical-form property the host
// relies on when it re-dispatches a yielded task frame verbatim).
func FuzzTaskCodec(f *testing.F) {
	f.Add(EncodeTaskFrame(KindTask, TaskFrame{Task: 1, Job: "j", Arg: []byte{9}}))
	f.Add(EncodeTaskFrame(KindTaskYield, TaskFrame{Task: 2, Group: 3}))
	f.Add(EncodeTaskResult(TaskResultFrame{Task: 1, Payload: []byte("x")}))
	f.Add(EncodeCredit(CreditFrame{Domain: 1, Queued: 2}))
	f.Add(EncodeStealGrant(StealGrantFrame{Want: 2}))
	f.Add(EncodeGroupDone(GroupDoneFrame{Group: 5}))
	f.Add(EncodePing(HBFrame{Domain: 1, Seq: 2}))
	f.Add(EncodePeerSteal(PeerStealFrame{Thief: 1, Want: 2}))
	f.Add(EncodePeerYield(PeerYieldFrame{Victim: 1, Task: TaskFrame{Task: 4, Job: "j"}}))
	f.Add(EncodeStealMoved(StealMovedFrame{Task: 4, Thief: 1, Victim: 2}))
	// The retired kinds 17 and 18 in their old layouts (descriptor:
	// inner u8 | owner u32 | offset u64 | len u32 | hdrLen u32 | header;
	// ack: owner u32 | offset u64): they must not classify.
	f.Add(append([]byte{17, byte(KindTask), 1, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 28, 0, 0, 0},
		EncodeTaskFrame(KindTask, TaskFrame{Task: 4, Job: "j"})...))
	f.Add([]byte{18, 1, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0})
	f.Add(EncodeLoadMap(LoadMapFrame{Occ: []uint32{1, 0, 3}}))
	f.Add([]byte{})
	f.Add([]byte{byte(KindTask)})
	// A region chunk's task argument (see ChunkDesc): whole, cut inside
	// the kernel name, and claiming a name longer than the buffer.
	desc := EncodeChunkDesc(ChunkDesc{Kernel: "vecsum", Lo: 0, Hi: 4096, Arg: []byte{7}})
	f.Add(desc)
	f.Add(desc[:chunkDescHeader+3])
	f.Add(append(append([]byte(nil), desc[:16]...), 0xff, 0xff, 'v'))
	f.Fuzz(func(t *testing.T, pkt []byte) {
		if len(pkt) > 0 && (pkt[0] == 17 || pkt[0] == 18) {
			if k, ok := FrameKind(pkt); ok {
				t.Fatalf("retired kind %d classified as fabric frame kind %d", pkt[0], k)
			}
		}
		if m, err := DecodeTaskFrame(KindTask, pkt); err == nil {
			if !bytes.Equal(EncodeTaskFrame(KindTask, m), pkt) {
				t.Fatalf("task frame not canonical: % x", pkt)
			}
		}
		if m, err := DecodeTaskFrame(KindTaskYield, pkt); err == nil {
			if !bytes.Equal(EncodeTaskFrame(KindTaskYield, m), pkt) {
				t.Fatalf("yield frame not canonical: % x", pkt)
			}
		}
		if m, err := DecodeTaskResult(pkt); err == nil {
			if !bytes.Equal(EncodeTaskResult(m), pkt) {
				t.Fatalf("result frame not canonical: % x", pkt)
			}
		}
		if m, err := DecodeCredit(pkt); err == nil {
			if !bytes.Equal(EncodeCredit(m), pkt) {
				t.Fatalf("credit frame not canonical: % x", pkt)
			}
		}
		if m, err := DecodeStealGrant(pkt); err == nil {
			if !bytes.Equal(EncodeStealGrant(m), pkt) {
				t.Fatalf("steal grant not canonical: % x", pkt)
			}
		}
		if m, err := DecodeGroupDone(pkt); err == nil {
			if !bytes.Equal(EncodeGroupDone(m), pkt) {
				t.Fatalf("group-done frame not canonical: % x", pkt)
			}
		}
		if m, err := DecodePing(pkt); err == nil {
			if !bytes.Equal(EncodePing(m), pkt) {
				t.Fatalf("ping not canonical: % x", pkt)
			}
		}
		if m, err := DecodePong(pkt); err == nil {
			if !bytes.Equal(EncodePong(m), pkt) {
				t.Fatalf("pong not canonical: % x", pkt)
			}
		}
		if m, err := DecodePeerSteal(pkt); err == nil {
			if !bytes.Equal(EncodePeerSteal(m), pkt) {
				t.Fatalf("peer-steal not canonical: % x", pkt)
			}
		}
		if m, err := DecodePeerYield(pkt); err == nil {
			if !bytes.Equal(EncodePeerYield(m), pkt) {
				t.Fatalf("peer-yield not canonical: % x", pkt)
			}
		}
		if m, err := DecodeStealMoved(pkt); err == nil {
			if !bytes.Equal(EncodeStealMoved(m), pkt) {
				t.Fatalf("steal-moved not canonical: % x", pkt)
			}
		}
		if m, err := DecodeChunkDesc(pkt); err == nil {
			if !bytes.Equal(EncodeChunkDesc(m), pkt) {
				t.Fatalf("chunk descriptor not canonical: % x", pkt)
			}
		}
		if m, err := DecodeLoadMap(pkt); err == nil {
			if !bytes.Equal(EncodeLoadMap(m), pkt) {
				t.Fatalf("load-map not canonical: % x", pkt)
			}
		}
	})
}
