package offload

import (
	"bytes"
	"fmt"
	"testing"
)

func TestBatchRoundTrip(t *testing.T) {
	frames := [][]byte{
		EncodeTaskFrame(KindTask, TaskFrame{Task: 1, Attempt: 2, Job: "k", Arg: []byte("arg")}),
		EncodeTaskResult(TaskResultFrame{Task: 1, Attempt: 2, Payload: []byte("payload")}),
		encodeHB(kindPing, hbMsg{Domain: 3, Seq: 9}),
	}
	pkt := EncodeBatch(frames...)
	if k, ok := FrameKind(pkt); !ok || k != KindBatch {
		t.Fatalf("FrameKind = %d, %v for a batch packet", k, ok)
	}
	got, err := DecodeBatch(pkt)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d mismatch: %x != %x", i, got[i], frames[i])
		}
	}
}

func TestBatchRejectsMalformed(t *testing.T) {
	inner := encodeHB(kindPing, hbMsg{Domain: 1, Seq: 1})
	nested := EncodeBatch(EncodeBatch(inner))
	if _, err := DecodeBatch(nested); err == nil {
		t.Fatalf("nested batch accepted")
	}
	ok := EncodeBatch(inner, inner)
	if _, err := DecodeBatch(ok[:len(ok)-2]); err == nil {
		t.Fatalf("truncated batch accepted")
	}
	if _, err := DecodeBatch(append(append([]byte(nil), ok...), 0xFF)); err == nil {
		t.Fatalf("batch with trailing bytes accepted")
	}
	if _, err := DecodeBatch([]byte{byte(KindTask), 0, 0}); err == nil {
		t.Fatalf("non-batch kind accepted")
	}
}

func TestBatcherLoneFramePassthrough(t *testing.T) {
	var b Batcher
	frame := encodeHB(kindPong, hbMsg{Domain: 2, Seq: 7})
	want := append([]byte(nil), frame...)
	b.Add(frame)
	var sent [][]byte
	if err := b.Flush(func(pkt []byte) error {
		sent = append(sent, append([]byte(nil), pkt...))
		return nil
	}); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(sent) != 1 {
		t.Fatalf("lone frame sent as %d packets", len(sent))
	}
	if WireKind(sent[0][0]) == KindBatch {
		t.Fatalf("lone frame was wrapped in a batch envelope")
	}
	if !bytes.Equal(sent[0], want) {
		t.Fatalf("lone frame altered on the wire")
	}
	if b.Len() != 0 {
		t.Fatalf("Batcher not reset after Flush")
	}
}

func TestBatcherCoalescesAndSplits(t *testing.T) {
	var b Batcher
	total := maxBatchFrames + 5
	for i := 0; i < total; i++ {
		b.Add(encodeHB(kindPing, hbMsg{Domain: 1, Seq: uint64(i)}))
	}
	var packets [][]byte
	if err := b.Flush(func(pkt []byte) error {
		packets = append(packets, append([]byte(nil), pkt...))
		return nil
	}); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(packets) != 2 {
		t.Fatalf("flushed %d packets, want 2 (split at %d frames)", len(packets), maxBatchFrames)
	}
	seen := 0
	for _, pkt := range packets {
		frames, err := DecodeBatch(pkt)
		if err != nil {
			t.Fatalf("DecodeBatch: %v", err)
		}
		for _, f := range frames {
			m, derr := decodeHB(kindPing, f)
			if derr != nil {
				t.Fatalf("decodeHB: %v", derr)
			}
			if m.Seq != uint64(seen) {
				t.Fatalf("frame order broken: seq %d at position %d", m.Seq, seen)
			}
			seen++
		}
	}
	if seen != total {
		t.Fatalf("round-tripped %d frames, want %d", seen, total)
	}
}

func TestBatcherFlushErrorDropsFrames(t *testing.T) {
	var b Batcher
	b.Add(encodeHB(kindPing, hbMsg{Seq: 1}))
	b.Add(encodeHB(kindPing, hbMsg{Seq: 2}))
	sendErr := fmt.Errorf("queue full")
	if err := b.Flush(func([]byte) error { return sendErr }); err != sendErr {
		t.Fatalf("Flush err = %v, want the send error", err)
	}
	if b.Len() != 0 {
		t.Fatalf("failed Flush retained %d frames", b.Len())
	}
}

// TestSharedDecodeAliases pins the zero-copy contract: the shared decode
// 's payload aliases the packet, the copying decode's does not.
func TestSharedDecodeAliases(t *testing.T) {
	pkt := EncodeTaskResult(TaskResultFrame{Task: 1, Attempt: 2, Payload: []byte("abcdef")})
	shared, err := DecodeTaskResultShared(pkt)
	if err != nil {
		t.Fatalf("DecodeTaskResultShared: %v", err)
	}
	copied, err := DecodeTaskResult(pkt)
	if err != nil {
		t.Fatalf("DecodeTaskResult: %v", err)
	}
	pkt[len(pkt)-1] ^= 0xFF // mutate the packet's last payload byte
	if shared.Payload[len(shared.Payload)-1] == copied.Payload[len(copied.Payload)-1] {
		t.Fatalf("shared decode does not alias the packet (or copying decode does)")
	}
}
