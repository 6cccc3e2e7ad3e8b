package offload

import (
	"encoding/binary"
	"fmt"
)

// Frame batching. A flush that has several frames bound for the same
// domain coalesces them into one batch packet — one queue operation, one
// wakeup, one receive on the far side — instead of one MCAPI packet send
// per frame, and the receiver unwraps the envelope. Batches never nest.
//
//	batch: kind | count u16 | (frameLen u32 | frame)*
//
// KindBatch extends the shared kind space (heartbeat kinds 3..4, task
// fabric kinds 6..12), so any receiver draining a mixed channel can
// classify a batch by its first byte like every other frame.

// KindBatch is the batch envelope's kind byte.
const KindBatch = msgKind(13)

// batchHeader is the fixed prefix: kind byte plus the frame count.
const batchHeader = 1 + 2

// maxBatchFrames bounds one envelope; a flush larger than this splits
// into several batches.
const maxBatchFrames = 1 << 10

// IsBatch reports whether a packet is a batch envelope.
func IsBatch(pkt []byte) bool {
	return len(pkt) > 0 && msgKind(pkt[0]) == KindBatch
}

// EncodeBatch wraps the given frames into one batch packet. The frames
// are copied into the envelope, so callers may recycle them immediately.
// One lone frame still gets an envelope — senders that want the
// passthrough use a Batcher, which sends a single frame unwrapped.
func EncodeBatch(frames ...[]byte) []byte {
	size := batchHeader
	for _, f := range frames {
		size += 4 + len(f)
	}
	buf := frameBuf(size)
	buf = append(buf, byte(KindBatch))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(frames)))
	for _, f := range frames {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f)))
		buf = append(buf, f...)
	}
	return buf
}

// DecodeBatch splits a batch envelope into its frames. The returned
// slices alias pkt: the receiver owns a delivered packet exclusively, so
// no copy is needed, but pkt must not be recycled while any frame is
// retained.
func DecodeBatch(pkt []byte) ([][]byte, error) {
	if len(pkt) < batchHeader || msgKind(pkt[0]) != KindBatch {
		return nil, fmt.Errorf("offload: malformed batch (%d bytes)", len(pkt))
	}
	count := int(binary.LittleEndian.Uint16(pkt[1:]))
	if count > maxBatchFrames {
		return nil, fmt.Errorf("offload: batch count %d exceeds limit", count)
	}
	p := pkt[batchHeader:]
	frames := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		if len(p) < 4 {
			return nil, fmt.Errorf("offload: batch truncated at frame %d header", i)
		}
		flen := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if len(p) < flen {
			return nil, fmt.Errorf("offload: batch truncated at frame %d body", i)
		}
		if flen > 0 && msgKind(p[0]) == KindBatch {
			return nil, fmt.Errorf("offload: nested batch at frame %d", i)
		}
		frames = append(frames, p[:flen])
		p = p[flen:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("offload: batch has %d trailing bytes", len(p))
	}
	return frames, nil
}

// Batcher accumulates frames bound for one destination and flushes them
// as a single packet — the lone-frame case skips the envelope entirely,
// so a Batcher in front of an unbatched protocol is wire-identical.
// Added frames are owned by the Batcher and recycled on Flush/Reset.
type Batcher struct {
	frames [][]byte
}

// Add appends one encoded frame; the Batcher takes ownership.
func (b *Batcher) Add(frame []byte) { b.frames = append(b.frames, frame) }

// Len reports the frames accumulated since the last flush.
func (b *Batcher) Len() int { return len(b.frames) }

// Flush sends the accumulated frames through send as one packet (a lone
// frame goes unwrapped; an empty Batcher is a no-op) and recycles them.
// The error is send's.
func (b *Batcher) Flush(send func(pkt []byte) error) error {
	var err error
	switch len(b.frames) {
	case 0:
		return nil
	case 1:
		err = send(b.frames[0])
	default:
		for start := 0; start < len(b.frames) && err == nil; start += maxBatchFrames {
			end := start + maxBatchFrames
			if end > len(b.frames) {
				end = len(b.frames)
			}
			pkt := EncodeBatch(b.frames[start:end]...)
			err = send(pkt)
			RecycleFrame(pkt)
		}
	}
	b.Reset()
	return err
}

// Reset drops (and recycles) accumulated frames without sending.
func (b *Batcher) Reset() {
	for _, f := range b.frames {
		RecycleFrame(f)
	}
	b.frames = b.frames[:0]
}
