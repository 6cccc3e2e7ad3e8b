package offload

import "sync"

// Encode-buffer pooling for the wire codec. On the hot paths (one frame
// per task, result and heartbeat) a fresh make([]byte, ...) per
// encode shows up directly in the fork/join and round-trip latencies the
// paper's Table I measures (BENCH_0 → BENCH_1: task codec −18 %). The
// MCAPI transport copies payloads on send, so a sender may recycle a
// frame the moment Send returns — encode buffers therefore cycle through
// a sync.Pool instead of the garbage collector.

// maxPooledFrame bounds the backing arrays kept in the pool so one huge
// payload cannot pin memory forever.
const maxPooledFrame = 64 << 10

var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// frameHolders are framePool's emptied slice holders: frameBuf parks the
// holder of the buffer it hands out here, and RecycleFrame takes one back
// to pool a frame in, so recycling allocates nothing.
var frameHolders = sync.Pool{New: func() any { return new([]byte) }}

// frameBuf returns a zero-length buffer with at least the given
// capacity, pooled unless it exceeds maxPooledFrame.
func frameBuf(capacity int) []byte {
	if capacity > maxPooledFrame {
		return make([]byte, 0, capacity)
	}
	bp := framePool.Get().(*[]byte)
	b := *bp
	*bp = nil
	frameHolders.Put(bp)
	if cap(b) >= capacity {
		return b[:0]
	}
	// Too small: retire this buffer's slot with a bigger array.
	return make([]byte, 0, capacity)
}

// RecycleFrame returns an encoded frame's backing array to the pool.
// Callers may recycle a frame as soon as it has been handed to an MCAPI
// send (the transport copies) and must not touch it afterwards. Safe to
// call with nil.
func RecycleFrame(pkt []byte) {
	if pkt == nil || cap(pkt) > maxPooledFrame {
		return
	}
	bp := frameHolders.Get().(*[]byte)
	*bp = pkt[:0]
	framePool.Put(bp)
}
