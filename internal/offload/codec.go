package offload

import (
	"encoding/binary"
	"fmt"
)

// Wire codec shared by every frame that crosses a domain boundary. One
// encoded message per MCAPI packet (task traffic over the per-domain
// packet channels, see taskcodec.go) or connectionless message
// (heartbeats). All integers are little-endian; the first byte is the
// message kind:
//
//	ping/pong: kind | domain u32 | seq u64
//
// The codec is deliberately hand-rolled: the messages cross what the
// model treats as a hardware boundary (two hypervisor partitions sharing
// only the MCAPI fabric), so nothing Go-specific — no gob, no pointers —
// may appear on the wire.

type msgKind uint8

// Heartbeat kinds. Kinds 1, 2 and 5 belonged to the retired chunk
// dispatcher and stay unassigned so old and new frames never alias.
const (
	kindPing msgKind = 3
	kindPong msgKind = 4
)

// hbMsg is a heartbeat ping or pong.
type hbMsg struct {
	Domain uint32
	Seq    uint64
}

func encodeHB(kind msgKind, m hbMsg) []byte {
	buf := frameBuf(1 + 4 + 8)
	buf = append(buf, byte(kind))
	buf = binary.LittleEndian.AppendUint32(buf, m.Domain)
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	return buf
}

func decodeHB(kind msgKind, msg []byte) (hbMsg, error) {
	var m hbMsg
	if len(msg) != 1+4+8 || msgKind(msg[0]) != kind {
		return m, fmt.Errorf("offload: malformed heartbeat (%d bytes)", len(msg))
	}
	m.Domain = binary.LittleEndian.Uint32(msg[1:])
	m.Seq = binary.LittleEndian.Uint64(msg[5:])
	return m, nil
}

// ChunkDesc is the argument of one parallel-for chunk task: the kernel
// to run, its iteration range [Lo,Hi) and the region's opaque argument.
// It is not a frame of its own — it rides as the Arg of an ordinary
// KindTask frame, so a chunk is dispatched, retried, stolen and
// recovered exactly like any other fabric task:
//
//	lo i64 | hi i64 | kernelLen u16 | kernel | arg (to the end)
type ChunkDesc struct {
	Kernel string
	Lo, Hi int64
	Arg    []byte
}

// chunkDescHeader is the fixed prefix: both bounds and the name length.
const chunkDescHeader = 8 + 8 + 2

// EncodeChunkDesc encodes d into a pooled buffer; RecycleFrame it once
// the task is submitted.
func EncodeChunkDesc(d ChunkDesc) []byte {
	buf := frameBuf(chunkDescHeader + len(d.Kernel) + len(d.Arg))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Lo))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Hi))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(d.Kernel)))
	buf = append(buf, d.Kernel...)
	buf = append(buf, d.Arg...)
	return buf
}

// DecodeChunkDesc decodes a chunk task argument. d.Arg aliases b: the
// executing worker owns the task frame for the life of the chunk.
func DecodeChunkDesc(b []byte) (ChunkDesc, error) {
	var d ChunkDesc
	if len(b) < chunkDescHeader {
		return d, fmt.Errorf("offload: malformed chunk descriptor (%d bytes)", len(b))
	}
	d.Lo = int64(binary.LittleEndian.Uint64(b))
	d.Hi = int64(binary.LittleEndian.Uint64(b[8:]))
	klen := int(binary.LittleEndian.Uint16(b[16:]))
	b = b[chunkDescHeader:]
	if len(b) < klen {
		return d, fmt.Errorf("offload: chunk descriptor truncated in kernel name (%d of %d bytes)", len(b), klen)
	}
	if d.Lo > d.Hi {
		return d, fmt.Errorf("offload: chunk descriptor range [%d,%d) is inverted", d.Lo, d.Hi)
	}
	d.Kernel = string(b[:klen])
	if len(b) > klen {
		d.Arg = b[klen:]
	}
	return d, nil
}
