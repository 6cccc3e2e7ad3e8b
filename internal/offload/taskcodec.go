package offload

import (
	"encoding/binary"
	"fmt"
)

// Wire codec for the MTAPI task fabric (internal/taskfabric). Task
// frames share the heartbeat codec's conventions — little-endian
// integers, first byte is the kind — and one kind space, so a receiver
// draining a mixed channel can always classify a packet by its first
// byte. Nothing Go-specific crosses the wire: each job serializes its
// argument and result as opaque []byte.
//
//	task:       kind | task u64 | attempt u32 | group u64 |
//	            jobLen u16 | job | argLen u32 | arg
//	result:     kind | task u64 | attempt u32 | status u8 |
//	            payloadLen u32 | payload
//	groupdone:  kind | group u64
//	shutdown:   kind

// WireKind names the shared frame-kind byte.
type WireKind = msgKind

// Task fabric frame kinds, above the heartbeat kinds and the retired
// kinds 1, 2 and 5 (see codec.go). Kinds 8, 9 and 10 belonged to the
// retired host-brokered steal (task yield, steal grant, credit report)
// and stay unassigned, so old and new frames never alias.
const (
	KindTask           = msgKind(6)  // host -> worker: execute a task
	KindTaskResult     = msgKind(7)  // worker -> host: task outcome
	KindGroupDone      = msgKind(11) // host -> worker: drop queued tasks of a group
	KindFabricShutdown = msgKind(12) // host -> worker: stop the dispatcher
)

// Task result statuses.
const (
	StatusOK uint8 = iota
	StatusUnknownJob
	StatusJobError
)

// FrameKind classifies a task-fabric packet by its first byte; ok is
// false for empty packets or kinds outside the task-fabric range. Batch
// envelopes (KindBatch) are part of the range: a receiver unwraps them
// with DecodeBatch and classifies each inner frame. The mesh kinds
// (KindPeerSteal..KindStealMoved and KindLoadMap, see meshcodec.go)
// extend the range past KindBatch; the retired kinds do not classify.
func FrameKind(pkt []byte) (WireKind, bool) {
	if len(pkt) == 0 {
		return 0, false
	}
	k := msgKind(pkt[0])
	return k, k == KindTask || k == KindTaskResult ||
		(k >= KindGroupDone && k <= KindStealMoved) || k == KindLoadMap
}

// TaskFrame describes one task for a worker domain to execute (KindTask).
// A peer yield carries the same body (see meshcodec.go).
type TaskFrame struct {
	Task    uint64 // fabric-wide task ID
	Attempt uint32
	Group   uint64 // owning group ID; 0 = ungrouped
	Job     string
	Arg     []byte
}

// TaskResultFrame carries one task's outcome back to the host.
type TaskResultFrame struct {
	Task    uint64
	Attempt uint32
	Status  uint8
	Payload []byte
}

// GroupDoneFrame tells a worker a group completed or was canceled; it
// drops queued tasks belonging to that group.
type GroupDoneFrame struct {
	Group uint64
}

// EncodeTaskFrame encodes m under the given kind, which must be
// KindTask.
func EncodeTaskFrame(kind WireKind, m TaskFrame) []byte {
	buf := frameBuf(1 + 8 + 4 + 8 + 2 + len(m.Job) + 4 + len(m.Arg))
	buf = append(buf, byte(kind))
	buf = binary.LittleEndian.AppendUint64(buf, m.Task)
	buf = binary.LittleEndian.AppendUint32(buf, m.Attempt)
	buf = binary.LittleEndian.AppendUint64(buf, m.Group)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Job)))
	buf = append(buf, m.Job...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Arg)))
	buf = append(buf, m.Arg...)
	return buf
}

// DecodeTaskFrame decodes a packet of the given kind (KindTask), copying
// the argument out of pkt; use DecodeTaskFrameShared when the caller
// owns pkt exclusively.
func DecodeTaskFrame(kind WireKind, pkt []byte) (TaskFrame, error) {
	return decodeTaskFrameBuf(kind, pkt, false)
}

// DecodeTaskFrameShared decodes with m.Arg aliasing pkt — no payload
// copy. Only for receivers that own the delivered packet exclusively
// (MCAPI delivers each packet to exactly one receiver, so dispatcher
// loops qualify); pkt must stay untouched while the frame is retained.
func DecodeTaskFrameShared(kind WireKind, pkt []byte) (TaskFrame, error) {
	return decodeTaskFrameBuf(kind, pkt, true)
}

func decodeTaskFrameBuf(kind WireKind, pkt []byte, share bool) (TaskFrame, error) {
	var m TaskFrame
	if len(pkt) < 1+8+4+8+2 || msgKind(pkt[0]) != kind {
		return m, fmt.Errorf("offload: malformed task frame (%d bytes)", len(pkt))
	}
	p := pkt[1:]
	m.Task = binary.LittleEndian.Uint64(p)
	m.Attempt = binary.LittleEndian.Uint32(p[8:])
	m.Group = binary.LittleEndian.Uint64(p[12:])
	jlen := int(binary.LittleEndian.Uint16(p[20:]))
	p = p[22:]
	if len(p) < jlen+4 {
		return m, fmt.Errorf("offload: task frame truncated in job name")
	}
	m.Job = string(p[:jlen])
	p = p[jlen:]
	alen := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if len(p) != alen {
		return m, fmt.Errorf("offload: task frame arg length %d, have %d bytes", alen, len(p))
	}
	if alen > 0 {
		if share {
			m.Arg = p
		} else {
			m.Arg = append([]byte(nil), p...)
		}
	}
	return m, nil
}

// EncodeTaskResult encodes a KindTaskResult packet.
func EncodeTaskResult(m TaskResultFrame) []byte {
	buf := frameBuf(1 + 8 + 4 + 1 + 4 + len(m.Payload))
	buf = append(buf, byte(KindTaskResult))
	buf = binary.LittleEndian.AppendUint64(buf, m.Task)
	buf = binary.LittleEndian.AppendUint32(buf, m.Attempt)
	buf = append(buf, m.Status)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Payload)))
	buf = append(buf, m.Payload...)
	return buf
}

// DecodeTaskResult decodes a KindTaskResult packet, copying the payload
// out of pkt; use DecodeTaskResultShared when the caller owns pkt
// exclusively.
func DecodeTaskResult(pkt []byte) (TaskResultFrame, error) {
	return decodeTaskResultBuf(pkt, false)
}

// DecodeTaskResultShared decodes with m.Payload aliasing pkt — no copy.
// Only for receivers that own the delivered packet exclusively; pkt must
// stay untouched while the result is retained.
func DecodeTaskResultShared(pkt []byte) (TaskResultFrame, error) {
	return decodeTaskResultBuf(pkt, true)
}

func decodeTaskResultBuf(pkt []byte, share bool) (TaskResultFrame, error) {
	var m TaskResultFrame
	if len(pkt) < 1+8+4+1+4 || msgKind(pkt[0]) != KindTaskResult {
		return m, fmt.Errorf("offload: malformed task result (%d bytes)", len(pkt))
	}
	p := pkt[1:]
	m.Task = binary.LittleEndian.Uint64(p)
	m.Attempt = binary.LittleEndian.Uint32(p[8:])
	m.Status = p[12]
	plen := int(binary.LittleEndian.Uint32(p[13:]))
	p = p[17:]
	if len(p) != plen {
		return m, fmt.Errorf("offload: task result payload length %d, have %d bytes", plen, len(p))
	}
	if plen > 0 {
		if share {
			m.Payload = p
		} else {
			m.Payload = append([]byte(nil), p...)
		}
	}
	return m, nil
}

// EncodeGroupDone encodes a KindGroupDone packet.
func EncodeGroupDone(m GroupDoneFrame) []byte {
	buf := frameBuf(1 + 8)
	buf = append(buf, byte(KindGroupDone))
	buf = binary.LittleEndian.AppendUint64(buf, m.Group)
	return buf
}

// DecodeGroupDone decodes a KindGroupDone packet.
func DecodeGroupDone(pkt []byte) (GroupDoneFrame, error) {
	var m GroupDoneFrame
	if len(pkt) != 1+8 || msgKind(pkt[0]) != KindGroupDone {
		return m, fmt.Errorf("offload: malformed group-done frame (%d bytes)", len(pkt))
	}
	m.Group = binary.LittleEndian.Uint64(pkt[1:])
	return m, nil
}

// EncodeFabricShutdown encodes the one-byte KindFabricShutdown packet.
func EncodeFabricShutdown() []byte { return []byte{byte(KindFabricShutdown)} }

// Heartbeat frames, exported for the fabric's workers (MonitorHealth
// drives the host side).

// HBFrame is a heartbeat ping or pong.
type HBFrame = hbMsg

// EncodePing encodes a heartbeat ping.
func EncodePing(m HBFrame) []byte { return encodeHB(kindPing, m) }

// DecodePing decodes a heartbeat ping.
func DecodePing(msg []byte) (HBFrame, error) { return decodeHB(kindPing, msg) }

// EncodePong encodes a heartbeat pong.
func EncodePong(m HBFrame) []byte { return encodeHB(kindPong, m) }

// DecodePong decodes a heartbeat pong.
func DecodePong(msg []byte) (HBFrame, error) { return decodeHB(kindPong, msg) }
