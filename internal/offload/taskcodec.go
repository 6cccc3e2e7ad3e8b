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
//	task/yield: kind | task u64 | attempt u32 | group u64 |
//	            jobLen u16 | job | argLen u32 | arg
//	result:     kind | task u64 | attempt u32 | status u8 |
//	            payloadLen u32 | payload
//	credit:     kind | domain u32 | queued u32 | running u32
//	steal:      kind | want u32
//	groupdone:  kind | group u64
//	shutdown:   kind

// WireKind names the shared frame-kind byte.
type WireKind = msgKind

// Task fabric frame kinds, above the heartbeat kinds and the retired
// kinds 1, 2 and 5 (see codec.go).
const (
	KindTask           = msgKind(6 + iota) // host -> worker: execute a task
	KindTaskResult                         // worker -> host: task outcome
	KindTaskYield                          // worker -> host: stolen task returned unexecuted
	KindStealGrant                         // host -> worker: yield up to N queued tasks
	KindCredit                             // worker -> host: queue occupancy report
	KindGroupDone                          // host -> worker: drop queued tasks of a group
	KindFabricShutdown                     // host -> worker: stop the dispatcher
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
// extend the range past KindBatch; the retired kinds in between do not
// classify.
func FrameKind(pkt []byte) (WireKind, bool) {
	if len(pkt) == 0 {
		return 0, false
	}
	k := msgKind(pkt[0])
	return k, (k >= KindTask && k <= KindStealMoved) || k == KindLoadMap
}

// TaskFrame describes one task for a worker domain to execute (KindTask)
// or one a worker hands back unexecuted after a steal grant
// (KindTaskYield) — the same layout both directions, so a yielded task
// re-dispatches without re-encoding.
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

// CreditFrame reports a worker's queue occupancy; the host uses it to
// spot idle domains (steal thieves) and loaded ones (steal victims).
type CreditFrame struct {
	Domain  uint32
	Queued  uint32 // tasks accepted but not yet started
	Running uint32 // tasks currently executing
}

// StealGrantFrame asks a worker to yield up to Want queued tasks.
type StealGrantFrame struct {
	Want uint32
}

// GroupDoneFrame tells a worker a group completed or was canceled; it
// drops queued tasks belonging to that group.
type GroupDoneFrame struct {
	Group uint64
}

// EncodeTaskFrame encodes m under the given kind, which must be KindTask
// or KindTaskYield.
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

// DecodeTaskFrame decodes a KindTask or KindTaskYield packet, copying
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

// EncodeCredit encodes a KindCredit packet.
func EncodeCredit(m CreditFrame) []byte {
	buf := frameBuf(1 + 4 + 4 + 4)
	buf = append(buf, byte(KindCredit))
	buf = binary.LittleEndian.AppendUint32(buf, m.Domain)
	buf = binary.LittleEndian.AppendUint32(buf, m.Queued)
	buf = binary.LittleEndian.AppendUint32(buf, m.Running)
	return buf
}

// DecodeCredit decodes a KindCredit packet.
func DecodeCredit(pkt []byte) (CreditFrame, error) {
	var m CreditFrame
	if len(pkt) != 1+4+4+4 || msgKind(pkt[0]) != KindCredit {
		return m, fmt.Errorf("offload: malformed credit frame (%d bytes)", len(pkt))
	}
	m.Domain = binary.LittleEndian.Uint32(pkt[1:])
	m.Queued = binary.LittleEndian.Uint32(pkt[5:])
	m.Running = binary.LittleEndian.Uint32(pkt[9:])
	return m, nil
}

// EncodeStealGrant encodes a KindStealGrant packet.
func EncodeStealGrant(m StealGrantFrame) []byte {
	buf := frameBuf(1 + 4)
	buf = append(buf, byte(KindStealGrant))
	buf = binary.LittleEndian.AppendUint32(buf, m.Want)
	return buf
}

// DecodeStealGrant decodes a KindStealGrant packet.
func DecodeStealGrant(pkt []byte) (StealGrantFrame, error) {
	var m StealGrantFrame
	if len(pkt) != 1+4 || msgKind(pkt[0]) != KindStealGrant {
		return m, fmt.Errorf("offload: malformed steal grant (%d bytes)", len(pkt))
	}
	m.Want = binary.LittleEndian.Uint32(pkt[1:])
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
