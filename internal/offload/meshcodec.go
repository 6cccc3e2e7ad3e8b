package offload

import (
	"encoding/binary"
	"fmt"
)

// Wire codec for the peer-to-peer steal mesh (internal/taskfabric).
// These kinds continue the shared kind space after KindBatch (13), so
// every channel in the fabric — host cmd/res and the worker-to-worker
// mesh — stays classifiable by its first byte.
//
//	peersteal:  kind | thief u32 | want u32
//	peeryield:  kind | victim u32 | task-frame body (see taskcodec.go)
//	stealmoved: kind | task u64 | thief u32 | victim u32
//	loadmap:    kind | n u32 | n x occ u32

// Mesh frame kinds, continuing the shared kind space after KindBatch
// (13). Kinds 17 and 18 belonged to the retired remote-memory
// descriptor and ack frames and stay unassigned, like 1, 2, 5 and 8-10,
// so old and new frames never alias.
const (
	KindPeerSteal  = msgKind(14) // thief -> victim: yield up to N queued tasks
	KindPeerYield  = msgKind(15) // victim -> thief (direct): one queued task changes hands
	KindStealMoved = msgKind(16) // thief -> host: re-point accounting after a direct steal
	KindLoadMap    = msgKind(19) // host -> workers: per-domain occupancy snapshot
)

// PeerStealFrame asks a victim domain to yield up to Want queued tasks
// directly to the thief. It travels only over the mesh; the host never
// sees it.
type PeerStealFrame struct {
	Thief uint32 // requesting domain id
	Want  uint32 // max tasks to yield
}

// PeerYieldFrame hands one queued task directly from victim to thief;
// the embedded TaskFrame is the same body a host dispatch carries.
type PeerYieldFrame struct {
	Victim uint32
	Task   TaskFrame
}

// StealMovedFrame tells the host a task migrated victim -> thief via a
// direct peer steal, so flight accounting, occupancy and loss recovery
// follow the task to its new executor.
type StealMovedFrame struct {
	Task   uint64
	Thief  uint32
	Victim uint32
}

// LoadMapFrame is the host's occupancy broadcast: Occ[i] is the
// in-flight count of worker domain i+1. Idle workers pick their steal
// victim from the most recent map.
type LoadMapFrame struct {
	Occ []uint32
}

// EncodePeerSteal encodes a KindPeerSteal packet.
func EncodePeerSteal(m PeerStealFrame) []byte {
	buf := frameBuf(1 + 4 + 4)
	buf = append(buf, byte(KindPeerSteal))
	buf = binary.LittleEndian.AppendUint32(buf, m.Thief)
	buf = binary.LittleEndian.AppendUint32(buf, m.Want)
	return buf
}

// DecodePeerSteal decodes a KindPeerSteal packet.
func DecodePeerSteal(pkt []byte) (PeerStealFrame, error) {
	var m PeerStealFrame
	if len(pkt) != 1+4+4 || msgKind(pkt[0]) != KindPeerSteal {
		return m, fmt.Errorf("offload: malformed peer-steal frame (%d bytes)", len(pkt))
	}
	m.Thief = binary.LittleEndian.Uint32(pkt[1:])
	m.Want = binary.LittleEndian.Uint32(pkt[5:])
	return m, nil
}

// EncodePeerYield encodes a KindPeerYield packet: the victim id followed
// by the task-frame body.
func EncodePeerYield(m PeerYieldFrame) []byte {
	t := m.Task
	buf := frameBuf(1 + 4 + 8 + 4 + 8 + 2 + len(t.Job) + 4 + len(t.Arg))
	buf = append(buf, byte(KindPeerYield))
	buf = binary.LittleEndian.AppendUint32(buf, m.Victim)
	buf = binary.LittleEndian.AppendUint64(buf, t.Task)
	buf = binary.LittleEndian.AppendUint32(buf, t.Attempt)
	buf = binary.LittleEndian.AppendUint64(buf, t.Group)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t.Job)))
	buf = append(buf, t.Job...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Arg)))
	buf = append(buf, t.Arg...)
	return buf
}

// DecodePeerYield decodes a KindPeerYield packet, copying the argument
// out of pkt; use DecodePeerYieldShared when the caller owns pkt
// exclusively.
func DecodePeerYield(pkt []byte) (PeerYieldFrame, error) {
	return decodePeerYieldBuf(pkt, false)
}

// DecodePeerYieldShared decodes with Task.Arg aliasing pkt — no copy.
// Only for receivers that own the delivered packet exclusively.
func DecodePeerYieldShared(pkt []byte) (PeerYieldFrame, error) {
	return decodePeerYieldBuf(pkt, true)
}

func decodePeerYieldBuf(pkt []byte, share bool) (PeerYieldFrame, error) {
	var m PeerYieldFrame
	if len(pkt) < 1+4 || msgKind(pkt[0]) != KindPeerYield {
		return m, fmt.Errorf("offload: malformed peer-yield frame (%d bytes)", len(pkt))
	}
	m.Victim = binary.LittleEndian.Uint32(pkt[1:])
	p := pkt[5:]
	if len(p) < 8+4+8+2 {
		return m, fmt.Errorf("offload: peer-yield frame truncated (%d bytes)", len(pkt))
	}
	m.Task.Task = binary.LittleEndian.Uint64(p)
	m.Task.Attempt = binary.LittleEndian.Uint32(p[8:])
	m.Task.Group = binary.LittleEndian.Uint64(p[12:])
	jlen := int(binary.LittleEndian.Uint16(p[20:]))
	p = p[22:]
	if len(p) < jlen+4 {
		return m, fmt.Errorf("offload: peer-yield frame truncated in job name")
	}
	m.Task.Job = string(p[:jlen])
	p = p[jlen:]
	alen := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if len(p) != alen {
		return m, fmt.Errorf("offload: peer-yield arg length %d, have %d bytes", alen, len(p))
	}
	if alen > 0 {
		if share {
			m.Task.Arg = p
		} else {
			m.Task.Arg = append([]byte(nil), p...)
		}
	}
	return m, nil
}

// EncodeStealMoved encodes a KindStealMoved packet.
func EncodeStealMoved(m StealMovedFrame) []byte {
	buf := frameBuf(1 + 8 + 4 + 4)
	buf = append(buf, byte(KindStealMoved))
	buf = binary.LittleEndian.AppendUint64(buf, m.Task)
	buf = binary.LittleEndian.AppendUint32(buf, m.Thief)
	buf = binary.LittleEndian.AppendUint32(buf, m.Victim)
	return buf
}

// DecodeStealMoved decodes a KindStealMoved packet.
func DecodeStealMoved(pkt []byte) (StealMovedFrame, error) {
	var m StealMovedFrame
	if len(pkt) != 1+8+4+4 || msgKind(pkt[0]) != KindStealMoved {
		return m, fmt.Errorf("offload: malformed steal-moved frame (%d bytes)", len(pkt))
	}
	m.Task = binary.LittleEndian.Uint64(pkt[1:])
	m.Thief = binary.LittleEndian.Uint32(pkt[9:])
	m.Victim = binary.LittleEndian.Uint32(pkt[13:])
	return m, nil
}

// EncodeLoadMap encodes a KindLoadMap packet.
func EncodeLoadMap(m LoadMapFrame) []byte {
	buf := frameBuf(1 + 4 + 4*len(m.Occ))
	buf = append(buf, byte(KindLoadMap))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Occ)))
	for _, o := range m.Occ {
		buf = binary.LittleEndian.AppendUint32(buf, o)
	}
	return buf
}

// DecodeLoadMap decodes a KindLoadMap packet.
func DecodeLoadMap(pkt []byte) (LoadMapFrame, error) {
	var m LoadMapFrame
	if len(pkt) < 1+4 || msgKind(pkt[0]) != KindLoadMap {
		return m, fmt.Errorf("offload: malformed load-map frame (%d bytes)", len(pkt))
	}
	n := int(binary.LittleEndian.Uint32(pkt[1:]))
	if len(pkt) != 1+4+4*n {
		return m, fmt.Errorf("offload: load-map count %d, have %d bytes", n, len(pkt))
	}
	if n > 0 {
		m.Occ = make([]uint32, n)
		for i := range m.Occ {
			m.Occ[i] = binary.LittleEndian.Uint32(pkt[5+4*i:])
		}
	}
	return m, nil
}
