package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"openmpmca/internal/oerrors"
)

// The journal is a flat sequence of CRC-framed records:
//
//	+----------+----------+------------------+
//	| len u32  | crc u32  | payload (len B)  |
//	+----------+----------+------------------+
//
// both integers big-endian, crc = CRC-32 (IEEE) of the payload bytes;
// the payload is one record of the codec in codec.go. A reader accepts
// the longest prefix of intact frames and stops at the first frame
// whose header is short, whose declared length is absurd, whose payload
// is truncated, or whose CRC does not match — the torn tail a crash
// mid-append leaves behind. Everything before that point is trusted;
// everything after is dropped and reported, never guessed at.

// frameHeaderLen is the fixed framing overhead per record.
const frameHeaderLen = 8

// maxRecordLen bounds a single record so a corrupt length field cannot
// ask the reader to allocate gigabytes: results are capped far below
// this by the service, and a snapshot spends one frame per job.
const maxRecordLen = 16 << 20

// openFrame appends a blank frame header to b and returns the extended
// slice and the header's offset. The caller appends the payload, then
// seals the frame with closeFrame.
func openFrame(b []byte) ([]byte, int) {
	return append(b, make([]byte, frameHeaderLen)...), len(b)
}

// closeFrame fills in the header at b[start:] for the payload after it.
// It reports false when the payload exceeds maxRecordLen, a frame no
// reader would accept.
func closeFrame(b []byte, start int) bool {
	payload := b[start+frameHeaderLen:]
	if len(payload) > maxRecordLen {
		return false
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return true
}

// readFrame decodes one record starting at data[off]. It returns the
// payload and the offset just past the record, or ok=false when the
// bytes from off on do not form an intact record.
func readFrame(data []byte, off int) (payload []byte, next int, ok bool) {
	if off+frameHeaderLen > len(data) {
		return nil, off, false
	}
	n := int(binary.BigEndian.Uint32(data[off : off+4]))
	crc := binary.BigEndian.Uint32(data[off+4 : off+8])
	if n < 0 || n > maxRecordLen || off+frameHeaderLen+n > len(data) {
		return nil, off, false
	}
	payload = data[off+frameHeaderLen : off+frameHeaderLen+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, off, false
	}
	return payload, off + frameHeaderLen + n, true
}

// Journal entry operations, in job-lifecycle order.
const (
	// OpGroup records a completion-group creation.
	OpGroup = "group"
	// OpAccept records an admitted job, with its full payload: the
	// record alone is enough to re-execute the job from scratch.
	OpAccept = "accept"
	// OpDispatch records the hand-off of a job to the fabric or
	// offloader. A job whose last record is a dispatch was mid-flight
	// when the process died.
	OpDispatch = "dispatch"
	// OpSettle records a terminal state: succeeded (with result bytes),
	// failed (with the classified error text) or canceled.
	OpSettle = "settle"
)

// Entry is one journal record. Fields beyond Op/ID are populated per
// operation; every entry is self-contained, so replay is a pure
// left-fold and re-applying any suffix is idempotent. The JSON tags
// name the fields of version-1 journals, which are still read.
type Entry struct {
	Op string `json:"op"`
	ID string `json:"id"`           // job id (group id for OpGroup)
	At int64  `json:"at,omitempty"` // unix nanos of the transition

	// OpAccept / OpGroup.
	Tenant string `json:"tenant,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Name   string `json:"name,omitempty"`
	Arg    []byte `json:"arg,omitempty"`
	N      int    `json:"n,omitempty"`
	Group  string `json:"group,omitempty"`

	// OpSettle.
	Status    string `json:"status,omitempty"`
	Result    []byte `json:"result,omitempty"`
	Error     string `json:"error,omitempty"`
	Recovered bool   `json:"recovered,omitempty"`
}

// encodeEntry frames one entry for appending, in one allocation.
func encodeEntry(e Entry) ([]byte, error) {
	if entryTag(e.Op) == 0 {
		return nil, oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
			"durable: encode %s %s: unknown op", e.Op, e.ID)
	}
	b, start := openFrame(make([]byte, 0, frameHeaderLen+e.recordBound()))
	b = appendEntry(b, &e)
	if !closeFrame(b, start) {
		return nil, oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
			"durable: encode %s %s: %d-byte record exceeds %d",
			e.Op, e.ID, len(b)-frameHeaderLen, maxRecordLen)
	}
	return b, nil
}

// replayResult is what scanning one journal image yields: the intact
// prefix's entries, how many bytes of that prefix were good, and how
// many trailing bytes were dropped as torn or corrupt.
type replayResult struct {
	entries   []Entry
	goodBytes int64
	lostBytes int64
}

// replayJournal scans a journal image and accepts its longest intact
// prefix. A frame that decodes but whose payload is not a valid entry
// also ends the prefix: a CRC collision over garbage must not
// fabricate state. Binary and version-1 records may share one image.
func replayJournal(data []byte) replayResult {
	var res replayResult
	off := 0
	for {
		payload, next, ok := readFrame(data, off)
		if !ok {
			break
		}
		e, ok := decodeEntry(payload)
		if !ok {
			break
		}
		res.entries = append(res.entries, e)
		off = next
	}
	res.goodBytes = int64(off)
	res.lostBytes = int64(len(data) - off)
	return res
}

var errShortWrite = fmt.Errorf("short write")
