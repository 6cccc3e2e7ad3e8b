package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"openmpmca/internal/oerrors"
)

// The record codec. Every journal entry and every snapshot record is
// the payload of one CRC frame (journal.go), laid out as
//
//	tag byte | fields: uvarint length, then the bytes | integers: varints
//
// in a fixed order per tag. A journal entry's tag is its op. A
// snapshot file is a header record (generation, write time, job count,
// group count), then one frame per job and one per group, each in ID
// order, and nothing after — so no frame grows with the state. Readers
// are strict: an unknown tag, a length past the payload, a padded
// varint, a flag other than 0 or 1, or a byte left over invalidates the
// record, which makes a decoded state re-encode to the same bytes.
//
// Version-1 stores wrote JSON payloads (a snapshot was one frame
// holding the whole state). JSON starts with '{', which no tag uses, so
// those payloads are still read; nothing writes them any more.

// Record tags. 0 is never a tag.
const (
	tagGroup byte = iota + 1 // journal entries: one tag per op
	tagAccept
	tagDispatch
	tagSettle
	tagSnapshot   // snapshot header
	tagJobState   // one job of a snapshot
	tagGroupState // one group of a snapshot
)

// tagOps maps an entry tag back to its op.
var tagOps = [...]string{tagGroup: OpGroup, tagAccept: OpAccept, tagDispatch: OpDispatch, tagSettle: OpSettle}

// entryTag maps an op to its tag, 0 for an unknown op.
func entryTag(op string) byte {
	switch op {
	case OpGroup:
		return tagGroup
	case OpAccept:
		return tagAccept
	case OpDispatch:
		return tagDispatch
	case OpSettle:
		return tagSettle
	}
	return 0
}

// isV1 reports whether a payload is a version-1 JSON record.
func isV1(payload []byte) bool { return len(payload) > 0 && payload[0] == '{' }

// Buffer sizing: a length prefix below maxRecordLen takes at most
// lenSlack bytes, an integer at most binary.MaxVarintLen64.
const lenSlack = 4

func appendField[T ~string | ~[]byte](b []byte, s T) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// reader decodes one record payload. The first malformed field marks
// it bad, and every read after that returns a zero value. Byte fields
// alias the payload; strings are copied.
type reader struct {
	b   []byte
	bad bool
}

func (r *reader) fail() { r.b, r.bad = nil, true }

// end reports whether the record was well formed and fully consumed.
func (r *reader) end() bool { return !r.bad && len(r.b) == 0 }

func (r *reader) tag() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	t := r.b[0]
	r.b = r.b[1:]
	return t
}

// uvarint accepts only the minimal encoding: binary.Uvarint also takes
// padded forms (a final 0x00 group), which would re-encode differently.
func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varint undoes binary.AppendVarint's zigzag over a minimal uvarint.
func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) flag() bool {
	switch r.uvarint() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail()
	return false
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) string() string { return string(r.bytes()) }

// ---------------------------------------------------------------------------
// Journal entries.

// recordBound bounds the size of e's record, to size its buffer.
func (e *Entry) recordBound() int {
	return 1 + 9*lenSlack + 3*binary.MaxVarintLen64 +
		len(e.ID) + len(e.Tenant) + len(e.Kind) + len(e.Name) + len(e.Arg) +
		len(e.Group) + len(e.Status) + len(e.Result) + len(e.Error)
}

// appendEntry appends e's record. e.Op must be known.
func appendEntry(b []byte, e *Entry) []byte {
	b = append(b, entryTag(e.Op))
	b = appendField(b, e.ID)
	b = appendField(b, e.Tenant)
	b = appendField(b, e.Kind)
	b = appendField(b, e.Name)
	b = appendField(b, e.Arg)
	b = appendField(b, e.Group)
	b = appendField(b, e.Status)
	b = appendField(b, e.Result)
	b = appendField(b, e.Error)
	b = binary.AppendVarint(b, e.At)
	b = binary.AppendVarint(b, int64(e.N))
	return appendFlag(b, e.Recovered)
}

// decodeEntry parses one journal payload, binary or version 1. An entry
// needs a known op and an ID.
func decodeEntry(p []byte) (Entry, bool) {
	if isV1(p) {
		var e Entry
		if json.Unmarshal(p, &e) != nil || entryTag(e.Op) == 0 || e.ID == "" {
			return Entry{}, false
		}
		return e, true
	}
	r := reader{b: p}
	t := r.tag()
	if int(t) >= len(tagOps) || tagOps[t] == "" {
		return Entry{}, false
	}
	// Composite-literal operands evaluate left to right: the field
	// order below is the record order.
	e := Entry{
		Op: tagOps[t], ID: r.string(), Tenant: r.string(), Kind: r.string(),
		Name: r.string(), Arg: r.bytes(), Group: r.string(), Status: r.string(),
		Result: r.bytes(), Error: r.string(), At: r.varint(), N: int(r.varint()),
		Recovered: r.flag(),
	}
	return e, r.end() && e.ID != ""
}

// ---------------------------------------------------------------------------
// Snapshots.

func (j *JobState) recordBound() int {
	return 1 + 9*lenSlack + 5*binary.MaxVarintLen64 +
		len(j.ID) + len(j.Tenant) + len(j.Kind) + len(j.Name) + len(j.Arg) +
		len(j.Group) + len(j.Status) + len(j.Result) + len(j.Error)
}

func appendJobState(b []byte, j *JobState) []byte {
	b = append(b, tagJobState)
	b = appendField(b, j.ID)
	b = appendField(b, j.Tenant)
	b = appendField(b, j.Kind)
	b = appendField(b, j.Name)
	b = appendField(b, j.Arg)
	b = appendField(b, j.Group)
	b = appendField(b, j.Status)
	b = appendField(b, j.Result)
	b = appendField(b, j.Error)
	b = binary.AppendVarint(b, int64(j.N))
	b = binary.AppendVarint(b, j.SubmittedNs)
	b = binary.AppendVarint(b, j.StartedNs)
	b = binary.AppendVarint(b, j.FinishedNs)
	return appendFlag(b, j.Recovered)
}

func decodeJobState(p []byte, j *JobState) bool {
	r := reader{b: p}
	if r.tag() != tagJobState {
		return false
	}
	*j = JobState{
		ID: r.string(), Tenant: r.string(), Kind: r.string(), Name: r.string(),
		Arg: r.bytes(), Group: r.string(), Status: r.string(), Result: r.bytes(),
		Error: r.string(), N: int(r.varint()), SubmittedNs: r.varint(),
		StartedNs: r.varint(), FinishedNs: r.varint(), Recovered: r.flag(),
	}
	return r.end()
}

func (g *GroupState) recordBound() int {
	return 1 + 2*lenSlack + binary.MaxVarintLen64 + len(g.ID) + len(g.Tenant)
}

func appendGroupState(b []byte, g *GroupState) []byte {
	b = append(b, tagGroupState)
	b = appendField(b, g.ID)
	b = appendField(b, g.Tenant)
	return binary.AppendVarint(b, g.CreatedNs)
}

func decodeGroupState(p []byte, g *GroupState) bool {
	r := reader{b: p}
	if r.tag() != tagGroupState {
		return false
	}
	*g = GroupState{ID: r.string(), Tenant: r.string(), CreatedNs: r.varint()}
	return r.end()
}

// The smallest job and group frames: a declared count above what the
// rest of the file could hold is torn before anything is allocated.
var (
	minJobFrame   = uint64(frameHeaderLen + len(appendJobState(nil, &JobState{})))
	minGroupFrame = uint64(frameHeaderLen + len(appendGroupState(nil, &GroupState{})))
)

// encodeSnapshot renders the state as a snapshot file image: the
// header frame, then one frame per job and per group, in ID order so
// identical states serialize identically.
func encodeSnapshot(st *State, gen uint64, at int64) ([]byte, error) {
	size := frameHeaderLen + 1 + 4*binary.MaxVarintLen64
	jobs := make([]*JobState, 0, len(st.Jobs))
	for _, j := range st.Jobs {
		jobs = append(jobs, j)
		size += frameHeaderLen + j.recordBound()
	}
	slices.SortFunc(jobs, func(a, b *JobState) int { return strings.Compare(a.ID, b.ID) })
	groups := make([]*GroupState, 0, len(st.Groups))
	for _, g := range st.Groups {
		groups = append(groups, g)
		size += frameHeaderLen + g.recordBound()
	}
	slices.SortFunc(groups, func(a, b *GroupState) int { return strings.Compare(a.ID, b.ID) })

	b, start := openFrame(make([]byte, 0, size))
	b = append(b, tagSnapshot)
	b = binary.AppendUvarint(b, gen)
	b = binary.AppendVarint(b, at)
	b = binary.AppendUvarint(b, uint64(len(jobs)))
	b = binary.AppendUvarint(b, uint64(len(groups)))
	closeFrame(b, start)
	for _, j := range jobs {
		b, start = openFrame(b)
		if b = appendJobState(b, j); !closeFrame(b, start) {
			return nil, oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
				"durable: encode snapshot gen %d: job %s record exceeds %d bytes", gen, j.ID, maxRecordLen)
		}
	}
	for _, g := range groups {
		b, start = openFrame(b)
		if b = appendGroupState(b, g); !closeFrame(b, start) {
			return nil, oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
				"durable: encode snapshot gen %d: group %s record exceeds %d bytes", gen, g.ID, maxRecordLen)
		}
	}
	return b, nil
}

func tornSnapshot(size int, why string) error {
	return oerrors.Errorf(oerrors.Internal, oerrors.CodeSnapshotTorn,
		"durable: snapshot torn (%d bytes): %s", size, why)
}

// decodeSnapshot parses a snapshot file image and returns its state,
// generation and write time. A torn or bit-flipped snapshot, a count
// that disagrees with the frames, or trailing bytes fail here — with a
// classified error — and recovery falls back a generation.
func decodeSnapshot(data []byte) (*State, uint64, int64, error) {
	head, off, ok := readFrame(data, 0)
	if !ok {
		return nil, 0, 0, tornSnapshot(len(data), "bad header frame")
	}
	if isV1(head) {
		return decodeSnapshotV1(head, len(data)-off)
	}
	r := reader{b: head}
	if r.tag() != tagSnapshot {
		r.fail()
	}
	gen, at := r.uvarint(), r.varint()
	nJobs, nGroups := r.uvarint(), r.uvarint()
	rest := uint64(len(data) - off)
	if !r.end() || nJobs > rest/minJobFrame || nGroups > (rest-nJobs*minJobFrame)/minGroupFrame {
		return nil, 0, 0, tornSnapshot(len(data), "bad header record")
	}
	st := &State{
		Jobs:   make(map[string]*JobState, nJobs),
		Groups: make(map[string]*GroupState, nGroups),
	}
	jobs := make([]JobState, nJobs) // one allocation for every job
	for i := range jobs {
		var payload []byte
		if payload, off, ok = readFrame(data, off); !ok || !decodeJobState(payload, &jobs[i]) ||
			(i > 0 && jobs[i].ID <= jobs[i-1].ID) {
			return nil, 0, 0, tornSnapshot(len(data), "bad job frame")
		}
		st.Jobs[jobs[i].ID] = &jobs[i]
	}
	groups := make([]GroupState, nGroups)
	for i := range groups {
		var payload []byte
		if payload, off, ok = readFrame(data, off); !ok || !decodeGroupState(payload, &groups[i]) ||
			(i > 0 && groups[i].ID <= groups[i-1].ID) {
			return nil, 0, 0, tornSnapshot(len(data), "bad group frame")
		}
		st.Groups[groups[i].ID] = &groups[i]
	}
	if off != len(data) {
		return nil, 0, 0, tornSnapshot(len(data), "trailing bytes")
	}
	return st, gen, at, nil
}

// snapshotV1 is a version-1 snapshot: the whole state as one JSON
// frame.
type snapshotV1 struct {
	Version int          `json:"version"`
	Gen     uint64       `json:"gen"`
	At      int64        `json:"at"`
	Jobs    []JobState   `json:"jobs"`
	Groups  []GroupState `json:"groups"`
}

func decodeSnapshotV1(payload []byte, trailing int) (*State, uint64, int64, error) {
	size := frameHeaderLen + len(payload) + trailing
	if trailing != 0 {
		return nil, 0, 0, tornSnapshot(size, "trailing bytes")
	}
	var img snapshotV1
	if err := json.Unmarshal(payload, &img); err != nil {
		return nil, 0, 0, tornSnapshot(size, err.Error())
	}
	if img.Version != 1 {
		return nil, 0, 0, tornSnapshot(size, fmt.Sprintf("JSON image version %d, want 1", img.Version))
	}
	st := newState()
	for i := range img.Jobs {
		st.Jobs[img.Jobs[i].ID] = &img.Jobs[i]
	}
	for i := range img.Groups {
		st.Groups[img.Groups[i].ID] = &img.Groups[i]
	}
	return st, img.Gen, img.At, nil
}
