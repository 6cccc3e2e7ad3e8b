// Package durable is the job service's persistence layer: an
// append-only, CRC-framed write-ahead journal plus periodic snapshot
// compaction, recording every job-state transition (accepted →
// dispatched → settled/canceled, with tenant, kind, payload and result
// bytes) so that a server restart — graceful or SIGKILL — loses
// nothing.
//
// On disk a state directory holds generation-numbered pairs:
//
//	snap-000003.db    full state as of generation 3's birth (a header
//	                  frame, then one CRC frame per job and per group)
//	wal-000003.log    every transition since (a sequence of CRC frames)
//
// Appends go to the newest wal and are fsynced before the caller's
// response leaves the process, so an accepted job survives any crash.
// When the wal outgrows a threshold the store compacts: it writes the
// folded state to snap-<g+1>.tmp, fsyncs, renames it into place, starts
// an empty wal-<g+1>.log, fsyncs the directory and prunes generations
// older than g. Because every journal entry is self-contained and
// idempotent, a crash at any point of that dance is safe: recovery
// loads the newest snapshot that passes its CRC and replays every wal
// of that generation and later, in order, each to its longest intact
// prefix. A torn snapshot (crash mid-write, bit rot) simply falls back
// one generation — the previous snapshot plus the retained wals
// reconstruct the same state.
//
// A restart costs what changed since the newest snapshot. Close
// compacts only when the live wal holds at least a quarter of that
// snapshot's bytes (foldDivisor), and Open appends to the newest wal as
// is when it is intact and under that share beside an intact binary
// snapshot of the same generation. Anything else (a grown wal, a torn
// tail, a torn snapshot, a wal-only generation, a version-1 snapshot)
// is folded into a fresh generation, so the process never appends
// behind a torn tail.
//
// Jobs and groups are kept, written to snapshots and replayed in
// journal order, which is accept order: recovery sorts nothing unless it
// reads a snapshot an earlier version wrote in ID order, or two accepts
// were journaled against their times.
//
// Jobs that were mid-flight at crash time come back with Status
// "running"; the service re-enqueues them for deterministic
// re-execution — safe because every builtin is closed-form and results
// are byte-verified downstream.
package durable

import (
	"cmp"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"openmpmca/internal/oerrors"
)

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = oerrors.Sentinel(oerrors.Cancel, oerrors.CodeStoreClosed,
	"durable: store closed")

// Job statuses a JobState carries; they mirror the job service's wire
// statuses.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusSucceeded = "succeeded"
	StatusFailed    = "failed"
	StatusCanceled  = "canceled"
)

// JobState is the folded state of one job after replay. The JSON tags
// name the fields of version-1 snapshots, which are still read.
//
// A settled JobState is immutable: apply ignores every accept, dispatch
// and settle record for a settled job, and compaction only reads it. A
// caller may keep a pointer to a settled job of the recovered state for
// the store's lifetime and after it, and read it without the store's
// lock while others append.
type JobState struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Arg    []byte `json:"arg,omitempty"`
	N      int    `json:"n,omitempty"`
	Group  string `json:"group,omitempty"`

	Status    string `json:"status"`
	Result    []byte `json:"result,omitempty"`
	Error     string `json:"error,omitempty"`
	Recovered bool   `json:"recovered,omitempty"`

	SubmittedNs int64 `json:"submitted_ns,omitempty"`
	StartedNs   int64 `json:"started_ns,omitempty"`
	FinishedNs  int64 `json:"finished_ns,omitempty"`
}

// Settled reports whether the job reached a terminal state.
func (j *JobState) Settled() bool {
	switch j.Status {
	case StatusSucceeded, StatusFailed, StatusCanceled:
		return true
	}
	return false
}

// GroupState is the folded state of one completion group.
type GroupState struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	CreatedNs int64  `json:"created_ns,omitempty"`
}

// State is the full folded store state: every job and group ever
// journaled and not yet pruned by compaction retention. Each map is
// indexed by ID; the slice beside it holds the same values in accept
// order, which is the order snapshots store them in.
type State struct {
	Jobs   map[string]*JobState
	Groups map[string]*GroupState

	JobOrder   []*JobState
	GroupOrder []*GroupState
}

func newState() *State {
	return &State{Jobs: make(map[string]*JobState), Groups: make(map[string]*GroupState)}
}

// inAcceptOrder restores accept order when the state is not in it: a
// snapshot an earlier version wrote in ID order, or two accepts
// journaled against their times. One O(n) check decides; the stable
// sort by accept time keeps ties in the order they had, so an
// ID-ordered image sorts by (time, ID).
func (st *State) inAcceptOrder() {
	byJob := func(a, b *JobState) int { return cmp.Compare(a.SubmittedNs, b.SubmittedNs) }
	if !slices.IsSortedFunc(st.JobOrder, byJob) {
		slices.SortStableFunc(st.JobOrder, byJob)
	}
	byGroup := func(a, b *GroupState) int { return cmp.Compare(a.CreatedNs, b.CreatedNs) }
	if !slices.IsSortedFunc(st.GroupOrder, byGroup) {
		slices.SortStableFunc(st.GroupOrder, byGroup)
	}
}

// apply folds one entry into the state. Every operation is idempotent
// and tolerant of replayed suffixes: re-accepting an existing job or
// re-settling a settled one is a no-op, so recovery may replay a wal
// whose prefix was already folded into a snapshot.
func (st *State) apply(e Entry) {
	switch e.Op {
	case OpGroup:
		if _, ok := st.Groups[e.ID]; !ok {
			g := &GroupState{ID: e.ID, Tenant: e.Tenant, CreatedNs: e.At}
			st.Groups[e.ID] = g
			st.GroupOrder = append(st.GroupOrder, g)
		}
	case OpAccept:
		if _, ok := st.Jobs[e.ID]; ok {
			return
		}
		j := &JobState{
			ID: e.ID, Tenant: e.Tenant, Kind: e.Kind, Name: e.Name,
			Arg: e.Arg, N: e.N, Group: e.Group,
			Status: StatusQueued, SubmittedNs: e.At,
		}
		st.Jobs[e.ID] = j
		st.JobOrder = append(st.JobOrder, j)
	case OpDispatch:
		if j, ok := st.Jobs[e.ID]; ok && !j.Settled() {
			j.Status = StatusRunning
			j.StartedNs = e.At
		}
	case OpSettle:
		j, ok := st.Jobs[e.ID]
		if !ok || j.Settled() {
			return
		}
		switch e.Status {
		case StatusSucceeded, StatusFailed, StatusCanceled:
			j.Status = e.Status
		default:
			return // a settle without a terminal status is garbage; drop it
		}
		j.Result = e.Result
		j.Error = e.Error
		j.Recovered = e.Recovered
		j.FinishedNs = e.At
	}
}

// ---------------------------------------------------------------------------
// Store.

// Stats is the durable section of the service snapshot: journal and
// snapshot activity this process plus what recovery found at Open.
type Stats struct {
	Generation     uint64 `json:"generation"`      // current snapshot/wal generation
	JournalBytes   int64  `json:"journal_bytes"`   // bytes in the live wal
	JournalRecords uint64 `json:"journal_records"` // records appended this process
	Fsyncs         uint64 `json:"fsyncs"`          // file syncs issued this process
	Snapshots      uint64 `json:"snapshots"`       // snapshots written this process
	SnapshotAgeMs  int64  `json:"snapshot_age_ms"` // ms since the newest snapshot was written

	// Recovery evidence, fixed at Open.
	ReplayedJobs         int   `json:"replayed_jobs"`                   // jobs reconstructed at Open
	ReplayedSettled      int   `json:"replayed_settled"`                // already terminal at crash time
	ReplayedQueued       int   `json:"replayed_queued"`                 // accepted, never dispatched
	ReplayedInFlight     int   `json:"replayed_in_flight"`              // mid-flight at crash: re-executed
	TornSnapshots        int   `json:"torn_snapshots"`                  // snapshots skipped for CRC/frame damage
	DroppedTailBytes     int64 `json:"dropped_tail_bytes"`              // torn wal tails discarded
	RecoveredJournals    int   `json:"recovered_journals"`              // wal files replayed at Open
	RecoveredGenerations int   `json:"recovered_generations,omitempty"` // distinct generations walked
}

// config collects the tunables behind the Options.
type config struct {
	compactBytes int64
	fsync        bool
}

// Option configures Open.
type Option func(*config) error

// WithCompactEvery sets the wal size (bytes) past which an append
// triggers snapshot compaction (default 4 MiB; minimum 4 KiB).
func WithCompactEvery(n int64) Option {
	return func(c *config) error {
		if n < 4<<10 {
			return oerrors.Errorf(oerrors.Admission, oerrors.CodeInvalidOption,
				"durable: WithCompactEvery(%d): want >= 4096", n)
		}
		c.compactBytes = n
		return nil
	}
}

// WithFsync toggles the per-append fsync (default on). Turning it off
// trades the crash guarantee for throughput — only tests and
// benchmarks should. It leaves every other fsync on: compaction's
// snapshot fsync and directory fsync, and Open's directory fsync.
func WithFsync(on bool) Option {
	return func(c *config) error {
		c.fsync = on
		return nil
	}
}

// Store is the write-ahead journal + snapshot pair rooted at one state
// directory. All methods are safe for concurrent use; appends are
// serialized and each is durable (fsynced) before it returns.
type Store struct {
	dir string
	cfg config

	mu        sync.Mutex
	f         *os.File // live wal
	gen       uint64
	walBytes  int64 // bytes in the live wal
	snapBytes int64 // bytes in the newest snapshot
	state     *State
	closed    bool

	records     uint64
	fsyncs      uint64
	snapshots   uint64
	lastSnapNs  int64
	replayStats Stats // recovery-evidence fields only
}

// Open recovers (or initializes) the state directory and returns a
// ready store. Recovery loads the newest intact snapshot and replays
// every retained wal of that generation and later to its longest intact
// prefix. When the newest wal is intact and small enough to leave
// unfolded (see recover) Open appends to it; otherwise it compacts into
// a fresh generation so this process never appends behind a torn tail.
func Open(dir string, opts ...Option) (*Store, error) {
	cfg := config{compactBytes: 4 << 20, fsync: true}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
			"durable: state dir %s: %w", dir, err)
	}
	s := &Store{dir: dir, cfg: cfg}
	compact, err := s.recover()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if compact {
		// Fold everything recovery found into a fresh generation: one
		// snapshot, one empty wal, no inherited tails.
		if err := s.compactLocked(); err != nil {
			return nil, err
		}
		return s, nil
	}
	if err := s.reopenWal(); err != nil {
		return nil, err
	}
	return s, nil
}

// reopenWal opens the newest generation's intact wal for append. The
// directory fsync makes the snapshot's rename and the wal's creation
// durable even when the process that made them died before its own
// directory fsync, so nothing this process appends hangs off an
// unsynced directory entry.
func (s *Store) reopenWal() error {
	wal, err := os.OpenFile(s.genFile(walFile, s.gen), os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
			"durable: reopen wal gen %d: %w", s.gen, err)
	}
	if err := s.syncDir(); err != nil {
		wal.Close()
		return err
	}
	s.f = wal
	return nil
}

// genKind is one kind of generation file: a snapshot or a wal.
type genKind struct{ prefix, suffix string }

var (
	snapFile = genKind{"snap-", ".db"}
	walFile  = genKind{"wal-", ".log"}
)

// appendName appends the kind's file name for generation gen: the prefix,
// gen in decimal zero-padded to six digits (more when it needs them), and
// the suffix.
func (k genKind) appendName(b []byte, gen uint64) []byte {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], gen, 10)
	b = append(b, k.prefix...)
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	b = append(b, d...)
	return append(b, k.suffix...)
}

// parse returns the generation a file name of this kind carries. It
// accepts only a name appendName renders, so a name with stray text,
// a sign or a padding appendName would not write is not a generation.
func (k genKind) parse(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, k.prefix)
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, k.suffix); !ok {
		return 0, false
	}
	gen, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	var buf [48]byte
	return gen, string(k.appendName(buf[:0], gen)) == name
}

// genFile renders a generation's snapshot or wal path.
func (s *Store) genFile(k genKind, gen uint64) string {
	var buf [48]byte
	return filepath.Join(s.dir, string(k.appendName(buf[:0], gen)))
}

// scanGenerations lists the generation numbers present in the state
// dir, from snapshot and wal files alike, ascending.
func (s *Store) scanGenerations() ([]uint64, error) {
	names, err := readDirNames(s.dir)
	if err != nil {
		return nil, oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
			"durable: scan %s: %w", s.dir, err)
	}
	var gens []uint64
	for _, name := range names {
		gen, ok := snapFile.parse(name)
		if !ok {
			gen, ok = walFile.parse(name)
		}
		if ok && gen > 0 {
			gens = append(gens, gen)
		}
	}
	slices.Sort(gens)
	return slices.Compact(gens), nil
}

// readDirNames lists the names in dir, unsorted.
func readDirNames(dir string) ([]string, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Readdirnames(-1)
}

// recover rebuilds s.state from disk. Called once, from Open. It
// reports whether Open must compact: it need not only when the newest
// generation's snapshot decoded intact, in the binary format, as the
// base of recovery, with an intact wal beside it that folds would
// leave alone — what a Close or a finished compaction leaves. The store
// then appends to that wal as is.
func (s *Store) recover() (compact bool, err error) {
	gens, err := s.scanGenerations()
	if err != nil {
		return true, err
	}
	if len(gens) == 0 {
		s.gen = 0 // compactLocked bumps to 1
		s.state = newState()
		return true, nil
	}
	// Newest intact snapshot wins; torn ones fall back a generation.
	base := 0     // index into gens of the snapshot generation actually used; gens[0] if none
	var st *State // the base snapshot's state; nil until one decodes
	var snapAt, snapBytes int64
	binarySnap := false // the base snapshot is in the current format
	for i := len(gens) - 1; i >= 0; i-- {
		data, rerr := os.ReadFile(s.genFile(snapFile, gens[i]))
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue // wal-only generation
			}
			return true, oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
				"durable: read snapshot gen %d: %w", gens[i], rerr)
		}
		dec, _, at, derr := decodeSnapshot(data)
		if derr != nil {
			s.replayStats.TornSnapshots++
			continue
		}
		st, snapAt, snapBytes, base = dec, at, int64(len(data)), i
		binarySnap = !isV1(data[frameHeaderLen:])
		break
	}
	if st == nil {
		st = newState()
	}
	// Replay the wals of the base generation and everything after it,
	// in order, each to its longest intact prefix.
	replayedGens := 0
	walBytes := int64(-1) // the newest generation's wal size; -1 when missing or torn
	for i := base; i < len(gens); i++ {
		data, rerr := os.ReadFile(s.genFile(walFile, gens[i]))
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue
			}
			return true, oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
				"durable: read wal gen %d: %w", gens[i], rerr)
		}
		rep := replayJournal(data)
		for _, e := range rep.entries {
			st.apply(e)
		}
		if rep.lostBytes > 0 {
			s.replayStats.DroppedTailBytes += rep.lostBytes
			_ = oerrors.New(oerrors.Internal, oerrors.CodeJournalCorrupt,
				"durable: torn journal tail dropped")
		} else if i == len(gens)-1 {
			walBytes = rep.goodBytes
		}
		s.replayStats.RecoveredJournals++
		replayedGens++
	}
	st.inAcceptOrder()
	s.replayStats.RecoveredGenerations = replayedGens
	s.state = st
	s.gen = gens[len(gens)-1]
	s.lastSnapNs = snapAt
	for _, j := range st.JobOrder {
		s.replayStats.ReplayedJobs++
		switch {
		case j.Settled():
			s.replayStats.ReplayedSettled++
		case j.Status == StatusRunning:
			s.replayStats.ReplayedInFlight++
		default:
			s.replayStats.ReplayedQueued++
		}
	}
	// A torn snapshot always sits above the base, so a base in the
	// newest generation also means none was seen.
	if !binarySnap || base != len(gens)-1 || walBytes < 0 || folds(walBytes, snapBytes) {
		return true, nil
	}
	s.walBytes, s.snapBytes = walBytes, snapBytes
	return false, nil
}

// foldDivisor sets when Close, and Open, fold the live wal into a new
// snapshot: once it holds at least 1/foldDivisor of the newest
// snapshot's bytes. Below that, rewriting the whole state would cost
// more than the next Open spends replaying the wal.
const foldDivisor = 4

// folds reports whether a wal of walBytes, beside a snapshot of
// snapBytes, has grown enough to fold.
func folds(walBytes, snapBytes int64) bool { return walBytes*foldDivisor >= snapBytes }

// Recovered returns the store's folded state itself, not a copy: as
// reconstructed at Open until the first Append, which folds into the
// same maps. The caller must treat it as read-only and finish reading
// the maps and slices before it appends; the settled jobs they point to
// never change (see JobState) and may be kept.
func (s *Store) Recovered() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Append journals one entry, fsyncs it, and folds it into the live
// state mirror. It returns only after the record is durable, so a
// caller may acknowledge the transition (e.g. answer HTTP 202) the
// moment Append returns.
func (s *Store) Append(e Entry) error {
	if e.At == 0 {
		e.At = time.Now().UnixNano()
	}
	frame, err := encodeEntry(e)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	n, werr := s.f.Write(frame)
	if werr == nil && n != len(frame) {
		werr = errShortWrite
	}
	if werr != nil {
		return oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
			"durable: append %s %s: %w", e.Op, e.ID, werr)
	}
	if s.cfg.fsync {
		if serr := s.f.Sync(); serr != nil {
			return oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
				"durable: fsync %s %s: %w", e.Op, e.ID, serr)
		}
		s.fsyncs++
	}
	s.walBytes += int64(len(frame))
	s.records++
	s.state.apply(e)
	if s.walBytes >= s.cfg.compactBytes {
		return s.compactLocked()
	}
	return nil
}

// Compact forces a snapshot + wal rotation now. Normally the store
// compacts itself when the wal crosses the WithCompactEvery threshold.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

// compactLocked rotates to generation gen+1: snapshot first (tmp +
// fsync + atomic rename), then a fresh wal, then one directory fsync
// covering both entries, then pruning of generations older than the
// previous one. Caller holds s.mu. The ordering makes every crash
// window safe: before the rename the old generation is intact; between
// rename and wal creation the new snapshot already holds everything
// the old wals did; a crash before the directory fsync may lose either
// entry, and recovery falls back to the old generation or compacts
// over a missing wal. Nothing is appended to the new wal before the
// fsync has made its entry durable, which matters because a later Open
// appends to it without compacting. The fsync count stays two per
// compaction (TestCompactFsyncs). The journal's power-loss model
// (ROADMAP, item 6) is to check this ordering with a crash at each step.
func (s *Store) compactLocked() error {
	newGen := s.gen + 1
	now := time.Now().UnixNano()
	img, err := encodeSnapshot(s.state, newGen, now)
	if err != nil {
		return err
	}
	snapPath := s.genFile(snapFile, newGen)
	tmp := snapPath + ".tmp"
	if err := writeFileSync(tmp, img); err != nil {
		return err
	}
	if err := os.Rename(tmp, snapPath); err != nil {
		return oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
			"durable: publish snapshot gen %d: %w", newGen, err)
	}
	s.fsyncs++ // writeFileSync's
	wal, err := os.OpenFile(s.genFile(walFile, newGen), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
			"durable: open wal gen %d: %w", newGen, err)
	}
	if err := s.syncDir(); err != nil {
		wal.Close()
		return err
	}
	if s.f != nil {
		_ = s.f.Close()
	}
	s.f = wal
	oldGen := s.gen
	s.gen = newGen
	s.walBytes, s.snapBytes = 0, int64(len(img))
	s.snapshots++
	s.lastSnapNs = now
	// Retain exactly one previous generation as the torn-snapshot
	// fallback; everything older is garbage.
	if gens, gerr := s.scanGenerations(); gerr == nil {
		for _, g := range gens {
			if g < oldGen {
				_ = os.Remove(s.genFile(snapFile, g))
				_ = os.Remove(s.genFile(walFile, g))
			}
		}
	}
	return nil
}

// syncDir fsyncs the state directory so renames and creations are
// durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
			"durable: open dir %s: %w", s.dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
			"durable: fsync dir %s: %w", s.dir, err)
	}
	s.fsyncs++
	return nil
}

// writeFileSync writes data and fsyncs before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
			"durable: create %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
			"durable: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return oerrors.Errorf(oerrors.Internal, oerrors.CodeStoreIO,
			"durable: fsync %s: %w", path, err)
	}
	return f.Close()
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.replayStats
	st.Generation = s.gen
	st.JournalBytes = s.walBytes
	st.JournalRecords = s.records
	st.Fsyncs = s.fsyncs
	st.Snapshots = s.snapshots
	if s.lastSnapNs > 0 {
		st.SnapshotAgeMs = (time.Now().UnixNano() - s.lastSnapNs) / int64(time.Millisecond)
	}
	return st
}

// Close releases the wal handle. It compacts first only when the live
// wal holds at least 1/foldDivisor of the newest snapshot's bytes;
// otherwise the next Open replays that intact wal and appends to it, so
// a restart after little traffic rewrites nothing. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if folds(s.walBytes, s.snapBytes) {
		err = s.compactLocked()
	}
	s.closed = true
	if s.f != nil {
		cerr := s.f.Close()
		s.f = nil
		if err == nil {
			err = cerr
		}
	}
	return err
}

// Dir returns the store's state directory.
func (s *Store) Dir() string { return s.dir }
