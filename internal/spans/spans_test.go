package spans

import (
	"encoding/json"
	"sync"
	"testing"
)

// stub clock: deterministic, strictly advancing.
func stubClock(x *Exporter) func(int64) {
	var now int64
	x.nowFn = func() int64 { return now }
	return func(ns int64) { now = ns }
}

// TestChunkSpanLifecycle: a region chunk is a fabric task, so its clean
// send→recv folds into one task span.
func TestChunkSpanLifecycle(t *testing.T) {
	x := NewExporter(8)
	tick := stubClock(x)

	tick(100)
	x.TaskSend(1, 7)
	tick(350)
	x.TaskRecv(1, 7)

	spans := x.Completed()
	if len(spans) != 1 {
		t.Fatalf("completed %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Kind != KindTask || sp.ID != 7 || sp.Domain != 1 {
		t.Errorf("span = %+v, want task 7 on domain 1", sp)
	}
	if sp.StartNs != 100 || sp.EndNs != 350 || sp.DurNs != 250 {
		t.Errorf("span times = %d..%d (%d), want 100..350 (250)", sp.StartNs, sp.EndNs, sp.DurNs)
	}
	if sp.Retried || sp.Recovered || sp.Sends != 1 || sp.Domains != nil {
		t.Errorf("clean single dispatch mis-annotated: %+v", sp)
	}
	if st := x.Stats(); st.Opened != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRetryAndRecoveryAnnotations(t *testing.T) {
	x := NewExporter(8)
	tick := stubClock(x)

	// Task 3: sent to domain 2, re-dispatched to domain 1 (deadline
	// retry), finally re-executed on the host (-1) — the loss-recovery
	// signature.
	tick(10)
	x.TaskSend(2, 3)
	x.TaskSend(1, 3)
	x.TaskSend(-1, 3)
	tick(90)
	x.TaskRecv(-1, 3)

	spans := x.Completed()
	if len(spans) != 1 {
		t.Fatalf("completed %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if !sp.Retried || !sp.Recovered {
		t.Errorf("retried/recovered = %v/%v, want true/true", sp.Retried, sp.Recovered)
	}
	if sp.Sends != 3 {
		t.Errorf("sends = %d, want 3", sp.Sends)
	}
	if want := []int{2, 1, -1}; len(sp.Domains) != 3 || sp.Domains[0] != want[0] ||
		sp.Domains[1] != want[1] || sp.Domains[2] != want[2] {
		t.Errorf("domains = %v, want %v", sp.Domains, want)
	}
	st := x.Stats()
	if st.Retries != 2 || st.Recovered != 1 {
		t.Errorf("stats retries/recovered = %d/%d, want 2/1", st.Retries, st.Recovered)
	}

	// Host-only work never counts as recovered.
	x.TaskSend(-1, 4)
	x.TaskSend(-1, 4)
	x.TaskRecv(-1, 4)
	if st := x.Stats(); st.Recovered != 1 {
		t.Errorf("host-local retry counted as recovery: %+v", st)
	}
}

func TestRegionSpansFoldLIFO(t *testing.T) {
	x := NewExporter(8)
	tick := stubClock(x)

	tick(1000)
	x.Fork(4)
	tick(1500)
	x.Fork(2) // nested/overlapping region joins first
	tick(1600)
	x.Join()
	tick(2000)
	x.Join()
	x.Join() // unmatched join: ignored, not a crash

	spans := x.Completed()
	if len(spans) != 2 {
		t.Fatalf("completed %d region spans, want 2", len(spans))
	}
	inner, outer := spans[0], spans[1]
	if inner.N != 2 || inner.DurNs != 100 {
		t.Errorf("inner region = %+v, want n=2 dur=100", inner)
	}
	if outer.N != 4 || outer.DurNs != 1000 {
		t.Errorf("outer region = %+v, want n=4 dur=1000", outer)
	}
}

func TestUnmatchedResultSynthesizesSpan(t *testing.T) {
	// A result for a dispatch the sink never saw (wired mid-run) must
	// still balance the books with a zero-length span.
	x := NewExporter(8)
	stubClock(x)(500)
	x.TaskRecv(0, 99)
	spans := x.Completed()
	if len(spans) != 1 || spans[0].DurNs != 0 {
		t.Fatalf("spans = %+v, want one zero-length span", spans)
	}
	if st := x.Stats(); st.Opened != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v, want opened == completed == 1", st)
	}
}

func TestRingBoundAndDropAccounting(t *testing.T) {
	x := NewExporter(4)
	for i := 0; i < 10; i++ {
		x.TaskSend(0, uint64ID(i))
		x.TaskRecv(0, uint64ID(i))
	}
	spans := x.Completed()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	// Oldest first: 6, 7, 8, 9.
	for i, sp := range spans {
		if want := uint64(6 + i); sp.ID != want {
			t.Errorf("span[%d].ID = %d, want %d", i, sp.ID, want)
		}
	}
	st := x.Stats()
	if st.Completed != 10 || st.Dropped != 6 {
		t.Errorf("completed/dropped = %d/%d, want 10/6", st.Completed, st.Dropped)
	}
}

func uint64ID(i int) int { return i }

func TestOpenSpansVisibleAndSnapshotSerializes(t *testing.T) {
	x := NewExporter(8)
	x.TaskSend(1, 5)
	x.TaskSend(0, 2)
	x.Fork(3)
	open := x.Open()
	if len(open) != 3 {
		t.Fatalf("open = %d spans, want 3", len(open))
	}
	raw, err := x.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Open) != 3 || v.Stats.Opened != 3 {
		t.Errorf("snapshot = %+v, want 3 open / 3 opened", v)
	}

	x.Reset()
	if len(x.Open()) != 0 || len(x.Completed()) != 0 || x.Stats() != (Stats{}) {
		t.Error("state survived Reset")
	}
}

func TestConcurrentFolding(t *testing.T) {
	// Emitters racing over disjoint id ranges: every span must complete
	// exactly once and the aggregates must balance — the property is
	// freedom from races and lost updates, enforced under -race.
	x := NewExporter(64)
	const emitters, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := base*per + i
				x.TaskSend(base%3, id)
				if i%5 == 0 {
					x.TaskSend(-1, id) // re-dispatch
				}
				x.TaskRecv(base%3, id)
				x.TaskSteal(base%3, (base+1)%3)
			}
		}(g)
	}
	wg.Wait()
	st := x.Stats()
	const total = emitters * per
	if st.Opened != total || st.Completed != total {
		t.Errorf("opened/completed = %d/%d, want %d/%d", st.Opened, st.Completed, total, total)
	}
	if st.Steals != total {
		t.Errorf("steals = %d, want %d", st.Steals, total)
	}
	if want := uint64(emitters * (per / 5)); st.Retries != want {
		t.Errorf("retries = %d, want %d", st.Retries, want)
	}
	if len(x.Open()) != 0 {
		t.Errorf("%d spans left open", len(x.Open()))
	}
	if got := len(x.Completed()); got != 64 {
		t.Errorf("ring retained %d, want 64", got)
	}
}
