package spans

import (
	"encoding/json"
	"sync"
	"testing"

	"openmpmca/internal/trace"
)

// send and recv feed x one fabric dispatch or result.
func send(x *Exporter, domain int, task uint64) {
	x.Event(trace.FabricEvent{Kind: trace.EvTaskSend, Task: task, Domain: domain, Victim: -1})
}

func recv(x *Exporter, domain int, task uint64) {
	x.Event(trace.FabricEvent{Kind: trace.EvTaskRecv, Task: task, Domain: domain, Victim: -1})
}

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
	send(x, 1, 7)
	tick(350)
	recv(x, 1, 7)

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
	send(x, 2, 3)
	send(x, 1, 3)
	send(x, -1, 3)
	tick(90)
	recv(x, -1, 3)

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
	send(x, -1, 4)
	send(x, -1, 4)
	recv(x, -1, 4)
	if st := x.Stats(); st.Recovered != 1 {
		t.Errorf("host-local retry counted as recovery: %+v", st)
	}
}

func TestUnmatchedResultSynthesizesSpan(t *testing.T) {
	// A result for a dispatch the sink never saw (wired mid-run) must
	// still balance the books with a zero-length span.
	x := NewExporter(8)
	stubClock(x)(500)
	recv(x, 0, 99)
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
		send(x, 0, uint64(i))
		recv(x, 0, uint64(i))
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

func TestOpenSpansVisibleAndSnapshotSerializes(t *testing.T) {
	x := NewExporter(8)
	send(x, 1, 5)
	send(x, 0, 2)
	open := x.Open()
	if len(open) != 2 {
		t.Fatalf("open = %d spans, want 2", len(open))
	}
	raw, err := x.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Open) != 2 || v.Stats.Opened != 2 {
		t.Errorf("snapshot = %+v, want 2 open / 2 opened", v)
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
				id := uint64(base*per + i)
				send(x, base%3, id)
				if i%5 == 0 {
					send(x, -1, id) // re-dispatch
				}
				recv(x, base%3, id)
				x.Event(trace.FabricEvent{Kind: trace.EvPeerSteal, Task: id, Domain: base % 3, Victim: (base + 1) % 3})
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
