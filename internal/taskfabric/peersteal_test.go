package taskfabric

import (
	"errors"
	"sync"
	"testing"
	"time"

	"openmpmca/internal/mcapi"
	"openmpmca/internal/offload"
	"openmpmca/internal/trace"
)

// fixtureTasks is how many tasks stealFixture submits.
const fixtureTasks = 20

// stealFixture builds the canonical imbalance: serial domains, two long
// blockers pinning the first domains scheduled, and a tail of quick
// tasks queued behind them — so whichever domain drains its queue first
// goes idle while loaded peers still hold stealable work. observe, when
// set, gives the i-th submitted task its observer.
func stealFixture(t *testing.T, f *Fabric, observe func(i int) func(trace.FabricEvent)) (*Group, []*TaskHandle, []uint64) {
	t.Helper()
	g := f.NewGroup()
	n := 0
	submit := func(arg []byte) (*TaskHandle, error) {
		var obs func(trace.FabricEvent)
		if observe != nil {
			obs = observe(n)
		}
		n++
		return f.submit("sleepsum", arg, g, obs)
	}
	for i := 0; i < 2; i++ {
		if _, err := submit(sleepSumArg(250, 0)); err != nil {
			t.Fatal(err)
		}
	}
	var handles []*TaskHandle
	var want []uint64
	for i := 0; i < fixtureTasks-2; i++ {
		v := uint64(i)*13 + 1
		h, err := submit(sleepSumArg(2, v))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		want = append(want, v)
	}
	return g, handles, want
}

func verifyExact(t *testing.T, handles []*TaskHandle, want []uint64) {
	t.Helper()
	for i, h := range handles {
		res, err := h.Wait(0)
		if err != nil && !errors.Is(err, ErrDomainLost) {
			t.Fatalf("task %d: %v", h.ID(), err)
		}
		if got := decodeU64(t, res); got != want[i] {
			t.Fatalf("task %d = %d, want %d", h.ID(), got, want[i])
		}
	}
}

func TestPeerStealDirect(t *testing.T) {
	rec := trace.NewRecorder(4096)
	f, err := NewFabric(testRegistry(t),
		WithDomains(3),
		WithDomainWorkers(1),
		WithTaskDeadline(10*time.Second), // keep re-dispatch from masking steals
		WithInflight(16),
		WithEventSink(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	g, handles, want := stealFixture(t, f, nil)
	if err := g.WaitAll(30 * time.Second); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	verifyExact(t, handles, want)

	st := f.Stats()
	if st.Steals == 0 {
		t.Fatal("Steals = 0: no direct mesh migration happened")
	}
	if sum := rec.Summary(); sum.TaskSteals != st.Steals {
		t.Errorf("trace steals %d != stats %d", sum.TaskSteals, st.Steals)
	}
}

// TestObserverSeesItsTaskEvents runs the steal fixture with an observer
// on every task and a trace.Recorder as the global sink: each observer
// must get exactly the send/recv/steal records the sink got for its one
// task, and the observed steals must add up to the fabric's counters.
func TestObserverSeesItsTaskEvents(t *testing.T) {
	rec := trace.NewRecorder(4096)
	f, err := NewFabric(testRegistry(t),
		WithDomains(3),
		WithDomainWorkers(1),
		WithTaskDeadline(10*time.Second),
		WithInflight(16),
		WithEventSink(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var mu sync.Mutex
	observed := make([][]trace.FabricEvent, fixtureTasks)
	g, handles, want := stealFixture(t, f, func(i int) func(trace.FabricEvent) {
		return func(ev trace.FabricEvent) {
			mu.Lock()
			observed[i] = append(observed[i], ev)
			mu.Unlock()
		}
	})
	if err := g.WaitAll(30 * time.Second); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	verifyExact(t, handles, want)

	sunk := make(map[uint64][]trace.Event)
	for _, e := range rec.Events() {
		sunk[uint64(e.Units)] = append(sunk[uint64(e.Units)], e)
	}
	mu.Lock()
	defer mu.Unlock()
	var steals uint64
	for i, evs := range observed {
		if len(evs) == 0 {
			t.Fatalf("task %d: observer got nothing", i)
		}
		id := evs[0].Task
		got := sunk[id]
		if len(got) != len(evs) {
			t.Fatalf("task %d (id %d): observer got %d records, sink %d", i, id, len(evs), len(got))
		}
		for k, ev := range evs {
			if ev.Task != id || ev.Kind != got[k].Kind || ev.Domain != got[k].Tid {
				t.Fatalf("task %d (id %d) record %d: observer %+v, sink %v", i, id, k, ev, got[k])
			}
			if ev.Kind == trace.EvPeerSteal {
				steals++
			}
		}
		delete(sunk, id)
	}
	if len(sunk) != 0 {
		t.Errorf("sink saw %d tasks no observer did", len(sunk))
	}
	st := f.Stats()
	if st.Steals == 0 {
		t.Error("Steals = 0: the fixture stole nothing, so steal records went unchecked")
	}
	if steals != st.Steals {
		t.Errorf("observed steals %d, stats %d", steals, st.Steals)
	}
}

// TestDeadMeshSettles closes every direct peer link before the burst,
// so each idle thief's steal request fails to send. Stealing is an
// optimisation, never a correctness dependency: the victims drain their
// own queues and the group settles byte-exact with no steal and no
// re-dispatch — a dead mesh costs latency, nothing else.
func TestDeadMeshSettles(t *testing.T) {
	f, err := NewFabric(testRegistry(t),
		WithDomains(3),
		WithDomainWorkers(1),
		WithTaskDeadline(10*time.Second),
		WithInflight(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, w := range f.workers {
		for _, send := range w.peerSend {
			if err := send.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	g, handles, want := stealFixture(t, f, nil)
	if err := g.WaitAll(30 * time.Second); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	verifyExact(t, handles, want)

	st := f.Stats()
	if st.Steals != 0 || st.BrokeredFallbacks != 0 || st.Resends != 0 || st.LocalTasks != 0 {
		t.Errorf("dead mesh: steals=%d brokered-fallbacks=%d resends=%d local=%d, want all 0",
			st.Steals, st.BrokeredFallbacks, st.Resends, st.LocalTasks)
	}
}

// TestStealRequestExpires drives one worker by hand, with no service
// loops or scheduler running: a steal request gone unanswered past
// stealPending is forgotten, and the same maybeSteal pass sends a fresh
// request to the loaded peer over the mesh. Nothing goes host-ward.
func TestStealRequestExpires(t *testing.T) {
	cfg := defaultConfig()
	net, err := offload.BuildNet(offload.NetConfig{
		Domains: 2, Board: cfg.board, NamePrefix: cfg.namePrefix,
		CmdDepth: 4, ResDepth: 4, PeerDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &Fabric{net: net}
	defer f.teardownNet()
	w, err := newWorker(net.Links[0], testRegistry(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	f.workers = []*worker{w}

	peer := net.Links[1]
	stale := time.Now().Add(-2 * stealPending)
	w.stealVictim, w.stealAt = peer.ID, stale
	occ := []uint32{0, 4}
	w.loadMap.Store(&occ)
	w.maybeSteal()

	if n := net.Links[0].ResRecv.Available(); n != 0 {
		t.Fatalf("%d packets sent host-ward after a steal request expired, want 0", n)
	}
	recv := peer.PeerRecv[w.id]
	if n := recv.Available(); n != 1 {
		t.Fatalf("peer mesh queue holds %d packets, want 1 fresh steal request", n)
	}
	pkt, err := recv.Recv(mcapi.TimeoutImmediate)
	if err != nil {
		t.Fatal(err)
	}
	m, err := offload.DecodePeerSteal(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Thief != uint32(w.id) || m.Want != 2 {
		t.Errorf("steal request %+v, want thief %d want 2", m, w.id)
	}
	if w.stealVictim != peer.ID || !w.stealAt.After(stale) {
		t.Errorf("outstanding request victim=%d at=%v, want a fresh one to %d", w.stealVictim, w.stealAt, peer.ID)
	}
}

// TestKillVictimMidYield races a domain kill against in-flight peer
// steals (run under -race in CI): once the first steal lands, the
// most-loaded live domain — the likeliest victim of the next one — is
// killed. Tasks it canceled-but-never-sent die with it; the host's
// heartbeat loss reclaims them, idle thieves whose requests went
// unanswered ask again elsewhere, and every task must still settle
// byte-exact.
func TestKillVictimMidYield(t *testing.T) {
	f, err := NewFabric(testRegistry(t),
		WithDomains(4),
		WithDomainWorkers(1),
		WithHeartbeat(5*time.Millisecond), // lost after 40ms
		WithTaskDeadline(10*time.Second),
		WithInflight(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	g, handles, want := stealFixture(t, f, nil)

	deadline := time.Now().Add(10 * time.Second)
	for f.Stats().Steals == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	victim, load := 0, -1
	for _, d := range f.DomainInfos() {
		if d.Live && d.Outstanding > load {
			victim, load = d.ID, d.Outstanding
		}
	}
	if err := f.KillDomain(victim); err != nil {
		t.Fatalf("KillDomain(%d): %v", victim, err)
	}

	if err := g.WaitAll(30 * time.Second); err != nil && !errors.Is(err, ErrDomainLost) {
		t.Fatalf("WaitAll: %v", err)
	}
	verifyExact(t, handles, want)
	if st := f.Stats(); st.DomainsLost != 1 {
		t.Errorf("DomainsLost = %d, want 1", st.DomainsLost)
	}
}
