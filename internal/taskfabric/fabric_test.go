package taskfabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"openmpmca/internal/core"
	"openmpmca/internal/trace"
)

// trace.Recorder must satisfy EventSink so fabric events land in the
// same ring as runtime and offload events.
var _ EventSink = (*trace.Recorder)(nil)

// sleepSumArg encodes "sleep ms, then return v": the irregular-duration
// workload the scheduler and the stealing logic are exercised with.
func sleepSumArg(ms uint32, v uint64) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, ms)
	return binary.LittleEndian.AppendUint64(buf, v)
}

// testRegistry registers the jobs the tests share: "sleepsum" (sleep,
// touch the domain's OpenMP runtime, echo the value) and "echo".
func testRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	sleepsum := FuncJob{
		JobName: "sleepsum",
		Fn: func(rt *core.Runtime, arg []byte) ([]byte, error) {
			if len(arg) != 12 {
				return nil, fmt.Errorf("bad arg: %d bytes", len(arg))
			}
			ms := binary.LittleEndian.Uint32(arg)
			v := binary.LittleEndian.Uint64(arg[4:])
			if ms > 0 {
				time.Sleep(time.Duration(ms) * time.Millisecond)
			}
			var mu sync.Mutex
			var sum uint64
			err := rt.ParallelForRange(64, func(lo, hi int) {
				mu.Lock()
				sum += uint64(hi - lo)
				mu.Unlock()
			})
			if err != nil {
				return nil, err
			}
			if sum != 64 {
				return nil, fmt.Errorf("runtime summed %d, want 64", sum)
			}
			return binary.LittleEndian.AppendUint64(nil, v), nil
		},
	}
	echo := FuncJob{
		JobName: "echo",
		Fn: func(rt *core.Runtime, arg []byte) ([]byte, error) {
			return append([]byte(nil), arg...), nil
		},
	}
	for _, j := range []Job{sleepsum, echo} {
		if err := reg.Register(j); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func decodeU64(t *testing.T, b []byte) uint64 {
	t.Helper()
	if len(b) != 8 {
		t.Fatalf("result is %d bytes, want 8", len(b))
	}
	return binary.LittleEndian.Uint64(b)
}

func TestSubmitDistributes(t *testing.T) {
	rec := trace.NewRecorder(4096)
	f, err := NewFabric(testRegistry(t),
		WithDomains(3),
		WithHeartbeat(10*time.Millisecond),
		WithEventSink(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	g := f.NewGroup()
	const n = 24
	var want uint64
	handles := make([]*TaskHandle, 0, n)
	for i := 0; i < n; i++ {
		h, err := g.SubmitJob("sleepsum", sleepSumArg(1, uint64(i)*7+1))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		want += uint64(i)*7 + 1
	}
	if err := g.WaitAll(TimeoutInfinite); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	var got uint64
	for _, h := range handles {
		res, err := h.Wait(0) // settled group: zero-timeout poll must succeed
		if err != nil {
			t.Fatalf("task %d: %v", h.ID(), err)
		}
		got += decodeU64(t, res)
	}
	if got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	st := f.Stats()
	if st.Submitted != n {
		t.Errorf("Submitted = %d, want %d", st.Submitted, n)
	}
	if st.RemoteTasks == 0 {
		t.Error("no tasks ran remotely: fabric did not distribute")
	}
	if st.DomainsLost != 0 {
		t.Errorf("DomainsLost = %d, want 0", st.DomainsLost)
	}
	sum := rec.Summary()
	if sum.TaskSends == 0 || sum.TaskRecvs == 0 {
		t.Errorf("trace recorded %d sends / %d recvs, want > 0", sum.TaskSends, sum.TaskRecvs)
	}
	if sum.TaskRecvs != st.RemoteTasks+st.LocalTasks {
		t.Errorf("trace recvs %d != completed tasks %d", sum.TaskRecvs, st.RemoteTasks+st.LocalTasks)
	}
}

// The kill-mid-graph scenario — a domain killed while holding stolen
// tasks, graph still settling byte-exact with exactly one lost domain —
// was promoted to a fixed-seed chaos campaign: see
// chaos.KillMidGraphCampaign (internal/chaos) and TestKillMidGraphCampaign,
// replayable standalone with `ompmca-chaos -kill-mid-graph`.

func TestReadmitDomain(t *testing.T) {
	f, err := NewFabric(testRegistry(t),
		WithDomains(2),
		WithHeartbeat(5*time.Millisecond), // lost after 40ms
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if err := f.ReadmitDomain(0); err == nil {
		t.Error("ReadmitDomain accepted a live domain")
	}
	if err := f.ReadmitDomain(99); err == nil {
		t.Error("ReadmitDomain accepted an out-of-range index")
	}

	// Kill parked loops, not ones yet to issue their first receive (those
	// would see the kill flag on their own).
	deadline := time.Now().Add(5 * time.Second)
	for !loopsParked(f) {
		if time.Now().After(deadline) {
			t.Fatal("service loops never issued their receives")
		}
		time.Sleep(time.Millisecond)
	}
	before := runtime.NumGoroutine()
	if err := f.KillDomain(0); err != nil {
		t.Fatal(err)
	}
	for f.Stats().DomainsLost == 0 {
		if time.Now().After(deadline) {
			t.Fatal("domain never declared lost")
		}
		time.Sleep(time.Millisecond)
	}

	if err := f.ReadmitDomain(0); err != nil {
		t.Fatalf("ReadmitDomain: %v", err)
	}
	if st := f.Stats(); st.Readmissions != 1 {
		t.Errorf("Readmissions = %d, want 1", st.Readmissions)
	}
	// Kill unparked every service loop: the restarted loops replace the
	// killed ones rather than pile up beside them.
	deadline = time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > before; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d after kill and readmit, want %d as before the kill", n, before)
		}
		time.Sleep(time.Millisecond)
	}

	// The readmitted fabric must serve tasks correctly again.
	g := f.NewGroup()
	var want uint64
	for i := 0; i < 8; i++ {
		if _, err := g.SubmitJob("sleepsum", sleepSumArg(1, uint64(i))); err != nil {
			t.Fatal(err)
		}
		want += uint64(i)
	}
	if err := g.WaitAll(TimeoutInfinite); err != nil {
		t.Fatalf("post-readmission WaitAll: %v", err)
	}
	var got uint64
	for {
		h, err := g.WaitAny(0)
		if err == ErrGroupDrained {
			break
		}
		if err != nil {
			t.Fatalf("WaitAny: %v", err)
		}
		res, err := h.Wait(0)
		if err != nil {
			t.Fatal(err)
		}
		got += decodeU64(t, res)
	}
	if got != want {
		t.Errorf("post-readmission sum = %d, want %d", got, want)
	}
	if st := f.Stats(); st.DomainsLost != 1 {
		t.Errorf("DomainsLost = %d, want 1 (readmission must not re-count)", st.DomainsLost)
	}
}

// TestReadmitWaitsForLossNotice: a readmission waits until the fabric
// has taken the domain's loss notice. The test stands in for a health
// monitor stalled between marking domain 0 lost and delivering its
// notice.
// Had ReadmitDomain returned first, the late notice would reclaim the
// flights sent to the readmitted domain, and they would settle with
// ErrDomainLost.
func TestReadmitWaitsForLossNotice(t *testing.T) {
	f, err := NewFabric(testRegistry(t),
		WithDomains(2),
		WithHeartbeat(time.Hour), // the monitor never judges a domain
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	l := f.links[0]
	l.health.MarkLost()
	l.w.Kill()
	done := make(chan error, 1)
	go func() { done <- f.ReadmitDomain(0) }()
	select {
	case err := <-done:
		t.Fatalf("ReadmitDomain returned %v before the fabric took the loss notice", err)
	case <-time.After(50 * time.Millisecond):
	}
	f.domainLost(0)
	if err := <-done; err != nil {
		t.Fatalf("ReadmitDomain: %v", err)
	}
	if err := f.ReadmitDomain(0); err == nil {
		t.Error("ReadmitDomain accepted a domain it had just readmitted")
	}

	g := f.NewGroup()
	var hs []*TaskHandle
	for i := 0; i < 8; i++ {
		h, err := g.SubmitJob("sleepsum", sleepSumArg(2, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for i, h := range hs {
		res, err := h.Wait(TimeoutInfinite)
		if err != nil {
			t.Fatalf("task %d after readmission: %v", i, err)
		}
		if got := decodeU64(t, res); got != uint64(i) {
			t.Errorf("task %d = %d", i, got)
		}
	}
	if infos := f.DomainInfos(); !infos[0].Live {
		t.Error("domain 0 not live after readmission")
	}
}

// loopsParked reports whether every service loop of every domain has
// published a receive request in its slot.
func loopsParked(f *Fabric) bool {
	for _, l := range f.links {
		for i := range l.w.reqs {
			if l.w.reqs[i].Load() == nil {
				return false
			}
		}
	}
	return true
}

func TestGroupCancel(t *testing.T) {
	f, err := NewFabric(testRegistry(t),
		WithDomains(2),
		WithDomainWorkers(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	g := f.NewGroup()
	for i := 0; i < 10; i++ {
		if _, err := g.SubmitJob("sleepsum", sleepSumArg(100, 1)); err != nil {
			t.Fatal(err)
		}
	}
	g.Cancel()
	if err := g.WaitAll(5 * time.Second); !errors.Is(err, ErrCanceled) {
		t.Errorf("WaitAll after Cancel = %v, want ErrCanceled", err)
	}
	if st := f.Stats(); st.Canceled == 0 {
		t.Error("Canceled = 0, want > 0")
	}
	g.Cancel() // idempotent
}

func TestZeroTimeoutPollsOnce(t *testing.T) {
	f, err := NewFabric(testRegistry(t), WithDomains(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	g := f.NewGroup()
	h, err := g.SubmitJob("sleepsum", sleepSumArg(200, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := h.Wait(0); werr != ErrTimeout {
		t.Errorf("Wait(0) on a running task = %v, want ErrTimeout", werr)
	}
	if werr := g.WaitAll(0); werr != ErrTimeout {
		t.Errorf("WaitAll(0) on a running group = %v, want ErrTimeout", werr)
	}
	if _, werr := g.WaitAny(0); werr != ErrTimeout {
		t.Errorf("WaitAny(0) on a running group = %v, want ErrTimeout", werr)
	}

	if werr := g.WaitAll(5 * time.Second); werr != nil {
		t.Fatalf("WaitAll: %v", werr)
	}
	res, werr := h.Wait(0)
	if werr != nil {
		t.Fatalf("Wait(0) on a settled task: %v", werr)
	}
	if decodeU64(t, res) != 9 {
		t.Errorf("result = %d, want 9", decodeU64(t, res))
	}
	if _, werr := g.WaitAny(0); werr == nil {
		// First WaitAny delivers the one member.
	} else if werr != ErrGroupDrained {
		t.Errorf("WaitAny(0) = %v, want delivery or ErrGroupDrained", werr)
	}
	if _, werr := g.WaitAny(0); werr != ErrGroupDrained {
		t.Errorf("WaitAny on a drained group = %v, want ErrGroupDrained", werr)
	}
}

func TestJobErrors(t *testing.T) {
	reg := testRegistry(t)
	bad := FuncJob{
		JobName: "bad",
		Fn: func(rt *core.Runtime, arg []byte) ([]byte, error) {
			return nil, fmt.Errorf("synthetic failure")
		},
	}
	if err := reg.Register(bad); err != nil {
		t.Fatal(err)
	}
	f, err := NewFabric(reg, WithDomains(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if _, err := f.SubmitJob("nope", nil); err == nil {
		t.Error("unknown job accepted at submit")
	}
	h, err := f.SubmitJob("bad", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := h.Wait(TimeoutInfinite); werr == nil {
		t.Error("job error did not propagate")
	}
}

func TestCloseSettlesOutstanding(t *testing.T) {
	f, err := NewFabric(testRegistry(t), WithDomains(1), WithDomainWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := f.SubmitJob("sleepsum", sleepSumArg(500, 1))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := f.SubmitJob("sleepsum", sleepSumArg(500, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, h := range []*TaskHandle{h1, h2} {
		if _, werr := h.Wait(time.Second); werr != ErrClosed {
			t.Errorf("task %d after Close: %v, want ErrClosed", h.ID(), werr)
		}
	}
	if _, err := f.SubmitJob("echo", nil); err != ErrClosed {
		t.Errorf("SubmitJob after Close = %v, want ErrClosed", err)
	}
	_ = f.Close() // idempotent
}
