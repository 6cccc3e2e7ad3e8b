package taskfabric

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"openmpmca/internal/mcapi"
	"openmpmca/internal/offload"
)

// TestLargePayloads sends 8 echo tasks of 32 KiB — argument out, an
// equal-sized result back — down the fabric's one data path, inline
// frames in batched flushes, and demands byte-exact results when the
// tasks are plainly dispatched, when they cross a direct peer yield, and
// when the domain holding them is killed and they are re-dispatched.
//
// Serial domains and one submitAll make placement exact: each blocker
// pins the domain it lands on, and the echoes are dealt min-occupancy
// over what is left, so a pinned domain holds echoes that can only
// finish by migrating.
func TestLargePayloads(t *testing.T) {
	const tasks, size = 8, 32 << 10
	cases := []struct {
		name     string
		domains  int
		blockers int  // 250 ms sleepers submitted first, pinning domains 0..blockers-1
		kill     bool // crash domain 0 right after the echoes are queued on it
		verify   func(t *testing.T, st Stats, recovered int)
	}{
		{name: "dispatched", domains: 2,
			verify: func(t *testing.T, st Stats, recovered int) {
				if st.RemoteTasks != tasks || st.LocalTasks != 0 || st.Resends != 0 {
					t.Errorf("remote/local/resends = %d/%d/%d, want %d/0/0",
						st.RemoteTasks, st.LocalTasks, st.Resends, tasks)
				}
			}},
		{name: "peer-yield", domains: 3, blockers: 2,
			verify: func(t *testing.T, st Stats, recovered int) {
				// The blockers are running, so only queued echoes can have
				// been yielded.
				if st.PeerSteals == 0 {
					t.Errorf("PeerSteals = 0 (Steals = %d): no echo crossed the mesh", st.Steals)
				}
			}},
		{name: "killed-mid-flight", domains: 2, blockers: 1, kill: true,
			verify: func(t *testing.T, st Stats, recovered int) {
				if st.DomainsLost != 1 {
					t.Errorf("DomainsLost = %d, want 1", st.DomainsLost)
				}
				if recovered == 0 || st.Resends == 0 {
					t.Errorf("recovered echoes = %d, Resends = %d: none was re-dispatched",
						recovered, st.Resends)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := NewFabric(testRegistry(t),
				WithDomains(c.domains),
				WithDomainWorkers(1),
				WithHeartbeat(5*time.Millisecond), // lost after 40ms
				WithTaskDeadline(10*time.Second),  // keep deadline re-dispatch out of the picture
				WithInflight(16),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			g := f.NewGroup()
			for i := 0; i < c.blockers; i++ {
				if _, err := g.SubmitJob("sleepsum", sleepSumArg(250, 0)); err != nil {
					t.Fatal(err)
				}
			}
			args := make([][]byte, tasks)
			for i := range args {
				args[i] = make([]byte, size)
				for j := range args[i] {
					args[i][j] = byte(j*31 + i)
				}
			}
			handles, err := f.submitAll("echo", args, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.kill {
				if err := f.KillDomain(0); err != nil {
					t.Fatal(err)
				}
			}
			if err := g.WaitAll(30 * time.Second); err != nil && !errors.Is(err, ErrDomainLost) {
				t.Fatalf("WaitAll: %v", err)
			}
			recovered := 0
			for i, h := range handles {
				res, err := h.Wait(0)
				if errors.Is(err, ErrDomainLost) {
					recovered++
				} else if err != nil {
					t.Fatalf("task %d: %v", h.ID(), err)
				}
				if !bytes.Equal(res, args[i]) {
					t.Fatalf("task %d: %d-byte payload corrupted in flight", h.ID(), size)
				}
			}
			c.verify(t, f.Stats(), recovered)
		})
	}
}

// TestRetiredKindsIgnored: wire kinds 17 and 18 carried the deleted
// remote-memory descriptor and ack frames. A frame starting with either
// byte must be dropped unread — bare or inside a batch envelope — by the
// worker's command loop, the peer-mesh receive loop and the host's
// scheduler, and the fabric must carry on exactly as if it never arrived.
func TestRetiredKindsIgnored(t *testing.T) {
	f, err := NewFabric(testRegistry(t), WithDomains(2), WithTaskDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	w := f.workers[0]
	sends := map[string]*mcapi.PktSendHandle{
		"host->worker": f.links[0].cmd,
		"worker->host": w.resSend,
		"peer->peer":   f.workers[1].peerSend[w.id],
	}
	for _, kind := range []byte{17, 18} {
		// The old descriptor layout wrapping a task frame: were the kind
		// still live this would enqueue task 99.
		pkt := append([]byte{kind, byte(offload.KindTask)},
			offload.EncodeTaskFrame(offload.KindTask, offload.TaskFrame{Task: 99, Job: "echo"})...)
		if _, ok := offload.FrameKind(pkt); ok {
			t.Fatalf("kind %d still classifies as a fabric frame", kind)
		}
		if !w.handle(offload.WireKind(kind), pkt) {
			t.Fatalf("worker.handle(kind %d) asked the command loop to stop", kind)
		}
		batch := offload.EncodeBatch(pkt, pkt)
		for _, raw := range [][]byte{pkt, batch} {
			for path, send := range sends {
				if err := send.Send(raw, mcapi.TimeoutInfinite); err != nil {
					t.Fatalf("%s: injecting kind %d: %v", path, kind, err)
				}
			}
		}
	}

	// Each channel is FIFO and each receive loop sequential, so a task
	// that round-trips after the injected frames proves the command loop
	// and the scheduler consumed them and kept running; the mesh carries
	// no traffic here, so its loop is seen draining the queue instead.
	deadline := time.Now().Add(10 * time.Second)
	for w.peerRecv[f.workers[1].id].Available() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("peer loop stopped receiving after a retired frame")
		}
		time.Sleep(time.Millisecond)
	}
	arg := []byte("still serving")
	for i := 0; i < 4; i++ {
		h, err := f.SubmitJob("echo", arg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait(10 * time.Second)
		if err != nil || !bytes.Equal(res, arg) {
			t.Fatalf("echo after retired frames: %q, %v", res, err)
		}
	}
	for _, wk := range f.workers {
		wk.qmu.Lock()
		queued, running := len(wk.queued), wk.running
		wk.qmu.Unlock()
		if queued != 0 || running != 0 {
			t.Errorf("domain %d: queued=%d running=%d after retired frames, want 0/0", wk.id, queued, running)
		}
	}
	st := f.Stats()
	if st.Submitted != 4 || st.RemoteTasks != 4 || st.Steals != 0 || st.Resends != 0 || st.LocalTasks != 0 {
		t.Errorf("stats moved by retired frames: %+v", st)
	}
}
