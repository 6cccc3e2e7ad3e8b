package trace

import "testing"

// TestOffloadEvents: an offloaded chunk is a fabric task, so its dispatch
// and completion reach the recorder as task-send/task-recv events with
// the domain as the event's thread and the task id in Units. A peer
// steal is one record, counted among the steals too.
func TestOffloadEvents(t *testing.T) {
	r := NewRecorder(16)
	r.Event(FabricEvent{Kind: EvTaskSend, Task: 7, Domain: 2, Victim: -1})
	r.Event(FabricEvent{Kind: EvTaskSend, Task: 8, Domain: -1, Victim: -1}) // the calling goroutine's own share
	r.Event(FabricEvent{Kind: EvTaskRecv, Task: 7, Domain: 2, Victim: -1})
	r.Event(FabricEvent{Kind: EvTaskRecv, Task: 8, Domain: -1, Victim: -1})
	r.Event(FabricEvent{Kind: EvPeerSteal, Task: 9, Domain: 1, Victim: 0})

	sum := r.Summary()
	if sum.TaskSends != 2 || sum.TaskRecvs != 2 {
		t.Errorf("Summary task counters = %d sends / %d recvs, want 2/2", sum.TaskSends, sum.TaskRecvs)
	}
	if sum.TaskSteals != 1 {
		t.Errorf("Summary steals = %d, want 1", sum.TaskSteals)
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	if evs[0].Kind != EvTaskSend || evs[0].Tid != 2 || evs[0].Units != 7 {
		t.Errorf("event 0 = %v, want task-send domain 2 task 7", evs[0])
	}
	if evs[3].Kind != EvTaskRecv || evs[3].Tid != -1 {
		t.Errorf("event 3 = %v, want host-local task-recv", evs[3])
	}
	if evs[4].Kind != EvPeerSteal || evs[4].Tid != 1 || evs[4].Units != 9 {
		t.Errorf("event 4 = %v, want peer-steal thief 1 task 9", evs[4])
	}
	if EvTaskSend.String() != "task-send" || EvTaskRecv.String() != "task-recv" {
		t.Errorf("event kind names wrong: %q, %q", EvTaskSend, EvTaskRecv)
	}
}
