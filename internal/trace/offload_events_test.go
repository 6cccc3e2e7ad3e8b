package trace

import "testing"

// TestOffloadEvents: an offloaded chunk is a fabric task, so its dispatch
// and completion reach the recorder as task-send/task-recv events with
// the domain as the event's thread and the task id in Units.
func TestOffloadEvents(t *testing.T) {
	r := NewRecorder(16)
	r.TaskSend(2, 7)
	r.TaskSend(-1, 8) // the calling goroutine's own share
	r.TaskRecv(2, 7)
	r.TaskRecv(-1, 8)

	sum := r.Summary()
	if sum.TaskSends != 2 || sum.TaskRecvs != 2 {
		t.Errorf("Summary task counters = %d sends / %d recvs, want 2/2", sum.TaskSends, sum.TaskRecvs)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Kind != EvTaskSend || evs[0].Tid != 2 || evs[0].Units != 7 {
		t.Errorf("event 0 = %v, want task-send domain 2 task 7", evs[0])
	}
	if evs[3].Kind != EvTaskRecv || evs[3].Tid != -1 {
		t.Errorf("event 3 = %v, want host-local task-recv", evs[3])
	}
	if EvTaskSend.String() != "task-send" || EvTaskRecv.String() != "task-recv" {
		t.Errorf("event kind names wrong: %q, %q", EvTaskSend, EvTaskRecv)
	}
}
