package taskfabric

import (
	"testing"
	"time"
)

// TestAblationBatching once ran a task graph with frame batching on and
// off; batched flush is now the only way the host dispatches, so only the
// batch=true half remains (test and subtest IDs kept for the suite's
// floor list). The whole graph is handed over in one submitAll, so each
// domain's share leaves the host as a single batch envelope.
func TestAblationBatching(t *testing.T) {
	t.Run("batch=true", func(t *testing.T) {
		f, err := NewFabric(testRegistry(t),
			WithDomains(3),
			WithHeartbeat(10*time.Millisecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()

		g := f.NewGroup()
		const n = 24
		var want uint64
		args := make([][]byte, n)
		for i := range args {
			args[i] = sleepSumArg(1, uint64(i)*3+1)
			want += uint64(i)*3 + 1
		}
		handles, err := f.submitAll("sleepsum", args, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.WaitAll(TimeoutInfinite); err != nil {
			t.Fatalf("WaitAll: %v", err)
		}
		var got uint64
		for _, h := range handles {
			res, err := h.Wait(0)
			if err != nil {
				t.Fatalf("task %d: %v", h.ID(), err)
			}
			got += decodeU64(t, res)
		}
		if got != want {
			t.Errorf("sum = %d, want %d", got, want)
		}
		if st := f.Stats(); st.RemoteTasks == 0 {
			t.Error("no tasks ran remotely")
		}
	})
}
