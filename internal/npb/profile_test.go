package npb

import (
	"sync/atomic"
	"testing"

	"openmpmca/internal/core"
)

// constructProfile counts the runtime events the virtual-time model turns
// into synchronization cost.
type constructProfile struct {
	Regions, Barriers, Reductions, Singles int64
}

// profileCounter is a core.Monitor that tallies a constructProfile.
type profileCounter struct {
	regions, barriers, reductions, singles atomic.Int64
}

func (p *profileCounter) Fork(int)            { p.regions.Add(1) }
func (p *profileCounter) Join()               {}
func (p *profileCounter) Charge(int, float64) {}
func (p *profileCounter) Barrier()            { p.barriers.Add(1) }
func (p *profileCounter) CriticalEnter(int)   {}
func (p *profileCounter) CriticalExit(int)    {}
func (p *profileCounter) Single(int)          { p.singles.Add(1) }
func (p *profileCounter) Reduction(int)       { p.reductions.Add(1) }
func (p *profileCounter) Task(int)            {}
func (p *profileCounter) Steal(int, int)      {}
func (p *profileCounter) NestedFork(int, int) {}
func (p *profileCounter) NestedJoin(int)      {}
func (p *profileCounter) Cancel()             {}

// TestClassSConstructProfiles pins each class-S kernel's construct
// profile at 4 threads. The model charges a barrier per Barrier event and
// a region per Fork, so E2's figures move if any of these counts does; in
// particular the region end must report exactly one Barrier however the
// runtime implements its join.
func TestClassSConstructProfiles(t *testing.T) {
	want := map[string]constructProfile{
		"EP": {Regions: 1, Barriers: 3, Reductions: 1, Singles: 0},
		"CG": {Regions: 1, Barriers: 2806, Reductions: 810, Singles: 0},
		"IS": {Regions: 1, Barriers: 62, Reductions: 0, Singles: 20},
		"MG": {Regions: 1, Barriers: 75, Reductions: 2, Singles: 0},
		"FT": {Regions: 2, Barriers: 66, Reductions: 6, Singles: 6},
		"LU": {Regions: 1, Barriers: 688, Reductions: 2, Singles: 0},
		"SP": {Regions: 1, Barriers: 124, Reductions: 21, Singles: 0},
	}
	for _, name := range Kernels {
		k, err := New(name, ClassS)
		if err != nil {
			t.Fatal(err)
		}
		var p profileCounter
		rt, err := core.New(
			core.WithLayer(core.NewNativeLayer(24)),
			core.WithNumThreads(4),
			core.WithMonitor(&p),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := k.Run(rt)
		_ = rt.Close()
		if err != nil || !res.Verified {
			t.Fatalf("%s: err %v, verified %v", name, err, res.Verified)
		}
		got := constructProfile{p.regions.Load(), p.barriers.Load(), p.reductions.Load(), p.singles.Load()}
		if got != want[name] {
			t.Errorf("%s class S at 4 threads: profile %+v, want %+v", name, got, want[name])
		}
	}
}
