package chaos

import (
	"fmt"
	"math/rand"
	"time"
)

// Plan derives n campaigns from one seed. The derivation consumes the
// RNG in a fixed order, so the same (seed, n, duration) triple always
// yields byte-identical schedules — replaying a failed run is
// `ompmca-chaos -seed <seed>`. Workloads rotate fabric → offload →
// service so any n >= 3 mixes every subsystem, and every campaign
// composes at least one domain kill, one readmission and one
// frame-fault window; fabric and service campaigns add saturation
// bursts and group cancellation.
func Plan(seed int64, n int, duration time.Duration) []Campaign {
	if n < 1 {
		n = 1
	}
	if duration <= 0 {
		duration = 2 * time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	workloads := []Workload{WorkloadFabric, WorkloadOffload, WorkloadService}
	out := make([]Campaign, 0, n)
	for i := 0; i < n; i++ {
		c := Campaign{
			Name:     fmt.Sprintf("c%02d", i),
			Seed:     rng.Int63(),
			Workload: workloads[i%len(workloads)],
			Domains:  2 + rng.Intn(2), // 2..3
			Duration: duration,
		}
		switch c.Workload {
		case WorkloadFabric:
			c.Tasks = 24 + rng.Intn(25) // 24..48
			c.Blockers = rng.Intn(3)    // 0..2 long tasks pinning domains
			if c.Blockers > 0 {
				// Steal setups get busy tasks so kills catch work in
				// flight.
				c.TaskSpin = time.Duration(5+rng.Intn(16)) * time.Millisecond
			}
		case WorkloadOffload:
			c.Tasks = 6 + rng.Intn(7) // 6..12 parallel-for regions
		case WorkloadService:
			c.Tasks = 16 + rng.Intn(17) // 16..32 HTTP jobs
		}

		// Lay faults out inside the first ~70% of the budget so the
		// drain phase can settle everything the faults disturbed.
		at := func(lo, hi float64) time.Duration {
			f := lo + rng.Float64()*(hi-lo)
			return time.Duration(f * float64(duration))
		}

		// One frame-fault window early...
		kinds := []ActionKind{ActDropFrames, ActDelayFrames, ActDupFrames}
		ffk := kinds[rng.Intn(len(kinds))]
		ffa := Action{
			Kind:   ffk,
			At:     at(0.05, 0.2),
			Rate:   0.05 + rng.Float64()*0.20,
			Window: time.Duration((0.2 + rng.Float64()*0.3) * float64(duration)),
		}
		if ffk == ActDelayFrames {
			ffa.Delay = time.Duration(200+rng.Intn(1800)) * time.Microsecond
		}
		c.Actions = append(c.Actions, ffa)

		// ...a kill + readmit pair in the middle...
		victim := rng.Intn(c.Domains)
		c.Actions = append(c.Actions,
			Action{Kind: ActKillDomain, At: at(0.25, 0.4), Domain: victim},
			Action{Kind: ActReadmitDomain, At: at(0.5, 0.65), Domain: victim},
		)

		// ...a second frame-fault window late, over a different kind...
		ffk2 := kinds[rng.Intn(len(kinds))]
		ffa2 := Action{
			Kind:   ffk2,
			At:     at(0.45, 0.6),
			Rate:   0.05 + rng.Float64()*0.15,
			Window: time.Duration((0.1 + rng.Float64()*0.2) * float64(duration)),
		}
		if ffk2 == ActDelayFrames {
			ffa2.Delay = time.Duration(200+rng.Intn(1800)) * time.Microsecond
		}
		c.Actions = append(c.Actions, ffa2)

		// ...and admission/cancel pressure where the workload has it.
		if c.Workload != WorkloadOffload {
			c.Actions = append(c.Actions,
				Action{Kind: ActSaturate, At: at(0.2, 0.5), Burst: 8 + rng.Intn(17)},
				Action{Kind: ActCancelGroup, At: at(0.3, 0.6)},
			)
		}
		out = append(out, c)
	}
	return out
}

// KillMidGraphCampaign is the promoted form of the fabric's original
// kill-mid-graph CI test: three serial worker domains, two long
// blockers backing up domains 0 and 1 so the idle third domain steals,
// then domain 2 killed the moment a steal completes — it dies holding
// migrated tasks, and the graph must still settle byte-exact with
// exactly one domain lost. Seed 42, fixed forever; chaos CI replays it
// every run.
func KillMidGraphCampaign() Campaign {
	return Campaign{
		Name:     "kill-mid-graph",
		Seed:     42,
		Workload: WorkloadFabric,
		Domains:  3,
		Tasks:    20,
		Blockers: 2,
		TaskSpin: 25 * time.Millisecond,
		Duration: 4 * time.Second,
		Actions: []Action{
			{Kind: ActKillDomain, At: 50 * time.Millisecond, Domain: 2, AfterSteal: true},
		},
	}
}

// KillVictimMidYieldCampaign exercises the peer-steal mesh's nastiest
// interleaving at full board width: eight serial worker domains, six
// blockers backing most of them up so idle domains steal directly over
// the mesh, then a loaded domain killed the moment the first steal
// lands — with peer stealing on that steal is a direct mesh migration,
// so the victim can die holding tasks it canceled but never finished
// yielding. Those tasks die with it; the host's flights still point at
// the corpse, heartbeat loss reclaims them, and the graph must settle
// byte-exact with zero lost jobs. Seed 42, fixed forever; chaos CI
// replays it every run.
func KillVictimMidYieldCampaign() Campaign {
	return Campaign{
		Name:     "kill-victim-mid-yield",
		Seed:     42,
		Workload: WorkloadFabric,
		Domains:  8,
		Tasks:    32,
		Blockers: 6,
		TaskSpin: 15 * time.Millisecond,
		Duration: 4 * time.Second,
		Actions: []Action{
			{Kind: ActKillDomain, At: 30 * time.Millisecond, Domain: 0, AfterSteal: true},
			{Kind: ActReadmitDomain, At: 2 * time.Second, Domain: 0},
		},
	}
}

// DeadPeerChannelCampaign starves the mesh instead of killing domains:
// a long high-rate drop window eats peer-steal requests and yields
// mid-flight, so thieves time out on unanswered peers and ask again
// while victims drain their own queues — and a mid-window kill (of a
// domain whose mesh links are equally lossy) exercises loss recovery
// under the same damage. Zero lost jobs, byte-exact, at eight domains.
// Seed 42, fixed forever.
func DeadPeerChannelCampaign() Campaign {
	return Campaign{
		Name:     "dead-peer-channel",
		Seed:     42,
		Workload: WorkloadFabric,
		Domains:  8,
		Tasks:    32,
		Blockers: 5,
		TaskSpin: 10 * time.Millisecond,
		Duration: 4 * time.Second,
		Actions: []Action{
			{Kind: ActDropFrames, At: 10 * time.Millisecond, Rate: 0.6, Window: 1500 * time.Millisecond},
			{Kind: ActKillDomain, At: 400 * time.Millisecond, Domain: 3},
			{Kind: ActReadmitDomain, At: 2 * time.Second, Domain: 3},
		},
	}
}

// MeshCampaigns bundles the fixed peer-steal scenarios chaos CI replays
// alongside KillMidGraphCampaign.
func MeshCampaigns() []Campaign {
	return []Campaign{KillVictimMidYieldCampaign(), DeadPeerChannelCampaign()}
}
