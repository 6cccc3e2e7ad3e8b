package main

import (
	"fmt"
	"time"

	"openmpmca/internal/core"
)

// ompBench holds the two runtimes of omp_constructs: the same mix runs
// on the native thread layer and on the MCA (MRAPI-backed) one.
type ompBench struct {
	native, mca mixRunner
}

// setup builds both runtimes and runs the fixed warm-up on each. It
// returns the seconds it took.
func (b *ompBench) setup(in *inputs, warmup int) (float64, error) {
	t0 := time.Now()
	for _, l := range []struct {
		name string
		r    *mixRunner
	}{{layerNative, &b.native}, {layerMCA, &b.mca}} {
		rt, err := newOMPRuntime(l.name)
		if err != nil {
			return 0, fmt.Errorf("%s runtime: %w", l.name, err)
		}
		*l.r = mixRunner{rt: rt, in: in}
		for i := 0; i < warmup; i++ {
			l.r.one()
		}
	}
	return time.Since(t0).Seconds(), nil
}

// close shuts both runtimes and folds their oracles into rep.
func (b *ompBench) close(rep *report) error {
	var first error
	for _, r := range []*mixRunner{&b.native, &b.mca} {
		if err := r.rt.Close(); err != nil && first == nil {
			first = err
		}
		rep.merge(r.tally)
		r.tally = tally{}
	}
	return first
}

// abba runs pairs of blocks, native and MCA alternating in ABBA order so
// that drift of the host falls on both sides alike. It returns the MCA
// mixes' times, and per pair the mixes/s of each side.
func (b *ompBench) abba(total time.Duration) (mcaMs, mcaRate, nativeRate []float64) {
	block := total / (2 * ompPairs)
	for p := 0; p < ompPairs; p++ {
		var nr, mr float64
		var ms []float64
		if p%2 == 0 {
			_, nr = b.native.block(block)
			ms, mr = b.mca.block(block)
		} else {
			ms, mr = b.mca.block(block)
			_, nr = b.native.block(block)
		}
		mcaMs = append(mcaMs, ms...)
		mcaRate = append(mcaRate, mr)
		nativeRate = append(nativeRate, nr)
	}
	return mcaMs, mcaRate, nativeRate
}

// ompTimed is the untraced run of omp_constructs: per segment, fresh
// runtimes, the ABBA blocks, then the restarts; favourable quartiles over
// segments.
func ompTimed(cfg config, in *inputs, rep *report) error {
	var b ompBench
	var st segStats
	var ratios []float64
	for k := 0; k < cfg.segments; k++ {
		s, err := b.setup(in, cfg.warmup[wOMP])
		if err != nil {
			return err
		}
		st.setups = append(st.setups, s)
		mcaMs, mcaRate, nativeRate := b.abba(cfg.segment())
		st.measured(mcaMs, median(mcaRate))
		// mixes/s inverts to time per mix: MCA ÷ native time is native ÷ MCA rate.
		ratios = append(ratios, medianPairRatio(nativeRate, mcaRate))

		// Restart: the MCA runtime closed, rebuilt, and through its first
		// verified mix.
		for r := 0; r < cfg.restarts[wOMP]; r++ {
			t0 := time.Now()
			if err := b.mca.rt.Close(); err != nil {
				return err
			}
			if b.mca.rt, err = newOMPRuntime(layerMCA); err != nil {
				return err
			}
			b.mca.one()
			st.restarts = append(st.restarts, msSince(t0))
		}
		if err := b.close(rep); err != nil {
			return err
		}
	}
	st.report(rep)
	rep.notes = append(rep.notes, fmt.Sprintf("mca_native_ratio %.4f (median over the segments' medians over ABBA pairs of MCA ÷ native time per mix: %.3f)",
		median(ratios), ratios))
	return nil
}

// ompTraced is the traced run of omp_constructs: the paper's ratio, each
// construct on its own on both layers, and the primitives beneath.
func ompTraced(cfg config, in *inputs, rep *report) error {
	var b ompBench
	if _, err := b.setup(in, cfg.warmup[wOMP]); err != nil {
		return err
	}
	m := rep.metrics
	before := b.mca.rt.Stats().Snapshot()
	mcaMs, mcaRate, nativeRate := b.abba(cfg.timed() / 2)
	after := b.mca.rt.Stats().Snapshot()
	tailMetrics(m, mcaMs)
	m["core.mca_native_ratio"] = medianPairRatio(nativeRate, mcaRate)
	m["core.native_mix_per_s"] = median(nativeRate)
	if leases := float64(after.LeaseHits + after.LeaseMisses - before.LeaseHits - before.LeaseMisses); leases > 0 {
		m["core.lease_hit_frac"] = float64(after.LeaseHits-before.LeaseHits) / leases
	}
	m["core.task_steals_per_kmix"] = 1000 * float64(after.Steals-before.Steals) / float64(len(mcaMs))

	// Each construct alone, layers alternating, median over rounds.
	const rounds, reps = 7, 1000
	us := map[string]map[string][]float64{layerNative: {}, layerMCA: {}}
	for r := 0; r < rounds; r++ {
		mix := &in.mixes[r%len(in.mixes)]
		for _, l := range []struct {
			name string
			rt   *core.Runtime
		}{{layerNative, b.native.rt}, {layerMCA, b.mca.rt}} {
			got, err := timeConstructs(l.rt, mix, reps)
			if err != nil {
				return err
			}
			for c, v := range got {
				us[l.name][c] = append(us[l.name][c], v)
			}
		}
	}
	for _, c := range constructNames {
		mca, native := median(us[layerMCA][c]), median(us[layerNative][c])
		m["core."+c+"_us"] = mca
		if native > 0 {
			m["core."+c+"_ratio"] = mca / native
		}
	}
	var err error
	if m["mrapi.mutex_pair_ns"], err = mutexPairNs(200_000); err != nil {
		return err
	}
	m["syncq.wait_signal_ns"] = waitSignalNs(50_000)
	return b.close(rep)
}
