package core

// Team leasing: a warm-team cache in front of newTeam, so concurrent
// Parallel callers lease pre-built team structures — barrier, worksharing
// database, task deques AND the MRAPI-allocated shmem bookkeeping block —
// instead of paying a full construction + layer allocation per region.
// This is the Thibault et al. observation (reuse warm thread/team
// structures across regions) applied one level above the worker pool,
// which already reuses the threads themselves (§5B1).
//
// Teams are cached per size. A clean region end leaves every structure
// reusable as-is (the barrier completed its episode, worksharing records
// were retired, the deques drained); an abnormal end — cancellation or a
// contained panic — poisons the team and Team.reset rebuilds the
// coordination structures before the team re-enters the cache, so a
// panicking region can never leak a broken barrier into a later one.

// teamCachePerSize bounds the cached teams per team size, so a burst of
// wide concurrency does not pin team structures (and their layer
// allocations) forever.
const teamCachePerSize = 16

// leaseTeam returns a team of the given size, for the caller to arm
// (Team.armRegion): a cached one when leasing is on and the cache has a
// fit (a lease hit), a fresh build otherwise.
func (r *Runtime) leaseTeam(n int) (*Team, error) {
	if r.teamLease {
		r.leaseMu.Lock()
		if cached := r.leases[n]; len(cached) > 0 {
			t := cached[len(cached)-1]
			r.leases[n] = cached[:len(cached)-1]
			r.leaseMu.Unlock()
			r.stats.LeaseHits.Add(1)
			return t, nil
		}
		r.leaseMu.Unlock()
	}
	r.stats.LeaseMisses.Add(1)
	return newTeam(r, n)
}

// releaseTeam returns a team to the cache at region end, rebuilding the
// coordination structures first when the region ended abnormally. Teams
// beyond the per-size cache bound — and every team once the runtime is
// closed or leasing is off — give their bookkeeping block back to the
// layer, the original per-region gomp_free.
func (r *Runtime) releaseTeam(t *Team) {
	t.body = nil // a cached team must not keep the region's closure alive
	if t.poisoned {
		t.reset()
	}
	if r.teamLease && !r.closed.Load() {
		r.leaseMu.Lock()
		if len(r.leases[t.size]) < teamCachePerSize {
			r.leases[t.size] = append(r.leases[t.size], t)
			r.leaseMu.Unlock()
			return
		}
		r.leaseMu.Unlock()
	}
	r.layer.Free(t.shmem)
}

// drainTeamCache frees every cached team's bookkeeping block (Close).
func (r *Runtime) drainTeamCache() {
	r.leaseMu.Lock()
	leases := r.leases
	r.leases = make(map[int][]*Team)
	r.leaseMu.Unlock()
	for _, cached := range leases {
		for _, t := range cached {
			r.layer.Free(t.shmem)
		}
	}
}

// acquireMasterWID leases a layer-level identity for a region's thread 0.
// The forking goroutine is not a pool worker, so it has no worker id of
// its own; concurrent forks still need distinct lock-attribution
// identities (MRAPI nodes are deadlock-checked per owner). Slot 0 maps to
// wid 0 — the master node, preserving the single-caller behavior — and
// every additional concurrent caller gets a negative wid the MCA layer
// registers a caller node for on first use. Slots are recycled, so the
// id space stays as small as the peak concurrency.
func (r *Runtime) acquireMasterWID() int {
	r.masterMu.Lock()
	defer r.masterMu.Unlock()
	if n := len(r.masterFree); n > 0 {
		slot := r.masterFree[n-1]
		r.masterFree = r.masterFree[:n-1]
		return -slot
	}
	slot := r.masterNext
	r.masterNext++
	return -slot
}

// releaseMasterWID recycles a leased master identity.
func (r *Runtime) releaseMasterWID(wid int) {
	r.masterMu.Lock()
	defer r.masterMu.Unlock()
	r.masterFree = append(r.masterFree, -wid)
}
