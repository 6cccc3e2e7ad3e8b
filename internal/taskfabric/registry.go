package taskfabric

import (
	"fmt"
	"sync"

	"openmpmca/internal/core"
)

// Job is work the fabric can execute on any domain. A job crosses the
// MCAPI wire by name only — every domain (and the host) must register
// the same jobs — and serializes its argument and result as opaque
// []byte: nothing Go-specific may cross what the model treats as a
// hardware boundary.
type Job interface {
	// Name identifies the job on the wire.
	Name() string
	// Execute runs the job on the executing domain's OpenMP runtime.
	Execute(rt *core.Runtime, arg []byte) ([]byte, error)
}

// FuncJob adapts plain functions to Job.
type FuncJob struct {
	JobName string
	Fn      func(rt *core.Runtime, arg []byte) ([]byte, error)
}

// Name implements Job.
func (j FuncJob) Name() string { return j.JobName }

// Execute implements Job.
func (j FuncJob) Execute(rt *core.Runtime, arg []byte) ([]byte, error) { return j.Fn(rt, arg) }

// Registry maps job names to implementations. Register every job before
// handing the registry to NewFabric; lookups are concurrency-safe.
type Registry struct {
	mu   sync.RWMutex
	jobs map[string]Job
}

// NewRegistry creates an empty job registry.
func NewRegistry() *Registry {
	return &Registry{jobs: make(map[string]Job)}
}

// Register adds a job; names must be unique and non-empty.
func (r *Registry) Register(j Job) error {
	name := j.Name()
	if name == "" {
		return fmt.Errorf("taskfabric: job with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.jobs[name]; dup {
		return fmt.Errorf("taskfabric: job %q already registered", name)
	}
	r.jobs[name] = j
	return nil
}

// Lookup resolves a job by name.
func (r *Registry) Lookup(name string) (Job, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	j, ok := r.jobs[name]
	return j, ok
}
