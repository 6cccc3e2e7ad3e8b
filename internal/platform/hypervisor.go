package platform

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// GuestOS names the kind of software image a hypervisor partition boots
// (the paper's Figure 2 shows Linux, RTOS and bare-metal guests side by
// side on one T4240).
type GuestOS string

// Guest operating-system kinds.
const (
	GuestLinux     GuestOS = "Embedded Linux"
	GuestRTOS      GuestOS = "RTOS"
	GuestBareMetal GuestOS = "Bare-Metal"
)

// PartitionState is a partition's lifecycle phase.
type PartitionState int

const (
	// PartitionStopped means defined but not running.
	PartitionStopped PartitionState = iota
	// PartitionRunning means the guest has been started.
	PartitionRunning
)

func (s PartitionState) String() string {
	if s == PartitionRunning {
		return "running"
	}
	return "stopped"
}

// Errors returned by the hypervisor.
var (
	ErrCPUConflict     = errors.New("hypervisor: CPU already assigned to another partition")
	ErrCPUOutOfRange   = errors.New("hypervisor: CPU index outside the board")
	ErrMemExhausted    = errors.New("hypervisor: not enough unassigned memory")
	ErrPartitionExists = errors.New("hypervisor: partition name already in use")
	ErrNoPartition     = errors.New("hypervisor: no such partition")
	ErrPartitionBusy   = errors.New("hypervisor: partition is running")
	ErrNoCPUs          = errors.New("hypervisor: partition needs at least one CPU")
	ErrNotSupported    = errors.New("hypervisor: board has no embedded hypervisor")
)

// Partition is one secure partition of the multicore system: an exclusive
// set of hardware threads, a memory share, and a guest image.
type Partition struct {
	Name   string
	Guest  GuestOS
	CPUs   []int // hardware-thread indices, exclusive
	MemMB  int
	state  PartitionState
	IOmask []string // pass-through I/O devices
	board  *Board   // the board the partition's CPUs are on
}

// State reports the partition's lifecycle phase.
func (p *Partition) State() PartitionState { return p.state }

// Hypervisor models the Freescale embedded hypervisor: a thin layer that
// partitions a board's CPUs, memory and I/O so different guests run side
// by side (paper §4A, Figure 2).
type Hypervisor struct {
	board *Board

	mu         sync.Mutex
	partitions map[string]*Partition
	cpuOwner   map[int]string
	memFreeMB  int
}

// NewHypervisor installs the hypervisor on a board. Boards without
// hypervisor support reject installation.
func NewHypervisor(b *Board) (*Hypervisor, error) {
	if !b.Hypervisor {
		return nil, ErrNotSupported
	}
	return &Hypervisor{
		board:      b,
		partitions: make(map[string]*Partition),
		cpuOwner:   make(map[int]string),
		memFreeMB:  b.MemMB,
	}, nil
}

// Board returns the underlying board.
func (h *Hypervisor) Board() *Board { return h.board }

// FreeMemMB reports unassigned memory.
func (h *Hypervisor) FreeMemMB() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.memFreeMB
}

// FreeCPUs returns the hardware threads not owned by any partition, sorted.
func (h *Hypervisor) FreeCPUs() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []int
	for cpu := 0; cpu < h.board.HWThreads(); cpu++ {
		if _, taken := h.cpuOwner[cpu]; !taken {
			out = append(out, cpu)
		}
	}
	return out
}

// CreatePartition defines a partition with exclusive ownership of the given
// hardware threads and memMB of memory. CPU and memory assignments are
// checked for conflicts; partial failures leave the hypervisor unchanged.
func (h *Hypervisor) CreatePartition(name string, guest GuestOS, cpus []int, memMB int, ioDevices ...string) (*Partition, error) {
	if len(cpus) == 0 {
		return nil, ErrNoCPUs
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.partitions[name]; dup {
		return nil, ErrPartitionExists
	}
	if memMB > h.memFreeMB {
		return nil, ErrMemExhausted
	}
	seen := make(map[int]bool, len(cpus))
	for _, c := range cpus {
		if c < 0 || c >= h.board.HWThreads() {
			return nil, fmt.Errorf("%w: cpu%d on %s", ErrCPUOutOfRange, c, h.board.Name)
		}
		if owner, taken := h.cpuOwner[c]; taken {
			return nil, fmt.Errorf("%w: cpu%d owned by %q", ErrCPUConflict, c, owner)
		}
		if seen[c] {
			return nil, fmt.Errorf("%w: cpu%d listed twice", ErrCPUConflict, c)
		}
		seen[c] = true
	}
	p := &Partition{
		Name:   name,
		Guest:  guest,
		CPUs:   append([]int(nil), cpus...),
		MemMB:  memMB,
		IOmask: append([]string(nil), ioDevices...),
		board:  h.board,
	}
	sort.Ints(p.CPUs)
	for _, c := range p.CPUs {
		h.cpuOwner[c] = name
	}
	h.memFreeMB -= memMB
	h.partitions[name] = p
	return p, nil
}

// Start boots the partition's guest.
func (h *Hypervisor) Start(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.partitions[name]
	if !ok {
		return ErrNoPartition
	}
	p.state = PartitionRunning
	return nil
}

// Stop halts a running partition's guest.
func (h *Hypervisor) Stop(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.partitions[name]
	if !ok {
		return ErrNoPartition
	}
	p.state = PartitionStopped
	return nil
}

// DestroyPartition removes a stopped partition and returns its resources.
func (h *Hypervisor) DestroyPartition(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.partitions[name]
	if !ok {
		return ErrNoPartition
	}
	if p.state == PartitionRunning {
		return ErrPartitionBusy
	}
	for _, c := range p.CPUs {
		delete(h.cpuOwner, c)
	}
	h.memFreeMB += p.MemMB
	delete(h.partitions, name)
	return nil
}

// Partition looks up a partition by name.
func (h *Hypervisor) Partition(name string) (*Partition, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.partitions[name]
	if !ok {
		return nil, ErrNoPartition
	}
	return p, nil
}

// Partitions returns all partitions sorted by name.
func (h *Hypervisor) Partitions() []*Partition {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Partition, 0, len(h.partitions))
	for _, p := range h.partitions {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Render draws the partition map — the reproduction of the paper's
// Figure 2.
func (h *Hypervisor) Render() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Freescale Embedded Hypervisor on %s\n", h.board.Name)
	sb.WriteString(strings.Repeat("=", 60) + "\n")
	names := make([]string, 0, len(h.partitions))
	for n := range h.partitions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := h.partitions[n]
		cpus := make([]string, len(p.CPUs))
		for i, c := range p.CPUs {
			cpus[i] = fmt.Sprintf("cpu%d", c)
		}
		fmt.Fprintf(&sb, "| partition %-12s guest=%-15s %-8s\n", p.Name, p.Guest, p.state)
		fmt.Fprintf(&sb, "|   cpus: %s\n", strings.Join(cpus, " "))
		fmt.Fprintf(&sb, "|   mem:  %d MB", p.MemMB)
		if len(p.IOmask) > 0 {
			fmt.Fprintf(&sb, "   io: %s", strings.Join(p.IOmask, ","))
		}
		sb.WriteString("\n" + strings.Repeat("-", 60) + "\n")
	}
	free := 0
	for cpu := 0; cpu < h.board.HWThreads(); cpu++ {
		if _, taken := h.cpuOwner[cpu]; !taken {
			free++
		}
	}
	fmt.Fprintf(&sb, "unassigned: %d cpus, %d MB\n", free, h.memFreeMB)
	sb.WriteString("--- hypervisor: CPU/memory/I-O partitioning, guest isolation ---\n")
	fmt.Fprintf(&sb, "--- hardware: %d× %s, %s fabric ---\n", h.board.Cores, h.board.CoreModel, h.board.Fabric)
	return sb.String()
}
