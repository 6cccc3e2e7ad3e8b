package platform

import (
	"slices"

	"openmpmca/internal/mrapi"
)

// PartitionResourceTree builds the MRAPI metadata tree a guest running
// inside the named partition would observe: only the partition's hardware
// threads (and the cores/clusters containing them), its memory share, and
// its pass-through I/O devices. This is how an OpenMP runtime deployed in
// one hypervisor partition sizes itself to the partition instead of the
// whole board (§4A's partitioning put to work). Like Board.ResourceTree,
// it counts the tree first and builds it from one arena.
func (h *Hypervisor) PartitionResourceTree(name string) (*mrapi.Resource, error) {
	p, err := h.Partition(name)
	if err != nil {
		return nil, err
	}
	return p.ResourceTree(), nil
}

// ResourceTree builds the partition's metadata tree (see
// PartitionResourceTree). With ProcessorsOnline it makes a Partition
// the mrapi.Metadata of the systems PartitionSystem creates.
func (p *Partition) ResourceTree() *mrapi.Resource {
	b := p.board

	// Sorted, a core's threads are adjacent and cores and clusters ascend,
	// so each cluster and each core is a run of the list.
	cpus := p.CPUs
	if !slices.IsSorted(cpus) {
		cpus = slices.Sorted(slices.Values(cpus))
	}
	coreOf := func(hw int) int { _, core, _ := b.Location(hw); return core }
	clusterOf := func(hw int) int { cluster, _, _ := b.Location(hw); return cluster }
	clustered := b.CoresPerCluster > 1
	cores, clusters, last := runs(cpus, coreOf), 0, 0
	if clustered {
		clusters = runs(cpus, clusterOf)
	}
	if len(cpus) > 0 {
		last = cpus[len(cpus)-1]
	}

	resources := 3 + len(p.IOmask) + clusters + cores + len(cpus)
	arena := mrapi.NewTreeArena(resources, 4+2*cores+2*len(cpus), resources-1)
	var names treeNames
	names.sb.Grow(nameBytes(clusters, len("cluster-"), clusterOf(last)) +
		nameBytes(cores, len(b.CoreModel)+1, coreOf(last)) +
		nameBytes(len(cpus), len("cpu"), last))
	mhz, memMB := any(b.FreqMHz), any(p.MemMB)
	online := b.onlineAttr

	root := arena.NewResource(b.Name+"/"+p.Name, mrapi.ResSystem, 3, 1)
	root.SetAttr("guest", string(p.Guest))
	root.SetAttr("mhz", mhz)
	root.SetAttr("mem_mb", memMB)

	processors := cores // the fabric's processor children: cores, or their clusters
	if clustered {
		processors = clusters
	}
	fabric := root.AddChild(arena.NewResource(b.Fabric, mrapi.ResFabric, 0, 1+len(p.IOmask)+processors))
	mem := arena.NewResource("DDR-share", mrapi.ResMemory, 1, 0)
	mem.SetAttr("size_mb", memMB)
	fabric.AddChild(mem)
	for _, dev := range p.IOmask {
		fabric.AddChild(arena.NewResource(dev, mrapi.ResAccelerator, 0, 0))
	}

	for rest := cpus; len(rest) > 0; {
		parent, group := fabric, rest
		if clustered {
			group = leadingRun(rest, clusterOf)
			parent = fabric.AddChild(arena.NewResource(names.make("cluster", "-", clusterOf(group[0])),
				mrapi.ResCluster, 0, runs(group, coreOf)))
		}
		for threads := group; len(threads) > 0; {
			core := leadingRun(threads, coreOf)
			coreIdx := coreOf(core[0])
			cpu := arena.NewResource(names.make(b.CoreModel, "-", coreIdx), mrapi.ResCPU, 2, len(core))
			cpu.SetAttr("index", coreIdx)
			cpu.SetAttr("mhz", mhz)
			for _, hw := range core {
				addHWThread(&arena, &names, cpu, online, hw)
			}
			parent.AddChild(cpu)
			threads = threads[len(core):]
		}
		rest = rest[len(group):]
	}
	return root
}

// ProcessorsOnline counts the partition's online hardware threads, as
// its tree's "online" attributes would read, without building the tree.
func (p *Partition) ProcessorsOnline() int {
	return p.board.onlineOf(p.CPUs)
}

// leadingRun returns the longest prefix of s whose elements share
// key(s[0]).
func leadingRun(s []int, key func(int) int) []int {
	n := 1
	for n < len(s) && key(s[n]) == key(s[0]) {
		n++
	}
	return s[:n]
}

// runs counts the runs of equal key in s.
func runs(s []int, key func(int) int) int {
	n := 0
	for rest := s; len(rest) > 0; rest = rest[len(leadingRun(rest, key)):] {
		n++
	}
	return n
}

// PartitionSystem builds an MRAPI universe scoped to the partition —
// the universe a guest OS's MCA-backed OpenMP runtime binds to. Like
// Board.NewSystem, it builds no tree until a ResourcesGet asks for one.
func (h *Hypervisor) PartitionSystem(name string) (*mrapi.System, error) {
	p, err := h.Partition(name)
	if err != nil {
		return nil, err
	}
	return mrapi.NewSystemFrom(p), nil
}
