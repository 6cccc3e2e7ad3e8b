// Package platform models the embedded boards the paper targets: the
// Freescale QorIQ T4240RDB (the evaluation platform) and the P4080DS (the
// predecessor used in the paper's §4C comparison). The model covers the
// processor topology — clusters, cores, SMT hardware threads, the cache
// hierarchy and the CoreNet coherency fabric — plus the cost parameters the
// virtual-time performance model consumes, the MRAPI metadata resource
// tree, and the embedded hypervisor partitioning of Figure 2.
package platform

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"openmpmca/internal/mrapi"
)

// CacheSpec describes one cache level.
type CacheSpec struct {
	// Level is 1, 2 or 3.
	Level int
	// SizeKB is the capacity in KiB (per sharing group).
	SizeKB int
	// LatencyCycles is the load-to-use latency in core cycles.
	LatencyCycles int
	// SharedBy names the sharing scope: "core", "cluster" or "chip".
	SharedBy string
}

func (c CacheSpec) String() string {
	return fmt.Sprintf("L%d %dKB (%s, %d cyc)", c.Level, c.SizeKB, c.SharedBy, c.LatencyCycles)
}

// Board is the static description of a modeled multicore embedded platform.
type Board struct {
	// Name is the product name ("T4240RDB", "P4080DS").
	Name string
	// CoreModel names the PowerPC core ("e6500", "e500mc").
	CoreModel string
	// ISA is the Power ISA compliance level.
	ISA string
	// Cores is the number of physical cores.
	Cores int
	// ThreadsPerCore is the SMT width (e6500: 2, e500mc: 1).
	ThreadsPerCore int
	// CoresPerCluster groups cores into clusters sharing an L2; 0 or 1
	// means cores attach to the fabric directly (P4080 style).
	CoresPerCluster int
	// FreqMHz is the core clock.
	FreqMHz int
	// ProcessNm is the manufacturing process node.
	ProcessNm int
	// Caches lists the hierarchy from L1 down.
	Caches []CacheSpec
	// Fabric names the coherency interconnect.
	Fabric string
	// DDRControllers is the number of memory controllers.
	DDRControllers int
	// MemMB is the installed DRAM.
	MemMB int
	// MemBandwidthGBs is the aggregate DRAM bandwidth in GB/s, consumed by
	// the performance model's memory-contention term.
	MemBandwidthGBs float64
	// SIMD names the vector unit, if any ("AltiVec").
	SIMD string
	// SIMDGflops is the per-core peak of the vector unit.
	SIMDGflops float64
	// Accelerators lists data-path engines on the SoC.
	Accelerators []string
	// Hypervisor reports embedded-hypervisor support (Fig. 2).
	Hypervisor bool

	// SMTYield is the marginal throughput of a core's second hardware
	// thread relative to the first, for compute-bound code. The e6500
	// shares its execution pipes between two threads; one thread does not
	// saturate them, so the second yields roughly half again.
	SMTYield float64
	// BarrierBaseNs and BarrierPerThreadNs parameterize the cost of a
	// full-team synchronization on the board's fabric.
	BarrierBaseNs, BarrierPerThreadNs float64
	// ForkBaseNs and ForkPerThreadNs parameterize team fork+join cost.
	ForkBaseNs, ForkPerThreadNs float64
	// CrossClusterPenalty multiplies synchronization cost when a team
	// spans more than one cluster (traffic crosses CoreNet instead of
	// staying inside a shared L2).
	CrossClusterPenalty float64

	// hotplug state: hardware threads taken offline at runtime. The
	// metadata resource tree exposes this through dynamic "online"
	// attributes, so MRAPI consumers observe hotplug live (§5B4's
	// "available number of processors online").
	hotplugMu sync.Mutex
	offline   map[int]bool
}

// SetOnline brings a hardware thread on- or offline (CPU hotplug). The
// index must be on the board; thread 0 (the boot CPU) cannot go offline,
// as on Linux.
func (b *Board) SetOnline(hwThread int, online bool) error {
	if hwThread < 0 || hwThread >= b.HWThreads() {
		return fmt.Errorf("platform: %s has no cpu%d", b.Name, hwThread)
	}
	if hwThread == 0 && !online {
		return fmt.Errorf("platform: cpu0 cannot go offline")
	}
	b.hotplugMu.Lock()
	defer b.hotplugMu.Unlock()
	if b.offline == nil {
		b.offline = make(map[int]bool)
	}
	if online {
		delete(b.offline, hwThread)
	} else {
		b.offline[hwThread] = true
	}
	return nil
}

// Online reports whether a hardware thread is online.
func (b *Board) Online(hwThread int) bool {
	b.hotplugMu.Lock()
	defer b.hotplugMu.Unlock()
	return !b.offline[hwThread]
}

// OnlineCount reports the number of online hardware threads as the
// board's metadata tree carries them (§5B4): the tree's hardware threads,
// less those whose "online" attribute reads false.
func (b *Board) OnlineCount() int {
	b.hotplugMu.Lock()
	defer b.hotplugMu.Unlock()
	// SetOnline takes only threads on the board offline, and each of them
	// is in the tree.
	return b.treeCores()*b.ThreadsPerCore - len(b.offline)
}

// onlineOf counts the online hardware threads among cpus.
func (b *Board) onlineOf(cpus []int) int {
	b.hotplugMu.Lock()
	defer b.hotplugMu.Unlock()
	n := 0
	for _, hw := range cpus {
		if !b.offline[hw] {
			n++
		}
	}
	return n
}

// ProcessorsOnline is OnlineCount, counted without building the tree. With
// ResourceTree it makes a Board the mrapi.Metadata of the systems
// NewSystem creates.
func (b *Board) ProcessorsOnline() int { return b.OnlineCount() }

// T4240RDB returns the paper's evaluation platform: twelve dual-threaded
// PowerPC e6500 cores at 1.8 GHz in three clusters of four, each cluster
// sharing a multibank 2 MB L2, all clusters joined by the CoreNet fabric
// with a 1.5 MB CoreNet platform (L3) cache (paper §4A, Figure 1).
func T4240RDB() *Board {
	return &Board{
		Name:            "T4240RDB",
		CoreModel:       "e6500",
		ISA:             "Power ISA v2.06",
		Cores:           12,
		ThreadsPerCore:  2,
		CoresPerCluster: 4,
		FreqMHz:         1800,
		ProcessNm:       28,
		Caches: []CacheSpec{
			{Level: 1, SizeKB: 32, LatencyCycles: 3, SharedBy: "core"},
			{Level: 2, SizeKB: 2048, LatencyCycles: 11, SharedBy: "cluster"},
			{Level: 3, SizeKB: 1536, LatencyCycles: 40, SharedBy: "chip"},
		},
		Fabric:          "CoreNet",
		DDRControllers:  3,
		MemMB:           6144,
		MemBandwidthGBs: 38.4, // 3 × DDR3-1866 channels
		SIMD:            "AltiVec",
		SIMDGflops:      16,
		Accelerators:    []string{"DPAA", "SEC 5.0", "PME 2.1", "DCE 1.0", "RMan"},
		Hypervisor:      true,

		SMTYield:            0.55,
		BarrierBaseNs:       900,
		BarrierPerThreadNs:  110,
		ForkBaseNs:          2600,
		ForkPerThreadNs:     260,
		CrossClusterPenalty: 1.35,
	}
}

// P4080DS returns the predecessor platform of the paper's earlier work
// (§4C): eight single-threaded e500mc cores, each with a private 128 KB
// backside L2, attached directly to CoreNet.
func P4080DS() *Board {
	return &Board{
		Name:            "P4080DS",
		CoreModel:       "e500mc",
		ISA:             "Power ISA v2.06",
		Cores:           8,
		ThreadsPerCore:  1,
		CoresPerCluster: 0, // cores attach to the fabric directly
		FreqMHz:         1500,
		ProcessNm:       45,
		Caches: []CacheSpec{
			{Level: 1, SizeKB: 32, LatencyCycles: 3, SharedBy: "core"},
			{Level: 2, SizeKB: 128, LatencyCycles: 9, SharedBy: "core"},
			{Level: 3, SizeKB: 2048, LatencyCycles: 45, SharedBy: "chip"},
		},
		Fabric:          "CoreNet",
		DDRControllers:  2,
		MemMB:           4096,
		MemBandwidthGBs: 17.0,
		SIMD:            "",
		SIMDGflops:      0,
		Accelerators:    []string{"DPAA", "SEC 4.2", "PME"},
		Hypervisor:      true,

		SMTYield:            0, // no SMT
		BarrierBaseNs:       1100,
		BarrierPerThreadNs:  140,
		ForkBaseNs:          3100,
		ForkPerThreadNs:     320,
		CrossClusterPenalty: 1.0, // flat topology: every sync crosses the fabric
	}
}

// HWThreads returns the total number of hardware threads (virtual CPUs).
func (b *Board) HWThreads() int { return b.Cores * b.ThreadsPerCore }

// Clusters returns the number of core clusters (1 for flat topologies).
func (b *Board) Clusters() int {
	if b.CoresPerCluster <= 1 {
		return 1
	}
	return (b.Cores + b.CoresPerCluster - 1) / b.CoresPerCluster
}

// Location resolves a hardware-thread index to its (cluster, core, smt)
// coordinates. Hardware threads are numbered core-major: thread t lives on
// core t/ThreadsPerCore, SMT slot t%ThreadsPerCore — the Linux CPU
// numbering the T4240 kernel exposes.
func (b *Board) Location(hwThread int) (cluster, core, smt int) {
	core = hwThread / b.ThreadsPerCore
	smt = hwThread % b.ThreadsPerCore
	if b.CoresPerCluster > 1 {
		cluster = core / b.CoresPerCluster
	}
	return cluster, core, smt
}

// CyclesPerSecond returns the core clock in Hz.
func (b *Board) CyclesPerSecond() float64 { return float64(b.FreqMHz) * 1e6 }

// ClusterCPUs returns the hardware-thread indices belonging to one
// cluster, in ascending order — the natural partition grain for carving a
// board into hypervisor-isolated runtime domains, since a cluster-aligned
// partition keeps its team's synchronization inside the shared L2. For
// flat topologies cluster 0 covers the whole board.
func (b *Board) ClusterCPUs(cluster int) ([]int, error) {
	if cluster < 0 || cluster >= b.Clusters() {
		return nil, fmt.Errorf("platform: %s has no cluster %d", b.Name, cluster)
	}
	if b.CoresPerCluster <= 1 {
		all := make([]int, b.HWThreads())
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	var out []int
	for c := cluster * b.CoresPerCluster; c < (cluster+1)*b.CoresPerCluster && c < b.Cores; c++ {
		for s := 0; s < b.ThreadsPerCore; s++ {
			out = append(out, c*b.ThreadsPerCore+s)
		}
	}
	return out, nil
}

// Validate checks the board description for internal consistency.
func (b *Board) Validate() error {
	switch {
	case b.Cores <= 0:
		return fmt.Errorf("platform: %s: no cores", b.Name)
	case b.ThreadsPerCore <= 0:
		return fmt.Errorf("platform: %s: ThreadsPerCore must be >= 1", b.Name)
	case b.FreqMHz <= 0:
		return fmt.Errorf("platform: %s: bad frequency", b.Name)
	case b.CoresPerCluster > 1 && b.Cores%b.CoresPerCluster != 0:
		return fmt.Errorf("platform: %s: %d cores do not fill clusters of %d",
			b.Name, b.Cores, b.CoresPerCluster)
	case b.ThreadsPerCore > 1 && (b.SMTYield <= 0 || b.SMTYield > 1):
		return fmt.Errorf("platform: %s: SMTYield %v out of (0,1]", b.Name, b.SMTYield)
	}
	return nil
}

// ResourceTree builds the MRAPI system metadata tree for the board — the
// structure mrapi_resources_get hands to the runtime (§5B4). Each hardware
// thread carries a dynamic "online" attribute backed by the board's
// online-mask so metadata consumers observe hotplug.
//
// The tree is counted first, then built from one arena and one names
// buffer, with each distinct attribute value boxed once: a runtime boot
// pays for its nodes and threads, not for describing the board.
func (b *Board) ResourceTree() *mrapi.Resource {
	clusters, cores := 0, b.treeCores()
	if b.CoresPerCluster > 1 {
		clusters = b.Clusters()
	}
	hwThreads := cores * b.ThreadsPerCore
	simd := 0
	if b.SIMD != "" {
		simd = 1
	}

	// Each cache level's name and boxed values, shared by all its copies.
	type cacheAttrs struct {
		name            string
		sizeKB, latency any
	}
	caches := make([]cacheAttrs, len(b.Caches))
	var chipCaches, clusterCaches, coreCaches, cacheNameBytes int
	for _, c := range b.Caches {
		switch c.SharedBy {
		case "chip":
			chipCaches++
		case "cluster":
			clusterCaches++
		case "core":
			coreCaches++
		}
		cacheNameBytes += nameBytes(1, len("L"), c.Level)
	}
	resources := 2 + chipCaches + b.DDRControllers + len(b.Accelerators) +
		clusters*(1+clusterCaches) + cores*(1+coreCaches) + hwThreads
	attrs := 5 + 2*chipCaches + b.DDRControllers + 2*clusters*clusterCaches +
		cores*(2+simd+coreCaches) + 2*hwThreads
	arena := mrapi.NewTreeArena(resources, attrs, resources-1)

	var names treeNames
	names.sb.Grow(cacheNameBytes +
		nameBytes(b.DDRControllers, len("DDR"), b.DDRControllers) +
		nameBytes(clusters, len("cluster-"), clusters) +
		nameBytes(cores, len(b.CoreModel)+1, cores) +
		nameBytes(hwThreads, len("cpu"), hwThreads))
	for i, c := range b.Caches {
		caches[i] = cacheAttrs{names.make("L", "", c.Level), c.SizeKB, c.LatencyCycles}
	}
	mhz := any(b.FreqMHz)

	root := arena.NewResource(b.Name, mrapi.ResSystem, 5, 1)
	root.SetAttr("core_model", b.CoreModel)
	root.SetAttr("isa", b.ISA)
	root.SetAttr("mhz", mhz)
	root.SetAttr("process_nm", b.ProcessNm)
	root.SetAttr("mem_mb", b.MemMB)

	processors := cores // the fabric's processor children: cores, or their clusters
	if clusters > 0 {
		processors = clusters
	}
	fabric := root.AddChild(arena.NewResource(b.Fabric, mrapi.ResFabric,
		0, chipCaches+b.DDRControllers+len(b.Accelerators)+processors))
	for i, c := range b.Caches {
		if c.SharedBy == "chip" {
			l3 := arena.NewResource(caches[i].name, mrapi.ResCache, 2, 0)
			l3.SetAttr("size_kb", caches[i].sizeKB)
			l3.SetAttr("latency_cycles", caches[i].latency)
			fabric.AddChild(l3)
		}
	}
	if b.DDRControllers > 0 {
		share := any(b.MemMB / b.DDRControllers)
		for d := 0; d < b.DDRControllers; d++ {
			mem := arena.NewResource(names.make("DDR", "", d+1), mrapi.ResMemory, 1, 0)
			mem.SetAttr("size_mb", share)
			fabric.AddChild(mem)
		}
	}
	for _, acc := range b.Accelerators {
		fabric.AddChild(arena.NewResource(acc, mrapi.ResAccelerator, 0, 0))
	}

	simdName := any(b.SIMD)
	online := b.onlineAttr
	addCore := func(parent *mrapi.Resource, coreIdx int) {
		cpu := arena.NewResource(names.make(b.CoreModel, "-", coreIdx), mrapi.ResCPU,
			2+simd, coreCaches+b.ThreadsPerCore)
		cpu.SetAttr("index", coreIdx)
		cpu.SetAttr("mhz", mhz)
		if simd > 0 {
			cpu.SetAttr("simd", simdName)
		}
		for i, c := range b.Caches {
			if c.SharedBy == "core" {
				cache := arena.NewResource(caches[i].name, mrapi.ResCache, 1, 0)
				cache.SetAttr("size_kb", caches[i].sizeKB)
				cpu.AddChild(cache)
			}
		}
		for s := 0; s < b.ThreadsPerCore; s++ {
			addHWThread(&arena, &names, cpu, online, coreIdx*b.ThreadsPerCore+s)
		}
		parent.AddChild(cpu)
	}

	if clusters > 0 {
		banks := any(b.CoresPerCluster)
		for cl := 0; cl < clusters; cl++ {
			cluster := arena.NewResource(names.make("cluster", "-", cl), mrapi.ResCluster,
				0, clusterCaches+b.CoresPerCluster)
			for i, c := range b.Caches {
				if c.SharedBy == "cluster" {
					l2 := arena.NewResource(caches[i].name, mrapi.ResCache, 2, 0)
					l2.SetAttr("size_kb", caches[i].sizeKB)
					l2.SetAttr("banks", banks)
					cluster.AddChild(l2)
				}
			}
			for c := 0; c < b.CoresPerCluster; c++ {
				addCore(cluster, cl*b.CoresPerCluster+c)
			}
			fabric.AddChild(cluster)
		}
	} else {
		for c := 0; c < b.Cores; c++ {
			addCore(fabric, c)
		}
	}
	return root
}

// addHWThread adds hardware thread hwIdx under cpu, with its static index
// and its "online" attribute read live as online(index): one getter, a
// tree's only closure, serves all its threads.
func addHWThread(arena *mrapi.TreeArena, names *treeNames, cpu *mrapi.Resource, online func(any) any, hwIdx int) {
	hw := arena.NewResource(names.make("cpu", "", hwIdx), mrapi.ResHWThread, 2, 0)
	index := any(hwIdx)
	hw.SetAttr("index", index)
	hw.SetDynamicAttr("online", online, index)
	cpu.AddChild(hw)
}

// onlineAttr is Online as a dynamic attribute's getter, whose argument
// is the hardware thread's index.
func (b *Board) onlineAttr(hwThread any) any { return b.Online(hwThread.(int)) }

// treeNames builds one tree's generated resource names ("cpu12",
// "cluster-2") into one buffer, so they cost one allocation rather than
// one each. A name stays valid as the buffer grows: a strings.Builder
// never rewrites the bytes it has handed out.
type treeNames struct{ sb strings.Builder }

// make returns prefix, sep and the decimal n, as one name.
func (t *treeNames) make(prefix, sep string, n int) string {
	start := t.sb.Len()
	t.sb.WriteString(prefix)
	t.sb.WriteString(sep)
	var digits [20]byte
	t.sb.Write(strconv.AppendInt(digits[:0], int64(n), 10))
	return t.sb.String()[start:]
}

// nameBytes bounds the bytes of count names, each a prefix of prefixLen
// bytes followed by a decimal no larger than maxN.
func nameBytes(count, prefixLen, maxN int) int {
	digits := 1
	for ; maxN >= 10; maxN /= 10 {
		digits++
	}
	return count * (prefixLen + digits)
}

// treeCores is the number of cores the metadata tree carries: with
// clusters, every cluster is full, so a partial last one is padded out.
func (b *Board) treeCores() int {
	if b.CoresPerCluster > 1 {
		return b.Clusters() * b.CoresPerCluster
	}
	return b.Cores
}

// NewSystem creates a fresh MRAPI universe whose metadata is this board —
// the standard way the MCA thread layer binds to a board. The universe
// builds the board's tree on its first ResourcesGet and not before: a
// boot that only counts processors never builds one.
func (b *Board) NewSystem() *mrapi.System {
	return mrapi.NewSystemFrom(b)
}

// BlockDiagram renders an ASCII rendition of the paper's Figure 1: the
// cluster/core/cache structure around the coherency fabric.
func (b *Board) BlockDiagram() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %d× %s @ %.1f GHz (%d hardware threads, %dnm)\n",
		b.Name, b.Cores, b.CoreModel, float64(b.FreqMHz)/1000, b.HWThreads(), b.ProcessNm)
	sb.WriteString(strings.Repeat("=", 64) + "\n")
	if b.CoresPerCluster > 1 {
		for cl := 0; cl < b.Clusters(); cl++ {
			fmt.Fprintf(&sb, "+-- cluster %d ", cl)
			sb.WriteString(strings.Repeat("-", 40) + "\n")
			for c := 0; c < b.CoresPerCluster; c++ {
				core := cl*b.CoresPerCluster + c
				fmt.Fprintf(&sb, "|   %s[%2d]  smt:", b.CoreModel, core)
				for s := 0; s < b.ThreadsPerCore; s++ {
					fmt.Fprintf(&sb, " cpu%-2d", core*b.ThreadsPerCore+s)
				}
				for _, cs := range b.Caches {
					if cs.SharedBy == "core" {
						fmt.Fprintf(&sb, "  %s", cs)
					}
				}
				sb.WriteString("\n")
			}
			for _, cs := range b.Caches {
				if cs.SharedBy == "cluster" {
					fmt.Fprintf(&sb, "|   shared %s\n", cs)
				}
			}
			sb.WriteString("+" + strings.Repeat("-", 52) + "\n")
		}
	} else {
		for c := 0; c < b.Cores; c++ {
			fmt.Fprintf(&sb, "| %s[%d]", b.CoreModel, c)
			for _, cs := range b.Caches {
				if cs.SharedBy == "core" {
					fmt.Fprintf(&sb, "  %s", cs)
				}
			}
			sb.WriteString("\n")
		}
	}
	fmt.Fprintf(&sb, "=== %s coherency fabric ===\n", b.Fabric)
	for _, cs := range b.Caches {
		if cs.SharedBy == "chip" {
			fmt.Fprintf(&sb, "  platform cache: %s\n", cs)
		}
	}
	fmt.Fprintf(&sb, "  memory: %d× DDR controller, %d MB total, %.1f GB/s\n",
		b.DDRControllers, b.MemMB, b.MemBandwidthGBs)
	if len(b.Accelerators) > 0 {
		fmt.Fprintf(&sb, "  accelerators: %s\n", strings.Join(b.Accelerators, ", "))
	}
	return sb.String()
}

// Compare renders the §4C side-by-side comparison of two boards.
func Compare(a, b *Board) string {
	row := func(label string, va, vb any) string {
		return fmt.Sprintf("%-22s %-22v %-22v\n", label, va, vb)
	}
	var sb strings.Builder
	sb.WriteString(row("", a.Name, b.Name))
	sb.WriteString(strings.Repeat("-", 66) + "\n")
	sb.WriteString(row("core", a.CoreModel, b.CoreModel))
	sb.WriteString(row("cores", a.Cores, b.Cores))
	sb.WriteString(row("threads/core", a.ThreadsPerCore, b.ThreadsPerCore))
	sb.WriteString(row("hw threads", a.HWThreads(), b.HWThreads()))
	sb.WriteString(row("clock (MHz)", a.FreqMHz, b.FreqMHz))
	sb.WriteString(row("clusters", a.Clusters(), b.Clusters()))
	for i := 0; i < len(a.Caches) && i < len(b.Caches); i++ {
		sb.WriteString(row(fmt.Sprintf("L%d", a.Caches[i].Level), a.Caches[i], b.Caches[i]))
	}
	sb.WriteString(row("fabric", a.Fabric, b.Fabric))
	sb.WriteString(row("process (nm)", a.ProcessNm, b.ProcessNm))
	return sb.String()
}
