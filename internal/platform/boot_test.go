package platform

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"openmpmca/internal/mrapi"
)

// figure2 partitions a T4240RDB as cmd/ompmca-info draws the paper's
// Figure 2: a Linux control plane, a bare-metal data plane and an RTOS.
func figure2(t *testing.T) *Hypervisor {
	t.Helper()
	h := newHV(t)
	for _, p := range []struct {
		name  string
		guest GuestOS
		cpus  []int
		memMB int
		io    []string
	}{
		{"control-plane", GuestLinux, []int{0, 1, 2, 3, 4, 5, 6, 7}, 2048, []string{"eth0"}},
		{"data-plane", GuestBareMetal, []int{8, 9, 10, 11, 12, 13, 14, 15}, 2048, []string{"dpaa0"}},
		{"realtime", GuestRTOS, []int{16, 17, 18, 19}, 1024, nil},
	} {
		if _, err := h.CreatePartition(p.name, p.guest, p.cpus, p.memMB, p.io...); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestResourceTreeGolden pins every tree's Render to testdata/*.golden:
// how a tree is built may change what it costs, never what it describes.
// A board's or partition's tree is pinned both as it is built directly
// and as its System materializes it on the first ResourcesGet.
func TestResourceTreeGolden(t *testing.T) {
	type tree struct {
		golden string
		root   *mrapi.Resource
	}
	var trees []tree
	for _, b := range []*Board{T4240RDB(), P4080DS()} {
		trees = append(trees, tree{b.Name, b.ResourceTree()}, tree{b.Name, resourcesGet(t, b.NewSystem())})
	}
	h := figure2(t)
	for _, name := range []string{"control-plane", "data-plane", "realtime"} {
		root, err := h.PartitionResourceTree(name)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := h.PartitionSystem(name)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree{name, root}, tree{name, resourcesGet(t, sys)})
	}
	for _, tr := range trees {
		want, err := os.ReadFile(filepath.Join("testdata", tr.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.root.Render(); got != string(want) {
			t.Errorf("%s tree:\n%s\nwant:\n%s", tr.golden, got, want)
		}
	}
}

// resourcesGet returns the tree a node of sys gets from ResourcesGet.
func resourcesGet(t *testing.T, sys *mrapi.System) *mrapi.Resource {
	t.Helper()
	node, err := sys.Initialize(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	root, err := node.ResourcesGet()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// systemSink keeps what an allocation pin builds on the heap, as a
// caller's use of it would.
var systemSink *mrapi.System

// TestNewSystemAllocs bounds what a board's MRAPI universe costs to
// create: the board and the System. The tree is built only when a
// ResourcesGet asks for it.
func TestNewSystemAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { systemSink = T4240RDB().NewSystem() }); n > 5 {
		t.Errorf("T4240RDB().NewSystem() allocates %.0f objects, want <= 5", n)
	}
}

// TestPartitionSystemAllocs is TestNewSystemAllocs for one Figure 2
// partition: the System alone, as the partition is its metadata.
func TestPartitionSystemAllocs(t *testing.T) {
	h := figure2(t)
	if n := testing.AllocsPerRun(20, func() {
		var err error
		if systemSink, err = h.PartitionSystem("control-plane"); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("PartitionSystem(control-plane) allocates %.0f objects, want <= 1", n)
	}
}

// treeSink keeps what a tree pin builds on the heap.
var treeSink *mrapi.Resource

// TestResourceTreeAllocs pins what a materialized tree costs: the
// arena's three slices, the names buffer, the boxed attribute values
// and one "online" getter serving every hardware thread, not a closure
// per thread.
func TestResourceTreeAllocs(t *testing.T) {
	b := T4240RDB()
	if n := testing.AllocsPerRun(20, func() { treeSink = b.ResourceTree() }); n > 14 {
		t.Errorf("T4240RDB ResourceTree allocates %.0f objects, want <= 14", n)
	}
	h := figure2(t)
	if n := testing.AllocsPerRun(20, func() {
		var err error
		if treeSink, err = h.PartitionResourceTree("data-plane"); err != nil {
			t.Fatal(err)
		}
	}); n > 9 {
		t.Errorf("PartitionResourceTree(data-plane) allocates %.0f objects, want <= 9", n)
	}
}

// onlineThreads counts the hardware threads of root whose "online"
// attribute reads true.
func onlineThreads(root *mrapi.Resource) int {
	n := 0
	for _, r := range root.Filter(mrapi.ResHWThread) {
		if v, _ := r.Attr("online"); v == true {
			n++
		}
	}
	return n
}

// TestPartitionOnlineCount: a partition's System counts its online
// hardware threads without building a tree, and the count equals what
// the tree it materializes reads, before and after a hotplug.
func TestPartitionOnlineCount(t *testing.T) {
	h := figure2(t)
	b := h.Board()
	for _, hw := range []int{3, 9} { // one in control-plane, one in data-plane
		if err := b.SetOnline(hw, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		online  int
		hotplug int // a thread of the partition to take offline next
	}{{"control-plane", 7, 6}, {"data-plane", 7, 15}, {"realtime", 4, 17}} {
		sys, err := h.PartitionSystem(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		node, err := sys.Initialize(1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := node.ProcessorsOnline(); got != tc.online {
			t.Errorf("%s: ProcessorsOnline = %d before any tree, want %d", tc.name, got, tc.online)
		}
		tree, err := node.ResourcesGet()
		if err != nil {
			t.Fatal(err)
		}
		if got := onlineThreads(tree); got != tc.online {
			t.Errorf("%s: materialized tree reads %d online, want %d", tc.name, got, tc.online)
		}
		if err := b.SetOnline(tc.hotplug, false); err != nil {
			t.Fatal(err)
		}
		p, err := h.Partition(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if counted, read := p.ProcessorsOnline(), onlineThreads(p.ResourceTree()); counted != tc.online-1 || read != counted {
			t.Errorf("%s after hotplug: counted %d, a fresh tree reads %d, want %d", tc.name, counted, read, tc.online-1)
		}
		if got := onlineThreads(tree); got != tc.online-1 {
			t.Errorf("%s after hotplug: materialized tree reads %d online, want %d", tc.name, got, tc.online-1)
		}
	}
}

// onlineAttr reads hardware thread hw's "online" attribute in root.
func onlineAttr(t *testing.T, root *mrapi.Resource, hw int) bool {
	t.Helper()
	for _, r := range root.Filter(mrapi.ResHWThread) {
		if idx, _ := r.Attr("index"); idx == hw {
			v, _ := r.Attr("online")
			return v.(bool)
		}
	}
	t.Fatalf("no cpu%d in %s", hw, root.Name)
	return false
}

// TestHotplugIsPerBoard: every tree reads "online" live from its own
// board, so one board's hotplug shows through its System and no other —
// counted before any tree exists, and read from the trees their Systems
// materialize.
func TestHotplugIsPerBoard(t *testing.T) {
	a, b := T4240RDB(), T4240RDB()
	nodeA, err := a.NewSystem().Initialize(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := b.NewSystem().Initialize(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetOnline(5, false); err != nil {
		t.Fatal(err)
	}
	if got := nodeA.ProcessorsOnline(); got != 23 {
		t.Errorf("hotplugged board: ProcessorsOnline = %d, want 23", got)
	}
	if got := nodeB.ProcessorsOnline(); got != 24 {
		t.Errorf("other board: ProcessorsOnline = %d, want 24", got)
	}

	treeA, err := nodeA.ResourcesGet()
	if err != nil {
		t.Fatal(err)
	}
	treeB, err := nodeB.ResourcesGet()
	if err != nil {
		t.Fatal(err)
	}
	if onlineAttr(t, treeA, 5) || !onlineAttr(t, treeA, 4) {
		t.Error("hotplugged board's tree: want cpu5 offline, cpu4 online")
	}
	if !onlineAttr(t, treeB, 5) {
		t.Error("other board's tree: cpu5 reads offline")
	}
	if err := b.SetOnline(7, false); err != nil {
		t.Fatal(err)
	}
	if !onlineAttr(t, treeA, 7) || onlineAttr(t, treeB, 7) {
		t.Error("cpu7 hotplug on one board: want it offline in that board's tree only")
	}
	if got := nodeA.ProcessorsOnline(); got != 23 {
		t.Errorf("hotplugged board, tree materialized: ProcessorsOnline = %d, want 23", got)
	}
	if got := nodeB.ProcessorsOnline(); got != 23 {
		t.Errorf("other board after its own hotplug: ProcessorsOnline = %d, want 23", got)
	}
}

// TestMutatedBoardGetsFreshTree: a board whose spec changes after a boot
// gets a tree of its new spec, and the change never reaches another board
// of its model.
func TestMutatedBoardGetsFreshTree(t *testing.T) {
	b := T4240RDB()
	if got := resourcesGet(t, b.NewSystem()).Count(mrapi.ResHWThread); got != 24 {
		t.Fatalf("first boot: %d hardware threads, want 24", got)
	}
	b.Cores = 8
	b.Caches[1].SizeKB = 4096 // in place: the board's own slice
	if err := b.SetOnline(3, false); err != nil {
		t.Fatal(err)
	}
	node, err := b.NewSystem().Initialize(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := node.ProcessorsOnline(); got != 15 {
		t.Errorf("mutated board: ProcessorsOnline = %d, want 15", got)
	}
	tree, err := node.ResourcesGet()
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Count(mrapi.ResHWThread); got != 16 {
		t.Errorf("mutated board's tree has %d hardware threads, want 16", got)
	}
	if got := tree.Count(mrapi.ResCluster); got != 2 {
		t.Errorf("mutated board's tree has %d clusters, want 2", got)
	}
	for _, c := range tree.Filter(mrapi.ResCache) {
		if c.Name == "L2" {
			if kb, _ := c.Attr("size_kb"); kb != 4096 {
				t.Errorf("mutated board's L2 size_kb = %v, want 4096", kb)
			}
		}
	}
	if onlineAttr(t, tree, 3) {
		t.Error("mutated board's tree: cpu3 reads online after its hotplug")
	}

	want, err := os.ReadFile(filepath.Join("testdata", "T4240RDB.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := resourcesGet(t, T4240RDB().NewSystem()).Render(); got != string(want) {
		t.Errorf("a fresh T4240RDB after another board's mutation:\n%s\nwant:\n%s", got, want)
	}
}

// TestConcurrentBoots: boards of one model boot from many goroutines at
// once, each System materializes its own tree once however many nodes
// ask, and every count reads its own board.
func TestConcurrentBoots(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := T4240RDB()
			if err := b.SetOnline(g+1, false); err != nil {
				t.Error(err)
				return
			}
			sys := b.NewSystem()
			trees := make([]*mrapi.Resource, 4)
			var inner sync.WaitGroup
			for i := range trees {
				inner.Add(1)
				go func() {
					defer inner.Done()
					node, err := sys.Initialize(1, mrapi.NodeID(i), nil)
					if err != nil {
						t.Error(err)
						return
					}
					if got := node.ProcessorsOnline(); got != 23 {
						t.Errorf("ProcessorsOnline = %d, want 23", got)
					}
					trees[i], _ = node.ResourcesGet()
				}()
			}
			inner.Wait()
			for _, tree := range trees[1:] {
				if tree != trees[0] {
					t.Error("one System materialized two trees")
				}
			}
			if trees[0] != nil && onlineAttr(t, trees[0], g+1) {
				t.Errorf("cpu%d reads online on the board that took it offline", g+1)
			}
		}()
	}
	wg.Wait()
}
