package platform

import (
	"os"
	"path/filepath"
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
func TestResourceTreeGolden(t *testing.T) {
	trees := map[string]*mrapi.Resource{
		"T4240RDB": T4240RDB().ResourceTree(),
		"P4080DS":  P4080DS().ResourceTree(),
	}
	h := figure2(t)
	for _, name := range []string{"control-plane", "data-plane", "realtime"} {
		tree, err := h.PartitionResourceTree(name)
		if err != nil {
			t.Fatal(err)
		}
		trees[name] = tree
	}
	for name, tree := range trees {
		want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.Render(); got != string(want) {
			t.Errorf("%s tree:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestNewSystemAllocs bounds what a board's MRAPI universe costs to
// build: one arena, one names buffer, one box per distinct attribute value
// and one "online" getter per hardware thread.
func TestNewSystemAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { T4240RDB().NewSystem() }); n > 100 {
		t.Errorf("T4240RDB().NewSystem() allocates %.0f objects, want <= 100", n)
	}
}

// TestPartitionSystemAllocs is TestNewSystemAllocs for one Figure 2
// partition.
func TestPartitionSystemAllocs(t *testing.T) {
	h := figure2(t)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := h.PartitionSystem("control-plane"); err != nil {
			t.Fatal(err)
		}
	}); n > 40 {
		t.Errorf("PartitionSystem(control-plane) allocates %.0f objects, want <= 40", n)
	}
}

// TestHotplugIsPerBoard: every tree reads "online" live from its own
// board, so one board's hotplug shows through its System and no other.
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
}
