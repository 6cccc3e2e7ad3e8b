package mrapi

import (
	"errors"
	"strings"
	"testing"
)

// miniTree builds a 2-core, 4-hwthread resource tree for tests.
func miniTree() *Resource {
	root := NewResource("testboard", ResSystem)
	root.SetAttr("cores", 2)
	for c := 0; c < 2; c++ {
		cpu := NewResource("core", ResCPU)
		cpu.SetAttr("index", c)
		cpu.SetAttr("mhz", 1800)
		for h := 0; h < 2; h++ {
			hw := NewResource("hwthread", ResHWThread)
			hw.SetAttr("index", c*2+h)
			hw.SetAttr("online", true)
			cpu.AddChild(hw)
		}
		root.AddChild(cpu)
	}
	return root
}

func TestResourcesGet(t *testing.T) {
	sys := NewSystem(miniTree())
	n, _ := sys.Initialize(1, 1, nil)
	root, err := n.ResourcesGet()
	if err != nil {
		t.Fatal(err)
	}
	if root.Name != "testboard" {
		t.Errorf("root = %q", root.Name)
	}
	if got := root.Count(ResCPU); got != 2 {
		t.Errorf("CPU count = %d, want 2", got)
	}
	if got := root.Count(ResHWThread); got != 4 {
		t.Errorf("hwthread count = %d, want 4", got)
	}
}

func TestResourcesGetWithoutMetadata(t *testing.T) {
	sys := NewSystem(nil)
	n, _ := sys.Initialize(1, 1, nil)
	if _, err := n.ResourcesGet(); !errors.Is(err, ErrResourceInvalid) {
		t.Errorf("no metadata = %v, want ErrResourceInvalid", err)
	}
	if got := n.ProcessorsOnline(); got != 1 {
		t.Errorf("ProcessorsOnline fallback = %d, want 1", got)
	}
}

func TestProcessorsOnline(t *testing.T) {
	tree := miniTree()
	sys := NewSystem(tree)
	n, _ := sys.Initialize(1, 1, nil)
	if got := n.ProcessorsOnline(); got != 4 {
		t.Errorf("ProcessorsOnline = %d, want 4", got)
	}
	// Take one hardware thread offline; the dynamic view must shrink.
	hw := tree.Filter(ResHWThread)[3]
	hw.SetAttr("online", false)
	if got := n.ProcessorsOnline(); got != 3 {
		t.Errorf("ProcessorsOnline after offline = %d, want 3", got)
	}
}

func TestDynamicAttr(t *testing.T) {
	r := NewResource("sensor", ResCPU)
	temp := 40
	r.SetDynamicAttr("celsius", func(any) any { return temp }, nil)
	if v, ok := r.Attr("celsius"); !ok || v.(int) != 40 {
		t.Errorf("dynamic attr = %v, %v", v, ok)
	}
	temp = 55
	if v, _ := r.Attr("celsius"); v.(int) != 55 {
		t.Errorf("dynamic attr not live: %v", v)
	}
	if _, ok := r.Attr("missing"); ok {
		t.Error("missing attr should report !ok")
	}
}

func TestRenderContainsHierarchy(t *testing.T) {
	out := miniTree().Render()
	for _, want := range []string{"testboard [system]", "core [cpu]", "hwthread [hwthread]", "mhz=1800"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	// Children are indented below parents.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasPrefix(lines[1], "  ") {
		t.Errorf("child not indented: %q", lines[1])
	}
}

func TestAttrNamesSorted(t *testing.T) {
	r := NewResource("x", ResCPU)
	r.SetAttr("zeta", 1)
	r.SetAttr("alpha", 2)
	r.SetDynamicAttr("mid", func(arg any) any { return arg }, 3)
	names := r.AttrNames()
	want := []string{"alpha", "mid", "zeta"}
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names = %v, want %v", names, want)
			break
		}
	}
}

func TestResourceTypeString(t *testing.T) {
	if ResCluster.String() != "cluster" || ResFabric.String() != "fabric" {
		t.Error("resource type names wrong")
	}
	if got := ResourceType(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown type = %q", got)
	}
}

func TestSetAttrReplaces(t *testing.T) {
	r := NewResource("x", ResHWThread)
	r.SetAttr("online", true)
	r.SetDynamicAttr("online", func(any) any { return false }, nil)
	if names := r.AttrNames(); len(names) != 1 || names[0] != "online" {
		t.Errorf("names = %v, want one slot", names)
	}
	if v, _ := r.Attr("online"); v != false {
		t.Errorf("online = %v, want the getter's false", v)
	}
	r.SetAttr("online", true)
	if v, _ := r.Attr("online"); v != true {
		t.Errorf("online = %v, want the static true", v)
	}
}

// arenaMiniTree is miniTree built from a TreeArena holding room for
// resources nodes (miniTree has 7).
func arenaMiniTree(resources int) *Resource {
	a := NewTreeArena(resources, 1+2*2+2*2*2, resources-1)
	root := a.NewResource("testboard", ResSystem, 1, 2)
	root.SetAttr("cores", 2)
	for c := 0; c < 2; c++ {
		cpu := a.NewResource("core", ResCPU, 2, 2)
		cpu.SetAttr("mhz", 1800)
		cpu.SetAttr("index", c)
		for h := 0; h < 2; h++ {
			hw := a.NewResource("hwthread", ResHWThread, 2, 0)
			hw.SetAttr("online", true)
			hw.SetAttr("index", c*2+h)
			cpu.AddChild(hw)
		}
		root.AddChild(cpu)
	}
	return root
}

func TestTreeArenaBuildsSameTree(t *testing.T) {
	want := miniTree().Render()
	// Exactly sized, and short of room: a miscount costs allocations,
	// never a different tree.
	for _, resources := range []int{7, 3} {
		if got := arenaMiniTree(resources).Render(); got != want {
			t.Errorf("arena of %d resources:\n%s\nwant:\n%s", resources, got, want)
		}
	}
	if n := testing.AllocsPerRun(20, func() { arenaMiniTree(7) }); n > 3 {
		t.Errorf("an exactly sized arena tree allocates %.0f objects, want 3", n)
	}
}
