package mrapi

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// ResourceType classifies a node in the system resource metadata tree
// (mrapi_rsrc_type).
type ResourceType int

const (
	// ResSystem is the tree root.
	ResSystem ResourceType = iota
	// ResCPU is a physical core.
	ResCPU
	// ResHWThread is one SMT thread of a core.
	ResHWThread
	// ResCluster is a core cluster sharing a cache.
	ResCluster
	// ResCache is a cache (L1/L2/L3).
	ResCache
	// ResMemory is a DDR controller / memory bank.
	ResMemory
	// ResFabric is an on-chip interconnect (CoreNet).
	ResFabric
	// ResAccelerator is a specialized engine (DPAA, SEC, ...).
	ResAccelerator
	// ResCrossbar is an I/O crossbar or switch.
	ResCrossbar
)

var resourceTypeNames = [...]string{
	ResSystem:      "system",
	ResCPU:         "cpu",
	ResHWThread:    "hwthread",
	ResCluster:     "cluster",
	ResCache:       "cache",
	ResMemory:      "memory",
	ResFabric:      "fabric",
	ResAccelerator: "accelerator",
	ResCrossbar:    "crossbar",
}

func (t ResourceType) String() string {
	if int(t) < len(resourceTypeNames) {
		return resourceTypeNames[t]
	}
	return fmt.Sprintf("rsrc(%d)", int(t))
}

// Resource is one node of the MRAPI system resource metadata tree
// (mrapi_resource_t). Attributes may be static (core frequency) or dynamic
// (cores online); dynamic attributes are read through a getter so the
// platform model can expose live values.
type Resource struct {
	Name     string
	Type     ResourceType
	Children []*Resource

	mu    sync.RWMutex
	attrs []attr // sorted by name, one slot per name
}

// attr is one attribute slot: a static value, or, when get is set, a
// getter read as get(value) on each access.
type attr struct {
	name  string
	value any
	get   func(any) any
}

// NewResource creates a resource tree node.
func NewResource(name string, typ ResourceType) *Resource {
	return &Resource{Name: name, Type: typ}
}

// AddChild appends a child and returns it for chaining.
func (r *Resource) AddChild(c *Resource) *Resource {
	r.Children = append(r.Children, c)
	return c
}

// SetAttr sets a static attribute, replacing any attribute of that name.
func (r *Resource) SetAttr(name string, value any) {
	r.set(attr{name: name, value: value})
}

// SetDynamicAttr installs a live attribute whose value is fetched as
// get(arg) on each read (mrapi_dynamic_attributes), replacing any
// attribute of that name. arg lets one getter serve many resources, such
// as every hardware thread of a tree.
func (r *Resource) SetDynamicAttr(name string, get func(arg any) any, arg any) {
	r.set(attr{name: name, value: arg, get: get})
}

// set stores a in its sorted slot: in place over an attribute of the same
// name, otherwise inserted.
func (r *Resource) set(a attr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.find(a.name); ok {
		r.attrs[i] = a
	} else {
		r.attrs = slices.Insert(r.attrs, i, a)
	}
}

// find returns the slot of the named attribute, or where it would go.
// Callers hold r.mu.
func (r *Resource) find(name string) (int, bool) {
	return slices.BinarySearchFunc(r.attrs, name, func(a attr, name string) int {
		return strings.Compare(a.name, name)
	})
}

// Attr reads an attribute (static or dynamic). The boolean reports
// existence.
func (r *Resource) Attr(name string) (any, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, ok := r.find(name)
	if !ok {
		return nil, false
	}
	if a := &r.attrs[i]; a.get != nil {
		return a.get(a.value), true
	}
	return r.attrs[i].value, true
}

// AttrNames returns the sorted attribute names.
func (r *Resource) AttrNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, len(r.attrs))
	for i := range r.attrs {
		names[i] = r.attrs[i].name
	}
	return names
}

// Filter returns the subtree of resources matching the given type, as a
// flat slice in depth-first order (mrapi_resources_get with a subsystem
// filter).
func (r *Resource) Filter(typ ResourceType) []*Resource {
	var out []*Resource
	r.walk(func(n *Resource) {
		if n.Type == typ {
			out = append(out, n)
		}
	})
	return out
}

func (r *Resource) walk(f func(*Resource)) {
	f(r)
	for _, c := range r.Children {
		c.walk(f)
	}
}

// Count returns the number of resources of the given type in the tree.
func (r *Resource) Count(typ ResourceType) int { return len(r.Filter(typ)) }

// Render pretty-prints the tree, one resource per line, indented by depth —
// the format cmd/ompmca-info uses to regenerate the paper's Figure 1.
func (r *Resource) Render() string {
	var b strings.Builder
	r.render(&b, 0)
	return b.String()
}

func (r *Resource) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s [%s]", r.Name, r.Type)
	if names := r.AttrNames(); len(names) > 0 {
		parts := make([]string, 0, len(names))
		for _, n := range names {
			v, _ := r.Attr(n)
			parts = append(parts, fmt.Sprintf("%s=%v", n, v))
		}
		fmt.Fprintf(b, " {%s}", strings.Join(parts, ", "))
	}
	b.WriteByte('\n')
	for _, c := range r.Children {
		c.render(b, depth+1)
	}
}

// TreeArena backs one metadata tree with one slice each of resources,
// attribute slots and child links. A builder that counts its tree first
// then builds it in three allocations, whatever its size. The arena hands
// out pointers into its resource slice and never copies a Resource.
type TreeArena struct {
	res   []Resource
	attrs []attr
	links []*Resource
}

// NewTreeArena sizes an arena for a tree of resources nodes holding attrs
// attributes and links child links in all.
func NewTreeArena(resources, attrs, links int) TreeArena {
	return TreeArena{
		res:   make([]Resource, resources),
		attrs: make([]attr, attrs),
		links: make([]*Resource, links),
	}
}

// NewResource takes the next resource from the arena with room for nattrs
// attributes and nchildren children. A resource past the arena's sizing,
// or an attribute or child past its room, comes from the heap: a miscount
// costs allocations, never a wrong tree.
func (a *TreeArena) NewResource(name string, typ ResourceType, nattrs, nchildren int) *Resource {
	var r *Resource
	if len(a.res) > 0 {
		r, a.res = &a.res[0], a.res[1:]
	} else {
		r = new(Resource)
	}
	r.Name, r.Type = name, typ
	r.attrs, a.attrs = carve(a.attrs, nattrs)
	r.Children, a.links = carve(a.links, nchildren)
	return r
}

// carve splits an empty slice with capacity n off the front of s.
func carve[T any](s []T, n int) (part, rest []T) {
	if n > len(s) {
		return nil, s
	}
	return s[:0:n], s[n:]
}

// ResourcesGet returns the system resource tree root (mrapi_resources_get).
// A system made by NewSystemFrom materializes its tree here, on the first
// call, and returns that same tree from then on. It fails with
// ErrResourceInvalid when the system carries no metadata.
func (n *Node) ResourcesGet() (*Resource, error) {
	if err := n.checkLive(); err != nil {
		return nil, err
	}
	root := n.domain.sys.tree()
	if root == nil {
		return nil, ErrResourceInvalid
	}
	return root, nil
}

// ProcessorsOnline reports the number of online hardware threads from the
// metadata, the quantity the MCA-backed OpenMP runtime sizes its default
// thread pool with (§5B4). It walks the system's tree once one is
// installed or materialized, and otherwise asks the system's Metadata,
// which counts without building one. Falls back to 1 when no metadata is
// installed.
func (n *Node) ProcessorsOnline() int {
	if n.checkLive() != nil {
		return 1
	}
	sys := n.domain.sys
	sys.mu.RLock()
	root, meta := sys.resources, sys.meta
	sys.mu.RUnlock()
	online := 0
	switch {
	case root != nil:
		online = root.onlineHWThreads()
	case meta != nil:
		online = meta.ProcessorsOnline()
	}
	return max(online, 1)
}

// onlineHWThreads counts the tree's hardware threads, less those whose
// "online" attribute reads false.
func (r *Resource) onlineHWThreads() int {
	n := 0
	if r.Type == ResHWThread {
		n++
		if v, ok := r.Attr("online"); ok {
			if b, isBool := v.(bool); isBool && !b {
				n--
			}
		}
	}
	for _, c := range r.Children {
		n += c.onlineHWThreads()
	}
	return n
}
