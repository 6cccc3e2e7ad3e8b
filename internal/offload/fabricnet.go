package offload

import (
	"fmt"

	"openmpmca/internal/core"
	"openmpmca/internal/mcapi"
	"openmpmca/internal/platform"
)

// The multi-domain fabric net: the board partitioned under the embedded
// hypervisor, one MCA-backed OpenMP runtime per partition, and a
// host<->worker MCAPI wiring per worker domain. The task fabric
// (internal/taskfabric) builds one per Fabric; a server builds one
// fabric, which runs both its jobs and its parallel-for regions.

// Well-known ports on each worker domain's MCAPI node. Host-side
// endpoints use PortAny; workers sit on fixed ports the way firmware
// images do.
const (
	portCmd mcapi.Port = 1 // host -> worker packet channel, commands
	portRes mcapi.Port = 2 // worker -> host packet channel, results
	portHB  mcapi.Port = 3 // connectionless heartbeat pings

	// portPeerBase starts the steal-mesh port range: worker j receives
	// peer traffic from worker i on port portPeerBase+i. Packet channels
	// are strictly 1:1, so each ordered worker pair gets its own port.
	portPeerBase mcapi.Port = 8
)

// hostDomainID is the host runtime's MCAPI domain; worker i lives in
// domain i (1-based).
const hostDomainID mcapi.DomainID = 0

// NetConfig sizes a fabric net build.
type NetConfig struct {
	Domains    int             // worker domain count (>= 1)
	Board      *platform.Board // board to partition
	NamePrefix string          // partition names: <prefix>-host, <prefix>-dom<i>
	CmdDepth   int             // host->worker command queue depth
	ResDepth   int             // worker->host result queue depth
	PeerDepth  int             // per-direction steal-mesh queue depth (default 8)
}

// NetLink is one worker domain of a built net, both sides of its wiring:
// the worker-side handles its service loops read and write, and the
// host-side handles the scheduler drives.
type NetLink struct {
	ID   int    // 1-based; MCAPI domain ID and partition ordinal
	Name string // hypervisor partition name
	RT   *core.Runtime
	Node *mcapi.Node
	CPUs int // hardware threads in this domain's partition

	// Worker side.
	CmdRecv *mcapi.PktRecvHandle // host -> worker commands
	ResSend *mcapi.PktSendHandle // worker -> host results
	HBEp    *mcapi.Endpoint      // receives host pings
	HBHost  *mcapi.Endpoint      // host endpoint pongs are sent to

	// Host side.
	CmdSend *mcapi.PktSendHandle // commands out
	ResRecv *mcapi.PktRecvHandle // results back

	// Steal mesh (nil maps with a single domain): direct packet
	// channels to and from every other worker domain, keyed by peer id.
	PeerSend map[int]*mcapi.PktSendHandle // this worker -> peer
	PeerRecv map[int]*mcapi.PktRecvHandle // peer -> this worker
}

// Net is a built fabric: the hypervisor, the host runtime and MCAPI
// node, and one NetLink per worker domain.
type Net struct {
	HV       *platform.Hypervisor
	Comm     *mcapi.System
	Host     *core.Runtime
	HostNode *mcapi.Node
	HostCPUs int
	Links    []*NetLink
}

// partitionCPUs splits the board's hardware threads into groups (group 0
// is the host). When the board has enough physical clusters each group
// gets a whole cluster — partitions then never share an L2 — otherwise
// the threads are split evenly and contiguously.
func partitionCPUs(b *platform.Board, groups int) ([][]int, error) {
	if groups < 2 {
		return nil, fmt.Errorf("offload: need at least one worker domain")
	}
	if b.Clusters() >= groups && b.CoresPerCluster > 1 {
		out := make([][]int, groups)
		for i := range out {
			cpus, err := b.ClusterCPUs(i)
			if err != nil {
				return nil, err
			}
			out[i] = cpus
		}
		return out, nil
	}
	hw := b.HWThreads()
	if hw < groups {
		return nil, fmt.Errorf("offload: board %s has %d hw threads, cannot host %d domains",
			b.Name, hw, groups-1)
	}
	out := make([][]int, groups)
	next := 0
	for i := range out {
		n := hw / groups
		if i < hw%groups {
			n++
		}
		for j := 0; j < n; j++ {
			out[i] = append(out[i], next)
			next++
		}
	}
	return out, nil
}

// BuildNet partitions the board under the embedded hypervisor, boots one
// MCA-backed OpenMP runtime per partition, and wires host<->worker MCAPI
// channels plus heartbeat endpoints, and with two or more domains the
// worker-to-worker steal mesh. On any error everything already built is
// torn down.
func BuildNet(cfg NetConfig) (*Net, error) {
	b := cfg.Board
	hv, err := platform.NewHypervisor(b)
	if err != nil {
		return nil, err
	}
	groups := cfg.Domains + 1
	sets, err := partitionCPUs(b, groups)
	if err != nil {
		return nil, err
	}
	memMB := b.MemMB / groups

	var rts []*core.Runtime
	fail := func(err error) (*Net, error) {
		for _, rt := range rts {
			_ = rt.Close()
		}
		for _, p := range hv.Partitions() {
			_ = hv.Stop(p.Name)
		}
		return nil, err
	}

	names := make([]string, groups)
	for i := 0; i < groups; i++ {
		name, guest := cfg.NamePrefix+"-host", platform.GuestLinux
		if i > 0 {
			name, guest = fmt.Sprintf("%s-dom%d", cfg.NamePrefix, i), platform.GuestRTOS
		}
		names[i] = name
		if _, err := hv.CreatePartition(name, guest, sets[i], memMB); err != nil {
			return fail(err)
		}
		if err := hv.Start(name); err != nil {
			return fail(err)
		}
		sys, err := hv.PartitionSystem(name)
		if err != nil {
			return fail(err)
		}
		layer, err := core.NewMCALayer(sys)
		if err != nil {
			return fail(err)
		}
		rt, err := core.New(core.WithLayer(layer))
		if err != nil {
			return fail(err)
		}
		rts = append(rts, rt)
	}

	comm := mcapi.NewSystem()
	hostNode, err := comm.Initialize(hostDomainID, 0)
	if err != nil {
		return fail(err)
	}
	net := &Net{
		HV:       hv,
		Comm:     comm,
		Host:     rts[0],
		HostNode: hostNode,
		HostCPUs: len(sets[0]),
	}

	cmdAttrs := &mcapi.EndpointAttributes{QueueDepth: cfg.CmdDepth}
	resAttrs := &mcapi.EndpointAttributes{QueueDepth: cfg.ResDepth}
	for i := 1; i < groups; i++ {
		node, err := comm.Initialize(mcapi.DomainID(i), 0)
		if err != nil {
			return fail(err)
		}
		cmdEp, err := node.CreateEndpoint(portCmd, cmdAttrs)
		if err != nil {
			return fail(err)
		}
		resEp, err := node.CreateEndpoint(portRes, nil)
		if err != nil {
			return fail(err)
		}
		hbEp, err := node.CreateEndpoint(portHB, &mcapi.EndpointAttributes{QueueDepth: 4})
		if err != nil {
			return fail(err)
		}
		cmdSrc, err := hostNode.CreateEndpoint(mcapi.PortAny, nil)
		if err != nil {
			return fail(err)
		}
		resDst, err := hostNode.CreateEndpoint(mcapi.PortAny, resAttrs)
		if err != nil {
			return fail(err)
		}
		hbDst, err := hostNode.CreateEndpoint(mcapi.PortAny, &mcapi.EndpointAttributes{QueueDepth: 8})
		if err != nil {
			return fail(err)
		}
		if err := mcapi.PktConnect(cmdSrc, cmdEp); err != nil {
			return fail(err)
		}
		if err := mcapi.PktConnect(resEp, resDst); err != nil {
			return fail(err)
		}
		cmdSend, err := mcapi.PktOpenSend(cmdSrc)
		if err != nil {
			return fail(err)
		}
		cmdRecv, err := mcapi.PktOpenRecv(cmdEp)
		if err != nil {
			return fail(err)
		}
		resSend, err := mcapi.PktOpenSend(resEp)
		if err != nil {
			return fail(err)
		}
		resRecv, err := mcapi.PktOpenRecv(resDst)
		if err != nil {
			return fail(err)
		}
		net.Links = append(net.Links, &NetLink{
			ID:      i,
			Name:    names[i],
			RT:      rts[i],
			Node:    node,
			CPUs:    len(sets[i]),
			CmdRecv: cmdRecv,
			ResSend: resSend,
			HBEp:    hbEp,
			HBHost:  hbDst,
			CmdSend: cmdSend,
			ResRecv: resRecv,
		})
	}
	if cfg.Domains >= 2 {
		if err := buildMesh(net, cfg); err != nil {
			return fail(err)
		}
	}
	return net, nil
}

// buildMesh wires the N×(N−1) unidirectional steal-mesh channels: for
// every ordered worker pair (src, dst) a packet channel from src's node
// to a fixed per-source port on dst's node, so any worker can push a
// steal request or a yielded task straight to any peer without the host
// relaying frames.
func buildMesh(net *Net, cfg NetConfig) error {
	depth := cfg.PeerDepth
	if depth <= 0 {
		depth = 8
	}
	attrs := &mcapi.EndpointAttributes{QueueDepth: depth}
	for _, l := range net.Links {
		l.PeerSend = make(map[int]*mcapi.PktSendHandle, len(net.Links)-1)
		l.PeerRecv = make(map[int]*mcapi.PktRecvHandle, len(net.Links)-1)
	}
	for _, src := range net.Links {
		for _, dst := range net.Links {
			if src.ID == dst.ID {
				continue
			}
			recvEp, err := dst.Node.CreateEndpoint(portPeerBase+mcapi.Port(src.ID), attrs)
			if err != nil {
				return err
			}
			sendEp, err := src.Node.CreateEndpoint(mcapi.PortAny, nil)
			if err != nil {
				return err
			}
			if err := mcapi.PktConnect(sendEp, recvEp); err != nil {
				return err
			}
			send, err := mcapi.PktOpenSend(sendEp)
			if err != nil {
				return err
			}
			recv, err := mcapi.PktOpenRecv(recvEp)
			if err != nil {
				return err
			}
			src.PeerSend[dst.ID] = send
			dst.PeerRecv[src.ID] = recv
		}
	}
	return nil
}
