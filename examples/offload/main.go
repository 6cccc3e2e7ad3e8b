// Offload reproduces the heterogeneous scenario of the authors' companion
// work (paper ref [3], "Targeting heterogeneous SoCs using MCAPI") on the
// simulated platform: a host partition running the MCA-backed OpenMP
// runtime offloads FIR filtering to a bare-metal "accelerator" node.
//
// The host DMA-writes each input block into MRAPI remote memory with an
// asynchronous request, rings a doorbell over an MCAPI message, and the
// accelerator — which shares no Go memory with the host loop, only the
// MRAPI/MCAPI substrates — filters the block and rings back. The host
// overlaps its own OpenMP post-processing with the accelerator's work and
// verifies the offloaded results against a local computation.
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"time"

	"openmpmca/internal/core"
	"openmpmca/internal/mcapi"
	"openmpmca/internal/mrapi"
	"openmpmca/internal/platform"
)

const (
	blockFloats = 512
	blockBytes  = blockFloats * 8
	numBlocks   = 24

	rmemIn  mrapi.Key = 1
	rmemOut mrapi.Key = 2

	hostDoor  mcapi.Port = 1
	accelDoor mcapi.Port = 2
)

// fir is the 4-tap filter both sides implement.
var firTaps = [4]float64{0.1, 0.25, 0.4, 0.25}

func firFilter(in, out []float64) {
	for i := range in {
		acc := 0.0
		for t, w := range firTaps {
			if j := i - t; j >= 0 {
				acc += w * in[j]
			}
		}
		out[i] = acc
	}
}

func putFloats(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

func getFloats(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// accelerator is the bare-metal node's firmware loop: wait for a doorbell
// naming a block, filter it in remote memory, ring back. It returns nil
// on the shutdown doorbell.
func accelerator(node *mrapi.Node, in, out *mrapi.Rmem, door *mcapi.Endpoint, hostBell *mcapi.Endpoint) error {
	inBuf := make([]byte, blockBytes)
	inF := make([]float64, blockFloats)
	outF := make([]float64, blockFloats)
	outBuf := make([]byte, blockBytes)
	for {
		msg, _, err := mcapi.MsgRecv(door, mcapi.TimeoutInfinite)
		if err != nil {
			return fmt.Errorf("accelerator doorbell: %w", err)
		}
		block := int(binary.LittleEndian.Uint32(msg))
		if block == 0xFFFF {
			return nil // shutdown
		}
		off := block * blockBytes
		if err := in.Read(node, off, inBuf); err != nil {
			return fmt.Errorf("accelerator rmem read: %w", err)
		}
		getFloats(inF, inBuf)
		firFilter(inF, outF)
		putFloats(outBuf, outF)
		if err := out.Write(node, off, outBuf); err != nil {
			return fmt.Errorf("accelerator rmem write: %w", err)
		}
		if err := mcapi.MsgSend(hostBell, msg, 0, mcapi.TimeoutInfinite); err != nil {
			return fmt.Errorf("accelerator ring-back: %w", err)
		}
	}
}

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// ringBackTimeout bounds the host's wait for each block, so a failed
// accelerator ends the run instead of hanging it.
const ringBackTimeout = mcapi.Timeout(10 * time.Second)

// run offloads every block, overlaps a host reduction, and returns an
// error unless every block came back equal to the local FIR.
func run(stdout io.Writer) error {
	// Partition the board: the host gets cluster 0, the accelerator-side
	// control core sits apart — Figure 2's partitioning in action.
	board := platform.T4240RDB()
	hv, err := platform.NewHypervisor(board)
	if err != nil {
		return err
	}
	if _, err := hv.CreatePartition("host", platform.GuestLinux, []int{0, 1, 2, 3, 4, 5, 6, 7}, 2048); err != nil {
		return err
	}
	if _, err := hv.CreatePartition("accel", platform.GuestBareMetal, []int{8, 9}, 256); err != nil {
		return err
	}
	hostSys, err := hv.PartitionSystem("host")
	if err != nil {
		return err
	}

	// MRAPI: the host's MCA-backed OpenMP runtime binds to its partition.
	layer, err := core.NewMCALayer(hostSys)
	if err != nil {
		return err
	}
	rt, err := core.New(core.WithLayer(layer))
	if err != nil {
		return err
	}
	defer rt.Close()
	fmt.Fprintf(stdout, "host partition: OpenMP team of %d (from partition metadata)\n", rt.NumThreads())

	// Shared substrate between host and accelerator: one MRAPI domain
	// with DMA remote memories, plus MCAPI doorbells.
	sharedSys := mrapi.NewSystem(nil)
	hostNode, err := sharedSys.Initialize(7, 1, &mrapi.NodeAttributes{Name: "host", Affinity: -1})
	if err != nil {
		return err
	}
	accelNode, err := sharedSys.Initialize(7, 2, &mrapi.NodeAttributes{Name: "accel", Affinity: -1})
	if err != nil {
		return err
	}
	in, err := hostNode.RmemCreate(rmemIn, numBlocks*blockBytes, &mrapi.RmemAttributes{Access: mrapi.RmemDMA})
	if err != nil {
		return err
	}
	out, err := hostNode.RmemCreate(rmemOut, numBlocks*blockBytes, &mrapi.RmemAttributes{Access: mrapi.RmemDMA})
	if err != nil {
		return err
	}
	for _, pair := range []struct {
		r *mrapi.Rmem
		n *mrapi.Node
	}{{in, hostNode}, {in, accelNode}, {out, hostNode}, {out, accelNode}} {
		if err := pair.r.Attach(pair.n); err != nil {
			return err
		}
	}

	comm := mcapi.NewSystem()
	hostComm, err := comm.Initialize(7, 1)
	if err != nil {
		return err
	}
	accelComm, err := comm.Initialize(7, 2)
	if err != nil {
		return err
	}
	hostBell, err := hostComm.CreateEndpoint(hostDoor, nil)
	if err != nil {
		return err
	}
	accelBell, err := accelComm.CreateEndpoint(accelDoor, nil)
	if err != nil {
		return err
	}

	accelDone := make(chan error, 1)
	go func() { accelDone <- accelerator(accelNode, in, out, accelBell, hostBell) }()

	// Generate input and DMA it out block by block, asynchronously.
	input := make([]float64, numBlocks*blockFloats)
	for i := range input {
		input[i] = math.Sin(float64(i)/17) + 0.25*math.Cos(float64(i)/3)
	}
	raw := make([]byte, numBlocks*blockBytes)
	putFloats(raw, input)

	doorbell := make([]byte, 4)
	for b := 0; b < numBlocks; b++ {
		req := in.WriteI(hostNode, b*blockBytes, raw[b*blockBytes:(b+1)*blockBytes])
		if err := req.Wait(mrapi.TimeoutInfinite); err != nil {
			return fmt.Errorf("DMA block %d: %w", b, err)
		}
		binary.LittleEndian.PutUint32(doorbell, uint32(b))
		if err := mcapi.MsgSend(accelBell, doorbell, 0, mcapi.TimeoutInfinite); err != nil {
			return err
		}
	}
	stats := in.Stats()
	fmt.Fprintf(stdout, "host -> accel: %d blocks, %d DMA bursts, %d bytes written\n",
		numBlocks, stats.DMABursts, stats.BytesWritten)

	// While the accelerator filters, the host runs its own OpenMP stage:
	// compute the input's energy in parallel.
	var energy float64
	if err := rt.Parallel(func(c *core.Context) {
		e := core.Reduce(c, len(input), 0.0,
			func(a, b float64) float64 { return a + b },
			func(lo, hi int) float64 {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += input[i] * input[i]
				}
				return s
			})
		c.Master(func() { energy = e })
	}); err != nil {
		return err
	}

	// Collect ring-backs, then read results back over DMA.
	seen := make(map[int]bool)
	for i := 0; i < numBlocks; i++ {
		msg, _, err := mcapi.MsgRecv(hostBell, ringBackTimeout)
		if err != nil {
			select {
			case aerr := <-accelDone:
				return aerr
			default:
				return fmt.Errorf("ring-back %d: %w", i, err)
			}
		}
		seen[int(binary.LittleEndian.Uint32(msg))] = true
	}
	binary.LittleEndian.PutUint32(doorbell, 0xFFFF)
	if err := mcapi.MsgSend(accelBell, doorbell, 0, mcapi.TimeoutInfinite); err != nil {
		return err
	}
	if err := <-accelDone; err != nil {
		return err
	}

	result := make([]float64, numBlocks*blockFloats)
	resultRaw := make([]byte, numBlocks*blockBytes)
	rd := out.ReadI(hostNode, 0, resultRaw)
	if err := rd.Wait(mrapi.TimeoutInfinite); err != nil {
		return err
	}
	getFloats(result, resultRaw)

	// Verify: per-block FIR against a local reference.
	reference := make([]float64, blockFloats)
	maxErr := 0.0
	for b := 0; b < numBlocks; b++ {
		firFilter(input[b*blockFloats:(b+1)*blockFloats], reference)
		for i, want := range reference {
			if d := math.Abs(result[b*blockFloats+i] - want); d > maxErr {
				maxErr = d
			}
		}
	}
	fmt.Fprintf(stdout, "host overlap stage: signal energy = %.4f\n", energy)
	fmt.Fprintf(stdout, "accel -> host: %d/%d blocks returned, max abs err = %.2e\n", len(seen), numBlocks, maxErr)
	if len(seen) != numBlocks || maxErr > 1e-12 {
		return errors.New("VERIFICATION FAILED")
	}
	fmt.Fprintln(stdout, "verification: PASS (offloaded FIR matches local reference bit-for-bit)")
	return nil
}
