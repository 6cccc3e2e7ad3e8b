package mrapi

import "sync"

// RmemAccess selects how a remote-memory segment is reached, mirroring
// mrapi_rmem_atype_t.
type RmemAccess int

const (
	// RmemDirect models directly addressable remote memory (e.g. a
	// memory-mapped window onto another device's SRAM).
	RmemDirect RmemAccess = iota
	// RmemDMA models remote memory that must be reached through a DMA
	// engine: transfers are counted and sized so the platform cost model
	// can charge for them, and sub-word access granularity is rejected.
	RmemDMA
)

func (a RmemAccess) String() string {
	if a == RmemDMA {
		return "MRAPI_RMEM_DMA"
	}
	return "MRAPI_RMEM_DUMMY" // spec name for the direct/trivial access type
}

// DMABurstSize is the minimum transfer granularity of the modeled DMA
// engine, in bytes.
const DMABurstSize = 32

// RmemAttributes configure a remote-memory segment at creation.
type RmemAttributes struct {
	// Access selects direct or DMA transfer semantics.
	Access RmemAccess
}

// RmemStats counts the traffic a segment has seen; the platform cost model
// reads these to charge simulated transfer time.
type RmemStats struct {
	Reads, Writes           uint64
	BytesRead, BytesWritten uint64
	DMABursts               uint64
}

// Rmem is an MRAPI remote-memory segment: memory that is NOT part of the
// node's local address space and is reached by explicit read/write (or
// scatter/gather) transfers. The paper's platform has such memories on its
// coprocessors; the OpenMP runtime itself only needs shmem, but rmem
// completes the MRAPI memory-primitive surface.
type Rmem struct {
	domain *Domain
	key    Key
	attrs  RmemAttributes

	mu       sync.Mutex
	buf      []byte
	attached map[NodeID]struct{}
	deleted  bool
	stats    RmemStats
}

// RmemCreate creates a remote-memory segment of the given size under key
// (mrapi_rmem_create).
func (n *Node) RmemCreate(key Key, size int, attrs *RmemAttributes) (*Rmem, error) {
	if err := n.checkLive(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, ErrParameter
	}
	a := RmemAttributes{}
	if attrs != nil {
		a = *attrs
	}
	d := n.domain
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.rmems[key]; dup {
		return nil, ErrRmemExists
	}
	r := &Rmem{
		domain:   d,
		key:      key,
		attrs:    a,
		buf:      make([]byte, size),
		attached: make(map[NodeID]struct{}),
	}
	d.rmems[key] = r
	return r, nil
}

// RmemGet looks up an existing remote-memory segment by key
// (mrapi_rmem_get).
func (n *Node) RmemGet(key Key) (*Rmem, error) {
	if err := n.checkLive(); err != nil {
		return nil, err
	}
	d := n.domain
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.rmems[key]
	if !ok {
		return nil, ErrRmemInvalid
	}
	return r, nil
}

// Key returns the database key of the segment.
func (r *Rmem) Key() Key { return r.key }

// Size returns the segment size in bytes.
func (r *Rmem) Size() int { return len(r.buf) }

// Attach registers the node as a user of the segment (mrapi_rmem_attach).
func (r *Rmem) Attach(n *Node) error {
	if err := n.checkLive(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deleted {
		return ErrRmemInvalid
	}
	r.attached[n.id] = struct{}{}
	return nil
}

// Detach deregisters the node (mrapi_rmem_detach).
func (r *Rmem) Detach(n *Node) error {
	if err := n.checkLive(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.attached[n.id]; !ok {
		return ErrRmemNotAttached
	}
	delete(r.attached, n.id)
	return nil
}

// Read copies len(dst) bytes starting at offset into dst
// (mrapi_rmem_read). The node must be attached. DMA-kind segments reject
// transfers that are not a multiple of the burst size.
func (r *Rmem) Read(n *Node, offset int, dst []byte) error {
	return r.access(n, offset, dst, false)
}

// Write copies src into the segment starting at offset (mrapi_rmem_write).
func (r *Rmem) Write(n *Node, offset int, src []byte) error {
	return r.access(n, offset, src, true)
}

func (r *Rmem) access(n *Node, offset int, data []byte, write bool) error {
	if err := n.checkLive(); err != nil {
		return err
	}
	if offset < 0 || offset+len(data) > len(r.buf) {
		return ErrParameter
	}
	if r.attrs.Access == RmemDMA && len(data)%DMABurstSize != 0 {
		return ErrRmemTypeNotValid
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deleted {
		return ErrRmemInvalid
	}
	if _, ok := r.attached[n.id]; !ok {
		return ErrRmemNotAttached
	}
	if write {
		copy(r.buf[offset:], data)
		r.stats.Writes++
		r.stats.BytesWritten += uint64(len(data))
	} else {
		copy(data, r.buf[offset:])
		r.stats.Reads++
		r.stats.BytesRead += uint64(len(data))
	}
	if r.attrs.Access == RmemDMA {
		r.stats.DMABursts += uint64(len(data) / DMABurstSize)
	}
	return nil
}

// ReadStrided performs a scatter read: count elements of elemSize bytes,
// separated by stride bytes in the segment, packed densely into dst
// (mrapi_rmem_read with stride arguments). The stride must be at least the
// element size.
func (r *Rmem) ReadStrided(n *Node, offset, elemSize, stride, count int, dst []byte) error {
	return r.strided(n, offset, elemSize, stride, count, dst, false)
}

// WriteStrided performs a gather write: count densely packed elements from
// src land elemSize-apart-by-stride in the segment.
func (r *Rmem) WriteStrided(n *Node, offset, elemSize, stride, count int, src []byte) error {
	return r.strided(n, offset, elemSize, stride, count, src, true)
}

func (r *Rmem) strided(n *Node, offset, elemSize, stride, count int, data []byte, write bool) error {
	if err := n.checkLive(); err != nil {
		return err
	}
	if elemSize <= 0 || count < 0 || offset < 0 {
		return ErrParameter
	}
	if stride < elemSize {
		return ErrRmemStride
	}
	if count == 0 {
		return nil
	}
	last := offset + (count-1)*stride + elemSize
	if last > len(r.buf) || len(data) < count*elemSize {
		return ErrParameter
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deleted {
		return ErrRmemInvalid
	}
	if _, ok := r.attached[n.id]; !ok {
		return ErrRmemNotAttached
	}
	for i := 0; i < count; i++ {
		seg := r.buf[offset+i*stride : offset+i*stride+elemSize]
		pack := data[i*elemSize : (i+1)*elemSize]
		if write {
			copy(seg, pack)
		} else {
			copy(pack, seg)
		}
	}
	if write {
		r.stats.Writes++
		r.stats.BytesWritten += uint64(count * elemSize)
	} else {
		r.stats.Reads++
		r.stats.BytesRead += uint64(count * elemSize)
	}
	return nil
}

// Stats returns a snapshot of the traffic counters.
func (r *Rmem) Stats() RmemStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Delete removes the segment from the domain database
// (mrapi_rmem_delete). Deletion fails with ErrRmemAttached while nodes are
// attached.
func (r *Rmem) Delete(n *Node) error {
	if err := n.checkLive(); err != nil {
		return err
	}
	r.mu.Lock()
	if r.deleted {
		r.mu.Unlock()
		return ErrRmemInvalid
	}
	if len(r.attached) > 0 {
		r.mu.Unlock()
		return ErrRmemAttached
	}
	r.deleted = true
	r.mu.Unlock()

	d := r.domain
	d.mu.Lock()
	delete(d.rmems, r.key)
	d.mu.Unlock()
	return nil
}

// PadToBurst rounds n up to the DMA engine's burst granularity; DMA
// segments reject transfers that are not a burst multiple, so transfer
// buffers are always padded.
func PadToBurst(n int) int {
	return (n + DMABurstSize - 1) / DMABurstSize * DMABurstSize
}

// RmemWritePadded stages src into the segment at offset through the
// asynchronous DMA engine, padding the transfer up to the burst size
// the segment requires. The segment must have room for the padded
// length at offset.
func RmemWritePadded(r *Rmem, n *Node, offset int, src []byte) error {
	size := PadToBurst(len(src))
	if size != len(src) {
		buf := make([]byte, size)
		copy(buf, src)
		src = buf
	}
	return r.WriteI(n, offset, src).Wait(TimeoutInfinite)
}

// RmemReadPadded pulls length payload bytes from the segment at offset
// through the asynchronous DMA engine, reading the padded slot and
// returning the unpadded payload.
func RmemReadPadded(r *Rmem, n *Node, offset, length int) ([]byte, error) {
	buf := make([]byte, PadToBurst(length))
	if err := r.ReadI(n, offset, buf).Wait(TimeoutInfinite); err != nil {
		return nil, err
	}
	return buf[:length], nil
}
