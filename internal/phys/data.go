package phys

import (
	"fmt"
	"sync"

	"repro/internal/machine"
)

// Backing store: the simulator moves real bytes so that end-to-end tests
// (Pack/Unpack identity, NAS numerics, RDMA) verify data integrity, not
// just timing. Frame contents are allocated lazily on first write; a read
// of a never-written frame observes zeros, like freshly mapped memory.

type frameData = [machine.SmallPageSize]byte

// dataStore is split out of Memory so the hot read/write path takes its
// own lock and never contends with frame allocation.
type dataStore struct {
	mu     sync.RWMutex
	frames map[Frame]*frameData
}

func (d *dataStore) frame(f Frame, create bool) *frameData {
	d.mu.RLock()
	fd := d.frames[f]
	d.mu.RUnlock()
	if fd != nil || !create {
		return fd
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.frames == nil {
		d.frames = make(map[Frame]*frameData)
	}
	if fd = d.frames[f]; fd == nil {
		fd = new(frameData)
		d.frames[f] = fd
	}
	return fd
}

// WritePhys copies p into physical memory starting at address pa,
// crossing frame boundaries as needed.
func (m *Memory) WritePhys(pa Addr, p []byte) {
	for len(p) > 0 {
		f := Frame(pa / machine.SmallPageSize)
		off := int(pa % machine.SmallPageSize)
		n := machine.SmallPageSize - off
		if n > len(p) {
			n = len(p)
		}
		fd := m.data.frame(f, true)
		copy(fd[off:off+n], p[:n])
		pa += Addr(n)
		p = p[n:]
	}
}

// ReadPhys fills p from physical memory starting at address pa. Every
// byte of p is overwritten: a never-written frame reads as zeros. Pooled
// DMA payload buffers depend on this, since they arrive holding the
// previous message's bytes.
func (m *Memory) ReadPhys(pa Addr, p []byte) {
	for len(p) > 0 {
		f := Frame(pa / machine.SmallPageSize)
		off := int(pa % machine.SmallPageSize)
		n := machine.SmallPageSize - off
		if n > len(p) {
			n = len(p)
		}
		if fd := m.data.frame(f, false); fd != nil {
			copy(p[:n], fd[off:off+n])
		} else {
			clear(p[:n])
		}
		pa += Addr(n)
		p = p[n:]
	}
}

// CopyPhys copies n bytes from physical address src to physical address
// dst, possibly between different alignments. Used by the DMA engine.
func (m *Memory) CopyPhys(dst, src Addr, n int) {
	if n < 0 {
		panic(fmt.Sprintf("phys: negative copy length %d", n))
	}
	buf := make([]byte, n)
	m.ReadPhys(src, buf)
	m.WritePhys(dst, buf)
}
