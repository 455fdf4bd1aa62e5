package phys

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func testMem(t *testing.T) *Memory {
	t.Helper()
	return NewMemory(machine.Opteron())
}

func TestFrameAllocFree(t *testing.T) {
	m := testMem(t)
	a, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two live frames share a number")
	}
	if err := m.FreeFrame(a); err != nil {
		t.Fatal(err)
	}
	c, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("LIFO reuse expected: got %d want %d", c, a)
	}
	st := m.Stats()
	if st.SmallAllocated != 2 {
		t.Fatalf("SmallAllocated = %d, want 2", st.SmallAllocated)
	}
}

func TestHugeAllocContiguity(t *testing.T) {
	m := testMem(t)
	f, err := m.AllocHuge()
	if err != nil {
		t.Fatal(err)
	}
	if (uint64(f)*machine.SmallPageSize)%machine.HugePageSize != 0 {
		t.Fatalf("hugepage frame %d not 2MiB-aligned", f)
	}
	g, err := m.AllocHuge()
	if err != nil {
		t.Fatal(err)
	}
	if g == f {
		t.Fatal("same hugepage handed out twice")
	}
	if err := m.FreeHuge(f); err != nil {
		t.Fatal(err)
	}
	if err := m.FreeHuge(f); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free: got %v, want ErrDoubleFree", err)
	}
}

func TestHugePoolExhaustion(t *testing.T) {
	m := testMem(t)
	total := m.HugeTotal()
	for i := 0; i < total; i++ {
		if _, err := m.AllocHuge(); err != nil {
			t.Fatalf("alloc %d/%d failed: %v", i, total, err)
		}
	}
	if _, err := m.AllocHuge(); !errors.Is(err, ErrOutOfHugepages) {
		t.Fatalf("got %v, want ErrOutOfHugepages", err)
	}
	if m.Stats().HugeFailures != 1 {
		t.Fatal("failure not counted")
	}
}

func TestReserveBlocksAllocation(t *testing.T) {
	m := testMem(t)
	avail := m.HugeAvailable()
	if err := m.Reserve(avail); err != nil { // hold everything back
		t.Fatal(err)
	}
	if _, err := m.AllocHuge(); !errors.Is(err, ErrReserveHeld) {
		t.Fatalf("got %v, want ErrReserveHeld", err)
	}
	if err := m.Unreserve(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocHuge(); err != nil {
		t.Fatalf("one page above reserve should allocate: %v", err)
	}
	// Now free == reserve again; next alloc must fail.
	if _, err := m.AllocHuge(); !errors.Is(err, ErrReserveHeld) {
		t.Fatalf("got %v, want ErrReserveHeld", err)
	}
}

func TestSmallFramesNeverOverlapHugeZone(t *testing.T) {
	m := testMem(t)
	h, err := m.AllocHuge()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		f, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f >= h && f < h+machine.SmallPerHuge {
			t.Fatalf("small frame %d landed inside hugepage at %d", f, h)
		}
	}
}

func TestPhysReadWrite(t *testing.T) {
	m := testMem(t)
	// Cross a frame boundary deliberately.
	pa := Addr(machine.SmallPageSize - 3)
	in := []byte{1, 2, 3, 4, 5, 6, 7}
	m.WritePhys(pa, in)
	out := make([]byte, len(in))
	m.ReadPhys(pa, out)
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("byte %d: got %d want %d", i, out[i], in[i])
		}
	}
	// Never-written memory reads as zero.
	z := make([]byte, 16)
	m.ReadPhys(1<<28, z)
	for _, b := range z {
		if b != 0 {
			t.Fatal("fresh memory must read zero")
		}
	}
}

func TestCopyPhys(t *testing.T) {
	m := testMem(t)
	src, dst := Addr(100), Addr(2*machine.SmallPageSize-10)
	in := make([]byte, 64)
	for i := range in {
		in[i] = byte(i * 7)
	}
	m.WritePhys(src, in)
	m.CopyPhys(dst, src, len(in))
	out := make([]byte, len(in))
	m.ReadPhys(dst, out)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("CopyPhys corrupted byte %d", i)
		}
	}

	// Unaligned on both sides with different in-frame offsets, spanning
	// several frames. The source's last frames were never written; they
	// must land as zeros over a dirty destination.
	const ps = machine.SmallPageSize
	src, dst = Addr(8*ps-37), Addr(16*ps+1000)
	n := 3*ps + 123
	written := make([]byte, 2*ps)
	for i := range written {
		written[i] = byte(i*13 + 5)
	}
	m.WritePhys(src, written)
	dirty := make([]byte, n)
	for i := range dirty {
		dirty[i] = 0xAA
	}
	m.WritePhys(dst, dirty)
	m.CopyPhys(dst, src, n)
	got := make([]byte, n)
	m.ReadPhys(dst, got)
	want := make([]byte, n)
	m.ReadPhys(src, want)
	for i := range want {
		if i < len(written) && want[i] != written[i] {
			t.Fatalf("source byte %d = %#x, want %#x", i, want[i], written[i])
		}
		if got[i] != want[i] {
			t.Fatalf("unaligned CopyPhys: byte %d = %#x, want %#x", i, got[i], want[i])
		}
	}
	if want[n-1] != 0 {
		t.Fatal("never-written source must read zero")
	}
}

// Property: any interleaving of allocs and frees never hands out a frame
// that is still live, and never exceeds the hugepage zone base.
func TestQuickFrameUniqueness(t *testing.T) {
	m := testMem(t)
	live := map[Frame]bool{}
	var order []Frame
	f := func(op uint8) bool {
		if op%3 == 0 && len(order) > 0 {
			// free the oldest live frame
			fr := order[0]
			order = order[1:]
			delete(live, fr)
			return m.FreeFrame(fr) == nil
		}
		fr, err := m.AllocFrame()
		if err != nil {
			return false
		}
		if live[fr] {
			return false // double-handout
		}
		live[fr] = true
		order = append(order, fr)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestScramble(t *testing.T) {
	m := testMem(t)
	m.Scramble(1024)
	if got := m.Stats().SmallAllocated; got != 0 {
		t.Fatalf("Scramble leaked %d frames", got)
	}
	// After scrambling, two consecutive allocations should usually not be
	// physically adjacent (the point of the warm-up).
	a, _ := m.AllocFrame()
	b, _ := m.AllocFrame()
	if b == a+1 {
		t.Fatalf("post-scramble frames are contiguous (%d, %d)", a, b)
	}
}
