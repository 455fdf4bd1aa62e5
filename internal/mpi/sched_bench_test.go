package mpi

import (
	"testing"

	"repro/internal/machine"
)

// BenchmarkSendrecv8 drives one full ring exchange (every rank Sendrecvs
// its right neighbour) of 64 KiB rendezvous messages across 8 ranks per
// iteration — the shape of the IMB SendRecv inner loop. It measures the
// per-exchange overhead of the execution engine: under the old
// goroutine-pair design each exchange cost a forked OS goroutine plus
// three gate handshakes per rank; under the event scheduler it is a
// deterministic sequence of task switches.
func BenchmarkSendrecv8(b *testing.B) {
	benchRing(b, 8, 64<<10)
}

// BenchmarkSendrecv1MiB measures one steady-state head-to-head 1 MiB
// Sendrecv between two ranks per iteration, on a World built and warmed
// outside the timed region. Its B/op is the host allocation of the
// rendezvous payload path: the gathers reuse pooled payload buffers.
func BenchmarkSendrecv1MiB(b *testing.B) {
	b.ReportAllocs()
	run := sendrecvPair(b, 1<<20)
	run(1)
	b.ResetTimer()
	run(b.N)
}

// BenchmarkWorldRun1024 builds a 1024-rank world and runs one eager ring
// exchange — the world-construction plus event-dispatch cost that
// dominates at scale. Pre-refactor this allocated over a million peer
// channels (with 64 prefilled credit tokens each) before the first
// message moved.
func BenchmarkWorldRun1024(b *testing.B) {
	benchRing(b, 1024, 4<<10)
}

func benchRing(b *testing.B, ranks, bytes int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(Config{
			Machine: machine.Opteron(), Ranks: ranks,
			Allocator: AllocHuge, LazyDereg: true, HugeATT: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(r *Rank) error {
			sva, err := r.Malloc(uint64(bytes))
			if err != nil {
				return err
			}
			rva, err := r.Malloc(uint64(bytes))
			if err != nil {
				return err
			}
			right := (r.ID() + 1) % r.Size()
			left := (r.ID() - 1 + r.Size()) % r.Size()
			for it := 0; it < 4; it++ {
				if _, err := r.Sendrecv(right, it, sva, bytes, left, it, rva, bytes); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
