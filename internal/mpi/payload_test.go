package mpi

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/vm"
)

// payloadPattern is the content of message i from rank src: distinct per
// message, so a recycled buffer that kept any of the previous message's
// bytes shows up as a mismatch.
func payloadPattern(src, i, n int) []byte {
	p := make([]byte, n)
	for k := range p {
		p[k] = byte(k*31 + i*17 + src*101 + 1)
	}
	return p
}

// TestRecycledPayloadsNeverAlias exchanges back-to-back messages of equal
// size with different contents over every payload path, so every
// message after the first rides in a buffer that already carried one.
// The last message comes from memory that was never written: it must
// arrive as zeros, not as its recycled buffer's previous contents.
func TestRecycledPayloadsNeverAlias(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		proto string
	}{
		{"eager", 1 << 10, "write"},
		{"copy-pipeline", 12 << 10, "write"},
		{"write-rendezvous", 256 << 10, "write"},
		{"read-rendezvous", 256 << 10, "read"},
	}
	const msgs = 4
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultCfg(2)
			cfg.RendezvousProtocol = tc.proto
			w := mustWorld(t, cfg)
			err := w.Run(func(r *Rank) error {
				peer := 1 - r.ID()
				sva := make([]vm.VA, msgs+1)
				for i := range msgs {
					va, err := r.Malloc(uint64(tc.n))
					if err != nil {
						return err
					}
					sva[i] = va
					if err := r.WriteBytes(va, payloadPattern(r.ID(), i, tc.n)); err != nil {
						return err
					}
				}
				// The last message starts on a page boundary inside a
				// region nothing writes, so no frame it touches holds
				// another buffer's bytes.
				zva, err := r.Malloc(uint64(tc.n) + 2*machine.SmallPageSize)
				if err != nil {
					return err
				}
				sva[msgs] = (zva + machine.SmallPageSize - 1) &^ (machine.SmallPageSize - 1)
				rva, err := r.Malloc(uint64(tc.n))
				if err != nil {
					return err
				}
				check := func(i int, want []byte) error {
					got := make([]byte, tc.n)
					if err := r.ReadBytes(rva, got); err != nil {
						return err
					}
					if !bytes.Equal(got, want) {
						return fmt.Errorf("rank %d message %d: payload differs from its send", r.ID(), i)
					}
					return nil
				}
				// Head to head: both directions share the pool.
				for i := 0; i <= msgs; i++ {
					if _, err := r.Sendrecv(peer, i, sva[i], tc.n, peer, i, rva, tc.n); err != nil {
						return err
					}
					want := make([]byte, tc.n)
					if i < msgs {
						want = payloadPattern(peer, i, tc.n)
					}
					if err := check(i, want); err != nil {
						return err
					}
				}
				// One direction, all sends posted before the receives
				// where the protocol allows: several payloads in flight.
				if r.ID() == 0 {
					for i := 0; i < msgs; i++ {
						if err := r.Send(1, 100+i, sva[i], tc.n); err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < msgs; i++ {
					if _, err := r.Recv(0, 100+i, rva, tc.n); err != nil {
						return err
					}
					if err := check(100+i, payloadPattern(0, i, tc.n)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(w.payloads[tc.n]) == 0 {
				t.Fatalf("no %d-byte payload was returned to the pool", tc.n)
			}
		})
	}
}

// TestRecycledGatheredPayloadsNeverAlias is the SendGathered→RecvUnpack
// leg of TestRecycledPayloadsNeverAlias.
func TestRecycledGatheredPayloadsNeverAlias(t *testing.T) {
	const pieceLen, npieces, msgs = 96, 8, 4
	w := mustWorld(t, defaultCfg(2))
	err := w.Run(func(r *Rank) error {
		// Message msgs gathers from a region that was never written.
		bases := make([]vm.VA, msgs+1)
		for i := range bases {
			va, err := r.Malloc(npieces * 1024)
			if err != nil {
				return err
			}
			bases[i] = va
		}
		pieces := func(base vm.VA) []Piece {
			ps := make([]Piece, npieces)
			for k := range ps {
				ps[k] = Piece{VA: base + vm.VA(k*1024), Len: pieceLen}
			}
			return ps
		}
		if r.ID() == 0 {
			for i := 0; i <= msgs; i++ {
				if i < msgs {
					want := payloadPattern(0, i, pieceLen*npieces)
					for k, p := range pieces(bases[i]) {
						if err := r.WriteBytes(p.VA, want[k*pieceLen:(k+1)*pieceLen]); err != nil {
							return err
						}
					}
				}
				if err := r.SendGathered(1, i, pieces(bases[i])); err != nil {
					return err
				}
				// Wait for the ack, so the next gather draws the
				// buffer this message returned to the pool.
				if _, err := r.Recv(1, i, bases[i], 0); err != nil {
					return err
				}
			}
			return nil
		}
		dst := pieces(bases[0])
		for i := 0; i <= msgs; i++ {
			if err := r.RecvUnpack(0, i, dst); err != nil {
				return err
			}
			want := make([]byte, pieceLen*npieces)
			if i < msgs {
				want = payloadPattern(0, i, pieceLen*npieces)
			}
			for k, p := range dst {
				got := make([]byte, pieceLen)
				if err := r.ReadBytes(p.VA, got); err != nil {
					return err
				}
				if !bytes.Equal(got, want[k*pieceLen:(k+1)*pieceLen]) {
					return fmt.Errorf("message %d piece %d: payload differs from its send", i, k)
				}
			}
			if err := r.Send(0, i, dst[0].VA, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.payloads[pieceLen*npieces]) == 0 {
		t.Fatal("no gathered payload was returned to the pool")
	}
}

// sendrecvPair builds a 2-rank World and returns a function that runs
// iters head-to-head n-byte Sendrecv exchanges on it, each rank sending
// from and receiving into buffers allocated on the first call.
func sendrecvPair(tb testing.TB, n int) func(iters int) {
	w := mustWorld(tb, defaultCfg(2))
	sva := make([]vm.VA, 2)
	rva := make([]vm.VA, 2)
	return func(iters int) {
		err := w.Run(func(r *Rank) error {
			id := r.ID()
			if sva[id] == 0 {
				var err error
				if sva[id], err = r.Malloc(uint64(n)); err != nil {
					return err
				}
				if rva[id], err = r.Malloc(uint64(n)); err != nil {
					return err
				}
			}
			peer := 1 - id
			for it := 0; it < iters; it++ {
				if _, err := r.Sendrecv(peer, it, sva[id], n, peer, it, rva[id], n); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// TestSendrecvSteadyStateAllocation gates the host allocation of a
// 1 MiB head-to-head Sendrecv once the payload pool is warm. Each
// iteration moves 2 MiB of payload; recycled gather buffers keep the
// heap traffic to the per-message control structures.
func TestSendrecvSteadyStateAllocation(t *testing.T) {
	const iters, perIterLimit = 16, 64 << 10
	run := sendrecvPair(t, 1<<20)
	run(1) // warm-up: buffers, registrations, the payload pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(iters)
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / iters; per >= perIterLimit {
		t.Fatalf("steady-state 1 MiB Sendrecv allocates %d B per iteration, want < %d", per, perIterLimit)
	}
}
