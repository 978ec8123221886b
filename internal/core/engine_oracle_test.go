package core

import (
	"bytes"
	"testing"

	"munin/internal/api"
	"munin/internal/protocol"
)

// sumCounter adds a named protocol counter across every node.
func sumCounter(s *System, name string) int64 {
	var total int64
	for i := 0; i < s.Nodes(); i++ {
		total += s.NodeCounters(i)[name]
	}
	return total
}

// engineOpts returns default options with the object on the lease engine
// or on the directory engine.
func engineOpts(lease bool) protocol.Options {
	opts := protocol.DefaultOptions()
	opts.Engine = protocol.EngineDirectory
	if lease {
		opts.Engine = protocol.EngineLease
	}
	return opts
}

// TestPerObjectEngineOverride: Options.Engine selects the lease engine
// for one object.
func TestPerObjectEngineOverride(t *testing.T) {
	s := newSys(t, 2)
	opts := protocol.DefaultOptions()
	opts.Engine = protocol.EngineLease
	r := s.Alloc("rm", 8, protocol.ReadMostly, opts, nil)
	s.Run(2, func(c api.Ctx) {
		var b [8]byte
		c.Read(r, 0, b[:])
	})
	if sumCounter(s, "lease.granted") == 0 {
		t.Fatal("per-object engine option ignored")
	}
}

// TestLeaseEngineDifferentialOracle runs one synchronized read-mostly
// workload with the object on the lease engine and on the directory
// engine (Options.Engine): every synchronized read must see the
// preceding write under both engines, and the final shared memory must
// be byte-identical.
func TestLeaseEngineDifferentialOracle(t *testing.T) {
	const nodes, threads, rounds, size = 3, 6, 8, 64

	final := func(lease bool) []byte {
		s, err := New(Config{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		r := s.Alloc("rm", size, protocol.ReadMostly, engineOpts(lease), nil)
		bar := s.NewBarrier()
		s.Run(threads, func(c api.Ctx) {
			for round := 0; round < rounds; round++ {
				want := uint64(round*97 + 13)
				if c.ThreadID() == round%threads {
					api.WriteU64(c, r, (round%8)*8, want)
				}
				// The barrier is a synchronization point: the write
				// happened before the writer entered it, every other
				// thread synchronized after — so the read below must
				// see it under EITHER engine (§3.2).
				c.Barrier(bar, threads)
				if got := api.ReadU64(c, r, (round%8)*8); got != want {
					t.Errorf("lease=%v round %d: thread %d read %d, want %d",
						lease, round, c.ThreadID(), got, want)
				}
				c.Barrier(bar, threads)
			}
		})
		out := make([]byte, size)
		s.Run(1, func(c api.Ctx) { c.Read(r, 0, out) })
		return out
	}

	off, on := final(false), final(true)
	if !bytes.Equal(off, on) {
		t.Fatalf("final memory diverged between engines\ndirectory: %x\nlease:     %x", off, on)
	}
	if bytes.Equal(on, make([]byte, size)) {
		t.Fatal("oracle memory all zero — vacuous")
	}
}

// TestF1WorkloadLeaseOracle replays the Figure 1 workload (write-many
// object, writer/reader around barriers) beside a read-mostly object on
// the lease engine and on the directory engine: the lease object must
// not disturb write-many coherence, and the post-synchronization read is
// 42 either way.
func TestF1WorkloadLeaseOracle(t *testing.T) {
	for _, lease := range []bool{false, true} {
		s, err := New(Config{Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		rm := s.Alloc("rm", 8, protocol.ReadMostly, engineOpts(lease), nil)
		r := s.Alloc("x", 8, protocol.WriteMany, protocol.DefaultOptions(), nil)
		bar := s.NewBarrier()
		var before, after uint64
		s.Run(2, func(c api.Ctx) {
			switch c.ThreadID() {
			case 0:
				api.WriteU64(c, rm, 0, 7)
				api.WriteU64(c, r, 0, 41)
				c.Barrier(bar, 2)
				api.WriteU64(c, r, 0, 42)
				c.Barrier(bar, 2)
			case 1:
				c.Barrier(bar, 2)
				before = api.ReadU64(c, r, 0)
				c.Barrier(bar, 2)
				after = api.ReadU64(c, r, 0)
				if got := api.ReadU64(c, rm, 0); got != 7 {
					t.Errorf("lease=%v: read-mostly object reads %d after sync, want 7", lease, got)
				}
			}
		})
		if before != 41 && before != 42 {
			t.Fatalf("lease=%v: pre-sync read %d, want 41 or 42", lease, before)
		}
		if after != 42 {
			t.Fatalf("lease=%v: post-sync read %d, want 42", lease, after)
		}
		s.Close()
	}
}
