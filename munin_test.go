package munin

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"munin/internal/bufpool"
)

// Facade-level tests: the public API a downstream user sees.

func TestQuickstartShape(t *testing.T) {
	sys, err := New(Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	counter := sys.Alloc("counter", 8, Conventional, DefaultOptions(), nil)
	lock := sys.NewLock()
	sys.Run(8, func(c Ctx) {
		c.Acquire(lock)
		WriteU64(c, counter, 0, ReadU64(c, counter, 0)+1)
		c.Release(lock)
	})
	var got uint64
	sys.Run(1, func(c Ctx) { got = ReadU64(c, counter, 0) })
	if got != 8 {
		t.Fatalf("counter = %d, want 8", got)
	}
}

func TestAllAnnotationsUsableThroughFacade(t *testing.T) {
	sys, err := New(Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	lock := sys.NewLock()
	migOpts := DefaultOptions()
	migOpts.Lock = lock
	resOpts := DefaultOptions()
	resOpts.Home = 0

	regions := map[string]RegionID{
		"wo":   sys.Alloc("wo", 8, WriteOnce, DefaultOptions(), []byte{1, 2, 3, 4, 5, 6, 7, 8}),
		"wm":   sys.Alloc("wm", 8, WriteMany, DefaultOptions(), nil),
		"pc":   sys.Alloc("pc", 8, ProducerConsumer, DefaultOptions(), nil),
		"mig":  sys.Alloc("mig", 8, Migratory, migOpts, nil),
		"res":  sys.Alloc("res", 8, Result, resOpts, nil),
		"priv": sys.Alloc("priv", 8, Private, DefaultOptions(), nil),
		"rm":   sys.Alloc("rm", 8, ReadMostly, DefaultOptions(), nil),
		"grw":  sys.Alloc("grw", 8, GeneralRW, DefaultOptions(), nil),
		"conv": sys.Alloc("conv", 8, Conventional, DefaultOptions(), nil),
	}
	bar := sys.NewBarrier()
	var failures atomic.Int32
	sys.Run(3, func(c Ctx) {
		id := c.ThreadID()
		buf := make([]byte, 8)
		// Everyone reads the write-once table.
		c.Read(regions["wo"], 0, buf)
		if buf[0] != 1 {
			failures.Add(1)
		}
		// Write-many: disjoint bytes, visible after the barrier.
		c.Write(regions["wm"], id, []byte{byte(id + 1)})
		// Conventional + general-rw: last write wins, strict.
		WriteU64(c, regions["conv"], 0, uint64(id))
		WriteU64(c, regions["grw"], 0, uint64(id))
		// Read-mostly: remote load/store.
		c.Read(regions["rm"], 0, buf)
		// Private: local only.
		c.Write(regions["priv"], 0, []byte{byte(id)})
		// Migratory under its lock.
		c.Acquire(lock)
		WriteU64(c, regions["mig"], 0, ReadU64(c, regions["mig"], 0)+1)
		c.Release(lock)
		// Result slice.
		c.Write(regions["res"], id*2, []byte{byte(id), byte(id)})
		// Producer-consumer: thread 0 produces.
		if id == 0 {
			WriteU64(c, regions["pc"], 0, 99)
		}
		c.Barrier(bar, 3)
		if got := ReadU64(c, regions["pc"], 0); got != 99 {
			failures.Add(1)
		}
		for i := 0; i < 3; i++ {
			c.Read(regions["wm"], i, buf[:1])
			if buf[0] != byte(i+1) {
				failures.Add(1)
			}
		}
	})
	if failures.Load() != 0 {
		t.Fatalf("%d cross-annotation failures", failures.Load())
	}
	var mig uint64
	sys.Run(1, func(c Ctx) {
		c.Acquire(lock)
		mig = ReadU64(c, regions["mig"], 0)
		c.Release(lock)
	})
	if mig != 3 {
		t.Fatalf("migratory counter = %d, want 3", mig)
	}
}

// TestBuffersBalanceAfterClose: every pooled buffer that 20 rounds over
// all eight shared annotations, a lock and a barrier take is released
// by the time the system has closed, over both in-process transports.
// A reply dropped on an early return, or a send path that forgets its
// buffer, leaves the count short.
func TestBuffersBalanceAfterClose(t *testing.T) {
	for _, tr := range []string{"chan", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			bufpool.CheckBalance(t)
			sys, err := New(Config{Nodes: 3, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys.Close) // runs before CheckBalance's check
			lock := sys.NewLock()
			bar := sys.NewBarrier()
			migOpts := DefaultOptions()
			migOpts.Lock = lock
			resOpts := DefaultOptions()
			resOpts.Home = 0
			wo := sys.Alloc("wo", 8, WriteOnce, DefaultOptions(), []byte{1, 2, 3, 4, 5, 6, 7, 8})
			wm := sys.Alloc("wm", 3, WriteMany, DefaultOptions(), nil)
			pc := sys.Alloc("pc", 8, ProducerConsumer, DefaultOptions(), nil)
			mig := sys.Alloc("mig", 8, Migratory, migOpts, nil)
			res := sys.Alloc("res", 3, Result, resOpts, nil)
			rm := sys.Alloc("rm", 8, ReadMostly, DefaultOptions(), nil)
			grw := sys.Alloc("grw", 8, GeneralRW, DefaultOptions(), nil)
			conv := sys.Alloc("conv", 8, Conventional, DefaultOptions(), nil)
			const rounds = 20
			var failures atomic.Int32
			fail := func(format string, args ...any) {
				if failures.Add(1) == 1 {
					t.Errorf(format, args...)
				}
			}
			sys.Run(3, func(c Ctx) {
				id := c.ThreadID()
				buf := make([]byte, 8)
				for round := 1; round <= rounds; round++ {
					if c.Read(wo, 0, buf); buf[0] != 1 {
						fail("write-once reads %d, want 1", buf[0])
					}
					c.Write(wm, id, []byte{byte(round)})
					c.Write(res, id, []byte{byte(round)})
					WriteU64(c, conv, 0, uint64(round))
					WriteU64(c, grw, 0, ReadU64(c, grw, 0)+1)
					if id == 1 {
						WriteU64(c, rm, 0, uint64(round))
					}
					ReadU64(c, rm, 0)
					if id == 0 {
						WriteU64(c, pc, 0, uint64(round))
					}
					c.Acquire(lock)
					WriteU64(c, mig, 0, ReadU64(c, mig, 0)+1)
					c.Release(lock)
					c.Barrier(bar, 3)
					if got := ReadU64(c, pc, 0); got != uint64(round) {
						fail("round %d: consumer reads %d", round, got)
					}
					c.Read(wm, 0, buf[:3])
					if want := bytes.Repeat([]byte{byte(round)}, 3); !bytes.Equal(buf[:3], want) {
						fail("round %d: write-many reads %x, want %x", round, buf[:3], want)
					}
					c.Barrier(bar, 3)
				}
			})
			sys.Run(1, func(c Ctx) {
				c.Acquire(lock)
				if got := ReadU64(c, mig, 0); got != 3*rounds {
					fail("migratory counter = %d, want %d", got, 3*rounds)
				}
				c.Release(lock)
			})
		})
	}
}

func TestIvyFacade(t *testing.T) {
	sys, err := NewIvy(IvyConfig{Nodes: 2, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	r := sys.Alloc("x", 8, Conventional, DefaultOptions(), nil)
	sys.Run(2, func(c Ctx) {
		if c.ThreadID() == 0 {
			WriteU64(c, r, 0, 7)
		}
	})
	var got uint64
	sys.Run(1, func(c Ctx) { got = ReadU64(c, r, 0) })
	if got != 7 {
		t.Fatalf("ivy read = %d", got)
	}
}

func TestCostModelAccounting(t *testing.T) {
	sys, err := New(Config{Nodes: 2, Cost: DefaultCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	r := sys.Alloc("x", 8, Conventional, DefaultOptions(), nil)
	sys.Run(2, func(c Ctx) { WriteU64(c, r, 0, uint64(c.ThreadID())) })
	if sys.Stats().ModeledNetworkNs() <= 0 {
		t.Fatal("no modeled network time accumulated")
	}
}

// TestQuickstartShapeOverMesh: the identical quickstart program runs as
// two SPMD members of a multi-process cluster, selected by Config
// alone — the facade's "one program, any cluster" promise. (Both
// members live in this test process; they still cross real loopback
// sockets, exactly as two OS processes would.)
func TestQuickstartShapeOverMesh(t *testing.T) {
	addrs := make([]string, 2)
	lns := make([]net.Listener, 0, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	spec := "0=" + addrs[0] + ",1=" + addrs[1]

	program := func(self NodeID, got *uint64) error {
		topo, err := ParsePeers(spec, self)
		if err != nil {
			return err
		}
		sys, err := New(Config{Topology: &topo})
		if err != nil {
			return err
		}
		defer sys.Close()
		counter := sys.Alloc("counter", 8, Conventional, DefaultOptions(), nil)
		lock := sys.NewLock()
		bar := sys.NewBarrier()
		sys.Run(8, func(c Ctx) {
			c.Acquire(lock)
			WriteU64(c, counter, 0, ReadU64(c, counter, 0)+1)
			c.Release(lock)
			c.Barrier(bar, 8)
			if c.ThreadID() == 0 {
				*got = ReadU64(c, counter, 0)
			}
		})
		return nil
	}

	var wg sync.WaitGroup
	var got0 uint64
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sink uint64
			p := &sink
			if i == 0 {
				p = &got0 // thread 0 runs in member 0
			}
			errs[i] = program(NodeID(i), p)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	if got0 != 8 {
		t.Fatalf("counter over the mesh = %d, want 8", got0)
	}
}
