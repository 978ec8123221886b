// Package ivy implements the baseline the paper positions itself
// against (§5): Ivy-style shared virtual memory with strict coherence —
// a single directory-based write-invalidate protocol applied uniformly
// at page granularity, with a single writer per page.
//
// Implementation: the shared virtual address space is carved into
// fixed-size pages, each managed as one Conventional (Ivy-like
// write-invalidate) object by the same protocol engine Munin uses. All
// annotations passed to Alloc are ignored — that one-size-fits-all
// treatment is exactly the property under study. Regions are packed
// contiguously (8-byte alignment only), so unrelated data sharing a
// page contends for it: the false sharing the paper calls out ("all
// sharing is on a per-page basis, entailing the possibility of
// significant amounts of false sharing").
package ivy

import (
	"fmt"

	"munin/internal/api"
	"munin/internal/cluster"
	"munin/internal/dlock"
	"munin/internal/duq"
	"munin/internal/lockrank"
	"munin/internal/memory"
	"munin/internal/msg"
	"munin/internal/protocol"
	"munin/internal/threads"
	"munin/internal/transport"
)

// DefaultPageSize matches the 1 KB pages of the era's workstations.
const DefaultPageSize = 1024

// Config configures an Ivy system.
type Config struct {
	// Nodes is the number of simulated processors.
	Nodes int
	// PageSize is the coherence granularity (default 1024 bytes).
	PageSize int
	// Transport and Cost mirror core.Config.
	Transport string
	Cost      transport.CostModel
	// Placement maps thread IDs to nodes; nil = round robin.
	Placement threads.Placement
}

// System is a running Ivy instance. It implements api.System.
type System struct {
	cfg   Config
	clu   *cluster.Cluster
	locks []*dlock.Service
	nodes []*protocol.Node

	mu       lockrank.Mutex[lockrank.IvySystem]
	regions  []region
	nextAddr int
	numPages int
	nextLck  uint32
	nextBar  uint32
	nextAtm  uint32
	closed   bool
}

type region struct {
	base, size int
}

var _ api.System = (*System)(nil)

// pageObjBase offsets page object IDs away from zero.
const pageObjBase = 1 << 20

// New builds and starts an Ivy system.
func New(cfg Config) (*System, error) {
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	clu, err := cluster.New(cluster.Config{
		Nodes: cfg.Nodes, Transport: cfg.Transport, Cost: cfg.Cost,
	})
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, clu: clu, nextLck: 1, nextBar: 1, nextAtm: 1}
	for i := 0; i < cfg.Nodes; i++ {
		k := clu.Kernel(msg.NodeID(i))
		ls := dlock.NewService(k)
		s.locks = append(s.locks, ls)
		s.nodes = append(s.nodes, protocol.NewNode(k, ls))
	}
	return s, nil
}

// Name implements api.System.
func (s *System) Name() string { return "ivy" }

// Nodes implements api.System.
func (s *System) Nodes() int { return s.cfg.Nodes }

// PageSize returns the coherence granularity.
func (s *System) PageSize() int { return s.cfg.PageSize }

// Alloc implements api.System. The annotation and options are ignored:
// Ivy applies the same strict write-invalidate protocol to everything.
func (s *System) Alloc(name string, size int, _ protocol.Annotation, _ protocol.Options, init []byte) api.RegionID {
	if size <= 0 {
		panic(fmt.Sprintf("ivy: alloc %q: size must be positive", name))
	}
	s.mu.Lock()
	base := s.nextAddr
	s.nextAddr += (size + 7) &^ 7 // 8-byte alignment, no page alignment
	id := api.RegionID(len(s.regions))
	s.regions = append(s.regions, region{base: base, size: size})
	needPages := (s.nextAddr + s.cfg.PageSize - 1) / s.cfg.PageSize
	newPages := make([]int, 0)
	for p := s.numPages; p < needPages; p++ {
		newPages = append(newPages, p)
	}
	s.numPages = needPages
	s.mu.Unlock()

	// Install the newly needed pages on every node; nothing is sent.
	for _, p := range newPages {
		meta := protocol.Meta{
			ID:    memory.ObjectID(pageObjBase + p),
			Name:  fmt.Sprintf("page-%d", p),
			Size:  s.cfg.PageSize,
			Annot: protocol.Conventional,
			Opts:  protocol.DefaultOptions(),
		}
		for _, n := range s.nodes {
			n.InstallLocal(meta, nil)
		}
	}

	if init != nil {
		if len(init) != size {
			panic(fmt.Sprintf("ivy: alloc %q: init length %d != size %d", name, len(init), size))
		}
		// Setup-time initialization through the normal write path.
		q := duq.New()
		s.access(q, 0, id, 0, init, true)
	}
	return id
}

// NewLock implements api.System.
func (s *System) NewLock() dlock.LockID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := dlock.LockID(s.nextLck)
	s.nextLck++
	return id
}

// NewBarrier implements api.System.
func (s *System) NewBarrier() dlock.BarrierID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := dlock.BarrierID(s.nextBar)
	s.nextBar++
	return id
}

// NewAtomic implements api.System.
func (s *System) NewAtomic() dlock.AtomicID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := dlock.AtomicID(s.nextAtm)
	s.nextAtm++
	return id
}

// access translates a region access into per-page protocol operations.
func (s *System) access(q *duq.Queue, node int, r api.RegionID, off int, buf []byte, write bool) {
	s.mu.Lock()
	if int(r) < 0 || int(r) >= len(s.regions) {
		s.mu.Unlock()
		panic(fmt.Sprintf("ivy: unknown region %d", r))
	}
	reg := s.regions[r]
	s.mu.Unlock()
	if off < 0 || off+len(buf) > reg.size {
		panic(fmt.Sprintf("ivy: access [%d,%d) out of range for region %d (size %d)",
			off, off+len(buf), r, reg.size))
	}
	addr := reg.base + off
	ps := s.cfg.PageSize
	for len(buf) > 0 {
		page := addr / ps
		inPage := addr % ps
		n := ps - inPage
		if n > len(buf) {
			n = len(buf)
		}
		oid := memory.ObjectID(pageObjBase + page)
		if write {
			s.nodes[node].Write(q, oid, inPage, buf[:n])
		} else {
			s.nodes[node].Read(q, oid, inPage, buf[:n])
		}
		addr += n
		buf = buf[n:]
	}
}

// Run implements api.System.
func (s *System) Run(nthreads int, body func(c api.Ctx)) {
	threads.SPMD(s.cfg.Nodes, nthreads, s.cfg.Placement, func(t *threads.Thread) {
		q, node := duq.New(), s.nodes[t.Node]
		node.Attach(q)
		defer node.Detach(q)
		body(&Ctx{sys: s, thread: t, queue: q})
	})
}

// Messages implements api.System.
func (s *System) Messages() int64 { return s.clu.Stats().Messages() }

// Bytes implements api.System.
func (s *System) Bytes() int64 { return s.clu.Stats().Bytes() }

// Stats exposes network accounting for the harness.
func (s *System) Stats() *transport.Stats { return s.clu.Stats() }

// Close implements api.System.
func (s *System) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.clu.Close()
}

// Ctx is one thread's handle to the Ivy system. Strict coherence means
// there is nothing to flush: every write is globally visible before the
// Write call returns (single-writer invalidation).
type Ctx struct {
	sys    *System
	thread *threads.Thread
	queue  *duq.Queue // carries the thread's counter cells; Conventional pages buffer nothing in it
}

var _ api.Ctx = (*Ctx)(nil)

// ThreadID implements api.Ctx.
func (c *Ctx) ThreadID() int { return c.thread.ID }

// NThreads implements api.Ctx.
func (c *Ctx) NThreads() int { return c.thread.NThreads }

// Node implements api.Ctx.
func (c *Ctx) Node() int { return int(c.thread.Node) }

// Read implements api.Ctx.
func (c *Ctx) Read(r api.RegionID, off int, buf []byte) {
	c.sys.access(c.queue, int(c.thread.Node), r, off, buf, false)
}

// Write implements api.Ctx.
func (c *Ctx) Write(r api.RegionID, off int, data []byte) {
	c.sys.access(c.queue, int(c.thread.Node), r, off, data, true)
}

// Acquire implements api.Ctx.
func (c *Ctx) Acquire(l dlock.LockID) { c.sys.locks[c.thread.Node].Acquire(l) }

// Release implements api.Ctx.
func (c *Ctx) Release(l dlock.LockID) { c.sys.locks[c.thread.Node].Release(l) }

// Barrier implements api.Ctx.
func (c *Ctx) Barrier(b dlock.BarrierID, n int) { c.sys.locks[c.thread.Node].BarrierWait(b, n) }

// FetchAdd implements api.Ctx.
func (c *Ctx) FetchAdd(a dlock.AtomicID, delta int64) int64 {
	return c.sys.locks[c.thread.Node].FetchAdd(a, delta)
}

// Flush implements api.Ctx (no-op: strict coherence has no delayed
// updates).
func (c *Ctx) Flush() {}
