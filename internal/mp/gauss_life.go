package mp

import (
	"fmt"
	"sync"

	"munin/internal/msg"
	"munin/internal/vkernel"
)

// Gauss runs hand-coded message-passing forward elimination: rows are
// scattered cyclically, the owner of each pivot row multicasts it, and
// the reduced rows are gathered at the master. This is the minimal
// communication pattern for the algorithm: one broadcast per step plus
// scatter/gather.
func (h *Harness) Gauss(n int, elem func(i, j int) float64) float64 {
	p := h.Nodes()

	// Every node generates its own cyclic rows locally (the scatter is
	// free because the generator is a pure function; a real code would
	// scatter — we charge a scatter message per worker to stay honest).
	// Pivot broadcasts from different owners are not globally ordered
	// on the network, so each carries its step number and receivers
	// buffer by step.
	type nodeState struct {
		rows map[int][]float64
		mu   sync.Mutex
		cond *sync.Cond
		pivs map[int][]float64
	}
	states := make([]*nodeState, p)
	for w := 0; w < p; w++ {
		st := &nodeState{rows: make(map[int][]float64), pivs: make(map[int][]float64)}
		st.cond = sync.NewCond(&st.mu)
		for r := w; r < n; r += p {
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				row[j] = elem(r, j)
			}
			st.rows[r] = row
		}
		states[w] = st
		k := h.kernels[w]
		k.Handle(kindPivot, kindPivot, func(k *vkernel.Kernel, req *msg.Msg) {
			r := msg.NewReader(req.Payload)
			step := r.Int()
			row := bytesToF64s(r.BytesN())
			st.mu.Lock()
			st.pivs[step] = row
			st.cond.Broadcast()
			st.mu.Unlock()
		})
	}
	// Charge the scatter (master → workers: their row blocks).
	for w := 1; w < p; w++ {
		rows := (n + p - 1 - w) / p
		h.kernels[0].Send(msg.NodeID(w), kindScatter, make([]byte, rows*n*8))
	}

	members := make([]msg.NodeID, p)
	for i := range members {
		members[i] = msg.NodeID(i)
	}

	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := states[w]
			for k := 0; k < n-1; k++ {
				owner := k % p
				var piv []float64
				if owner == w {
					piv = st.rows[k]
					payload := msg.NewBuilder(16 + n*8).Int(k).BytesN(f64sToBytes(piv)).Bytes()
					if err := h.kernels[w].MulticastTo(members, kindPivot, payload); err != nil {
						panic(fmt.Sprintf("mp.gauss: %v", err))
					}
				} else {
					st.mu.Lock()
					for st.pivs[k] == nil {
						st.cond.Wait()
					}
					piv = st.pivs[k]
					delete(st.pivs, k)
					st.mu.Unlock()
				}
				for r, row := range st.rows {
					if r <= k {
						continue
					}
					factor := row[k] / piv[k]
					row[k] = 0
					for j := k + 1; j < n; j++ {
						row[j] -= factor * piv[j]
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Gather: workers send their reduced rows to the master.
	sum := 0.0
	for w := 0; w < p; w++ {
		if w != 0 {
			flat := make([]float64, 0, len(states[w].rows)*n)
			for r := w; r < n; r += p {
				flat = append(flat, states[w].rows[r]...)
			}
			h.kernels[msg.NodeID(w)].Send(0, kindGather, f64sToBytes(flat))
		}
		for _, row := range states[w].rows {
			for _, v := range row {
				sum += v
			}
		}
	}
	return sum
}

// Life runs the hand-coded message-passing game of life: bands are
// generated locally, each generation exchanges one boundary row with
// each neighbor (the textbook halo exchange), and live counts are
// gathered at the end.
func (h *Harness) Life(rows, cols, gens int, aliveAtInit func(r, c int) bool) int {
	p := h.Nodes()
	if p > rows {
		panic("mp.life: more nodes than rows")
	}

	// Handlers run concurrently, so halo messages are tagged with their
	// generation and direction and retrieved by key — one-way streams
	// have no ordering guarantee across handler goroutines.
	type halo struct {
		mu   sync.Mutex
		cond *sync.Cond
		rows map[[2]int][]byte // (generation, 0=fromAbove 1=fromBelow)
	}
	halos := make([]*halo, p)
	for w := 0; w < p; w++ {
		hl := &halo{rows: make(map[[2]int][]byte)}
		hl.cond = sync.NewCond(&hl.mu)
		halos[w] = hl
		k := h.kernels[w]
		me := msg.NodeID(w)
		k.Handle(kindHalo, kindHalo, func(k *vkernel.Kernel, req *msg.Msg) {
			r := msg.NewReader(req.Payload)
			gen := r.Int()
			row := r.BytesN() // the handler keeps what it is handed (transport.Endpoint.Recv)
			dir := 1
			if req.From < me {
				dir = 0
			}
			hl.mu.Lock()
			hl.rows[[2]int{gen, dir}] = row
			hl.cond.Broadcast()
			hl.mu.Unlock()
		})
	}
	haloPayload := func(gen int, row []byte) []byte {
		return msg.NewBuilder(12 + len(row)).Int(gen).BytesN(row).Bytes()
	}
	waitHalo := func(w, gen, dir int) []byte {
		hl := halos[w]
		hl.mu.Lock()
		defer hl.mu.Unlock()
		key := [2]int{gen, dir}
		for hl.rows[key] == nil {
			hl.cond.Wait()
		}
		row := hl.rows[key]
		delete(hl.rows, key)
		return row
	}

	counts := make([]int, p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := part(rows, p, w)
			nr := hi - lo
			cur := make([]byte, nr*cols)
			for r := 0; r < nr; r++ {
				for c := 0; c < cols; c++ {
					if aliveAtInit(lo+r, c) {
						cur[r*cols+c] = 1
					}
				}
			}
			next := make([]byte, nr*cols)
			dead := make([]byte, cols)
			for g := 0; g < gens; g++ {
				// Halo exchange: send boundary rows, receive neighbors'.
				if w > 0 {
					h.kernels[w].Send(msg.NodeID(w-1), kindHalo, haloPayload(g, cur[:cols]))
				}
				if w < p-1 {
					h.kernels[w].Send(msg.NodeID(w+1), kindHalo, haloPayload(g, cur[(nr-1)*cols:]))
				}
				above, below := dead, dead
				if w > 0 {
					above = waitHalo(w, g, 0)
				}
				if w < p-1 {
					below = waitHalo(w, g, 1)
				}
				rowAt := func(r int) []byte {
					switch {
					case r < 0:
						if w > 0 {
							return above
						}
						return nil
					case r >= nr:
						if w < p-1 {
							return below
						}
						return nil
					default:
						return cur[r*cols : (r+1)*cols]
					}
				}
				for r := 0; r < nr; r++ {
					up, mid, down := rowAt(r-1), rowAt(r), rowAt(r+1)
					for x := 0; x < cols; x++ {
						nn := 0
						for dx := -1; dx <= 1; dx++ {
							xx := x + dx
							if xx < 0 || xx >= cols {
								continue
							}
							if up != nil && up[xx] == 1 {
								nn++
							}
							if down != nil && down[xx] == 1 {
								nn++
							}
							if dx != 0 && mid[xx] == 1 {
								nn++
							}
						}
						alive := mid[x] == 1
						if alive && (nn == 2 || nn == 3) || !alive && nn == 3 {
							next[r*cols+x] = 1
						} else {
							next[r*cols+x] = 0
						}
					}
				}
				cur, next = next, cur
			}
			nAlive := 0
			for _, v := range cur {
				if v == 1 {
					nAlive++
				}
			}
			counts[w] = nAlive
			if w != 0 {
				h.kernels[w].Send(0, kindGather, []byte{byte(nAlive >> 8), byte(nAlive)})
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}
