package protocol

import (
	"fmt"
	"sync"
	"testing"

	"munin/internal/duq"
)

// TestGeneralRWUpgradeNoDeadlock exercises the scenario that can
// deadlock a naive owner-fetch design: a Berkeley dirty owner whose
// copy was downgraded to shared (after serving readers) requests
// exclusive ownership again while other nodes' requests are queued
// ahead of it at the home, and the home fetches from it mid-queue.
func TestGeneralRWUpgradeNoDeadlock(t *testing.T) {
	const nodes = 4
	r := newRig(t, nodes)
	r.alloc(1, "g", 8, GeneralRW, DefaultOptions(), nil)

	// Completion within go test's timeout is the assertion.
	var wg sync.WaitGroup
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			q := duq.New()
			buf := make([]byte, 8)
			for i := 0; i < 50; i++ {
				// Read (become a sharer / serve as dirty owner),
				// then immediately upgrade.
				r.nodes[node].Read(q, 1, 0, buf)
				r.nodes[node].Write(q, 1, 0, []byte{byte(node), byte(i), 0, 0, 0, 0, 0, 0})
			}
		}(node)
	}
	wg.Wait()
}

// TestGeneralRWStrictPhases is the strict-coherence phase stress over
// the Berkeley protocol (dirty sharing must still never serve stale
// data after a barrier).
func TestGeneralRWStrictPhases(t *testing.T) {
	const nodes = 4
	const rounds = 30
	r := newRig(t, nodes)
	r.alloc(1, "g", 8, GeneralRW, DefaultOptions(), nil)

	var wg sync.WaitGroup
	errs := make(chan string, nodes*rounds)
	phases := make([]*sync.WaitGroup, rounds*2)
	for i := range phases {
		phases[i] = &sync.WaitGroup{}
		phases[i].Add(nodes)
	}
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			q := duq.New()
			buf := make([]byte, 8)
			for round := 0; round < rounds; round++ {
				writer := (round / 2) % nodes
				if node == writer {
					buf[0], buf[1] = byte(round), byte(node)
					r.nodes[node].Write(q, 1, 0, buf)
				}
				phases[round*2].Done()
				phases[round*2].Wait()
				got := make([]byte, 8)
				r.nodes[node].Read(q, 1, 0, got)
				if got[0] != byte(round) || got[1] != byte(writer) {
					errs <- fmt.Sprintf("round %d node %d read (%d,%d), want (%d,%d)",
						round, node, got[0], got[1], round, writer)
				}
				phases[round*2+1].Done()
				phases[round*2+1].Wait()
			}
		}(node)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestReadMostlyDynamicUnderMixedLoad drives the dynamic switch while
// writes keep flowing: values must stay coherent across the transition.
func TestReadMostlyDynamicUnderMixedLoad(t *testing.T) {
	r := newRig(t, 3)
	opts := DefaultOptions()
	opts.Dynamic = true
	opts.Home = 0
	r.alloc(1, "rm", 8, ReadMostly, opts, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer on node 0 (the home), monotonically increasing values.
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := duq.New()
		for i := uint64(1); i <= 60; i++ {
			var b [8]byte
			b[7] = byte(i)
			b[6] = byte(i >> 8)
			r.nodes[0].Write(q, 1, 0, b[:])
		}
		close(stop)
	}()
	// Readers on nodes 1,2: values must never go backwards.
	for n := 1; n < 3; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			q := duq.New()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := readU64(r.nodes[n], q, 1, 0)
				if v < last {
					t.Errorf("node %d: value went backwards %d -> %d", n, last, v)
					return
				}
				last = v
			}
		}(n)
	}
	wg.Wait()
}
