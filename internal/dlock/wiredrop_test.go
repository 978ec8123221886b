package dlock

import (
	"bytes"
	"testing"
	"time"

	"munin/internal/msg"
)

// A lock message a peer sends is input, not a local program's bug:
// whatever it names, the member counts a drop and goes on serving. Each
// case is sent from node 1 to node 0 over the harness's transport, so a
// handler that panicked would take the test binary with it. A forwarded
// case goes as a home's forward does (vkernel.Forward), naming node 1
// as the waiter.
func TestLockWireInputIsDroppedNotFatal(t *testing.T) {
	// Lock 0 is homed on node 0, lock 1 on node 1 (cluster.HomeOf).
	truncated := encodeLockPayload(0, []byte{1, 2, 3})
	truncated = truncated[:len(truncated)-1]
	cases := []struct {
		name    string
		kind    msg.Kind
		forward bool
		payload []byte
		counter string
	}{
		{"kindAcquire with a truncated payload", kindAcquire, false, []byte{0, 0}, "dlock.drop_malformed"},
		{"kindAcquire for a lock homed on another node", kindAcquire, false, encodeLockPayload(1, nil), "dlock.drop_misdirected"},
		{"kindRelease with truncated data", kindRelease, false, truncated, "dlock.drop_malformed"},
		{"kindRelease for a lock homed on another node", kindRelease, false, encodeLockPayload(1, []byte{9}), "dlock.drop_misdirected"},
		{"kindPass with an empty payload", kindPass, true, nil, "dlock.drop_malformed"},
		{"kindPass with a truncated payload", kindPass, true, []byte{0, 0}, "dlock.drop_malformed"},
		{"kindPass that names no caller", kindPass, false, encodeLockPayload(0, nil), "dlock.drop_malformed"},
		{"kindPass for a lock this node neither owns nor requests", kindPass, true, encodeLockPayload(1, nil), "dlock.drop_forward"},
		{"kindRevoke with a truncated payload", kindRevoke, false, []byte{0, 0}, "dlock.drop_malformed"},
		{"kindRevoke not from the lock's home", kindRevoke, false, msg.NewBuilder(16).U32(0).U32(1).U64(1).Bytes(), "dlock.drop_misdirected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, svcs := harness(t, 2)
			k := c.Kernel(0)
			before := k.C.Snapshot()
			send := c.Kernel(1).Send
			if tc.forward {
				send = func(dst msg.NodeID, kind msg.Kind, payload []byte) error {
					return c.Kernel(1).Forward(&msg.Msg{From: 1}, dst, kind, payload)
				}
			}
			if err := send(0, tc.kind, tc.payload); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); k.C.Get(tc.counter) == before[tc.counter]; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s never counted", tc.counter)
				}
			}
			after := k.C.Snapshot()
			for _, name := range []string{"dlock.drop_malformed", "dlock.drop_misdirected", "dlock.drop_forward"} {
				want := before[name]
				if name == tc.counter {
					want++
				}
				if after[name] != want {
					t.Errorf("%s moved from %d to %d, want %d", name, before[name], after[name], want)
				}
			}
			// Both nodes still take and give back both locks.
			for _, lock := range []LockID{0, 1} {
				for _, s := range svcs {
					s.Acquire(lock)
					s.Release(lock)
				}
			}
		})
	}
}

// TestLockPayloadRoundTrip: the lock payload keeps nil data apart from
// empty data, and every strict prefix of a valid payload is an error,
// not a panic.
func TestLockPayloadRoundTrip(t *testing.T) {
	for _, data := range [][]byte{nil, {}, {1, 2, 3}} {
		p := encodeLockPayload(7, data)
		id, got, err := decodeLockPayload(p)
		if err != nil {
			t.Fatalf("data %v: %v", data, err)
		}
		if id != 7 || (got == nil) != (data == nil) || !bytes.Equal(got, data) {
			t.Errorf("data %v: decoded id %d data %v", data, id, got)
		}
		wb := lockWire(7, data)
		if !bytes.Equal(wb.B[msg.HeaderSize:], p) {
			t.Errorf("data %v: lockWire payload %x, encodeLockPayload %x", data, wb.B[msg.HeaderSize:], p)
		}
		wb.Release()
		for n := 0; n < len(p); n++ {
			if _, _, err := decodeLockPayload(p[:n]); err == nil {
				t.Errorf("data %v: %d-byte prefix of a %d-byte payload decoded", data, n, len(p))
			}
		}
	}
}

// A barrier arrival a peer sends is input too. One whose participant
// count is below one would release every parked waiter at once; one
// whose count disagrees with the open epoch's would re-target it; one
// that carries updates no hook can check cannot be merged, and a plain
// arrival, which is no carrier's, carries nothing. Each is counted as
// malformed and does not count: the parked waiter stays parked, and the
// next good arrival completes the epoch.
func TestBarrierWireInputIsDroppedNotFatal(t *testing.T) {
	arrival := func(n int, carried ...byte) []byte {
		return append(msg.NewBuilder(barrierHeader).U32(0).Int(n).Bytes(), carried...)
	}
	cases := []struct {
		name    string
		kind    msg.Kind
		payload []byte
	}{
		{"a count of zero", kindBarrier, arrival(0)},
		{"a negative count", kindBarrier, arrival(-3)},
		{"a count other than the open epoch's", kindBarrier, arrival(3)},
		{"a plain arrival with a carried part", kindBarrier, arrival(2, 0, 0, 0, 1)},
		{"a truncated header", kindBarrier, arrival(2)[:barrierHeader-1]},
		{"a carried part with no barrier hooks attached", kindCarrier, arrival(2, 0, 0, 0, 1)},
		{"a carrier's count other than the open epoch's", kindCarrier, arrival(3)},
		{"a carrier's truncated header", kindCarrier, arrival(2)[:barrierHeader-1]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Barrier 0 is homed on node 0; node 1's waiter parks there.
			c, svcs := harness(t, 3)
			k := c.Kernel(0)
			released := make(chan struct{})
			go func() {
				svcs[1].BarrierWait(0, 2)
				close(released)
			}()
			// The waiter's arrival is parked once the home holds it.
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
				svcs[0].mu.Lock()
				b := svcs[0].barriers[0]
				svcs[0].mu.Unlock()
				if b != nil {
					b.mu.Lock()
					parked := len(b.arrived)
					b.mu.Unlock()
					if parked == 1 {
						break
					}
				}
				if time.Now().After(deadline) {
					t.Fatal("the waiter's arrival never parked")
				}
			}
			before := k.C.Get("dlock.drop_malformed")
			if err := c.Kernel(2).Send(0, tc.kind, tc.payload); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); k.C.Get("dlock.drop_malformed") == before; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatal("dlock.drop_malformed never counted")
				}
			}
			select {
			case <-released:
				t.Fatal("the malformed arrival released the parked waiter")
			case <-time.After(20 * time.Millisecond):
			}
			svcs[2].BarrierWait(0, 2)
			select {
			case <-released:
			case <-time.After(10 * time.Second):
				t.Fatal("the good arrival did not complete the epoch")
			}
			if got := k.C.Get("dlock.drop_malformed"); got != before+1 {
				t.Errorf("dlock.drop_malformed moved by %d, want 1", got-before)
			}
		})
	}
}
