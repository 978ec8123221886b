package dlock

import (
	"bytes"
	"testing"
	"time"

	"munin/internal/msg"
	"munin/internal/stats"
)

// A lock message a peer sends is input, not a local program's bug:
// whatever it names, the member counts a drop and goes on serving. Each
// case is sent from node 1 to node 0 over the harness's transport, so a
// handler that panicked would take the test binary with it.
func TestLockWireInputIsDroppedNotFatal(t *testing.T) {
	// Lock 0 is homed on node 0, lock 1 on node 1 (cluster.HomeOf).
	truncated := encodeLockPayload(0, []byte{1, 2, 3})
	truncated = truncated[:len(truncated)-1]
	cases := []struct {
		name    string
		kind    msg.Kind
		payload []byte
		counter string
	}{
		{"kindAcquire with a truncated payload", kindAcquire, []byte{0, 0}, stats.CDlockDropMalformed},
		{"kindAcquire for a lock homed on another node", kindAcquire, encodeLockPayload(1, nil), stats.CDlockDropMisdirected},
		{"kindRelease with truncated data", kindRelease, truncated, stats.CDlockDropMalformed},
		{"kindRelease for a lock homed on another node", kindRelease, encodeLockPayload(1, []byte{9}), stats.CDlockDropMisdirected},
		{"kindRecall with an empty payload", kindRecall, nil, stats.CDlockDropMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, svcs := harness(t, 2)
			k := c.Kernel(0)
			before := k.C.Snapshot()
			if err := c.Kernel(1).Send(0, tc.kind, tc.payload); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); k.C.Get(tc.counter) == before[tc.counter]; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s never counted", tc.counter)
				}
			}
			after := k.C.Snapshot()
			for _, name := range []string{stats.CDlockDropMalformed, stats.CDlockDropMisdirected} {
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
