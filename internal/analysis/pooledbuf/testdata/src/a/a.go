// Fixture for the pooledbuf analyzer: every case exercises one
// diagnostic (or its absence) against the real bufpool package.
package a

import (
	"errors"
	"sync"

	"munin/internal/bufpool"
)

// SendOwned, CallStartOwned and ReplyOwned mirror the transport/vkernel
// hand-over shapes the analyzer recognizes by name: the buffer is the
// last argument.
func SendOwned(wb *bufpool.Buffer) error               { return nil }
func CallStartOwned(dst int, wb *bufpool.Buffer) error { return nil }
func ReplyOwned(req int, wb *bufpool.Buffer) error     { return nil }

// obj is the shape of a protocol object: bytes under a mutex.
type obj struct {
	mu   sync.Mutex
	data []byte
}

var errBad = errors.New("bad request")

func fill(wb *bufpool.Buffer) bool { return len(wb.B) >= 0 }

// leak: the buffer never reaches a release or hand-over.
func leak() {
	wb := bufpool.Get(64) // want `pooled buffer "wb" is never released or handed over`
	wb.B = nil
}

// useAfterRelease: touched after Release returned it to the pool.
func useAfterRelease() {
	wb := bufpool.Get(64)
	wb.Release()
	wb.B = nil // want `use of "wb" after its ownership was transferred`
}

// useAfterSend: touched after the writer goroutine took ownership.
func useAfterSend() {
	wb := bufpool.Get(64)
	_ = SendOwned(wb)
	wb.B = nil // want `use of "wb" after its ownership was transferred`
}

// cleanRelease: exactly one Release on the only path.
func cleanRelease() {
	wb := bufpool.Get(64)
	wb.B = append(wb.B[:0], 1)
	wb.Release()
}

// cleanDefer: a deferred Release ends ownership at function exit and
// poisons nothing before it.
func cleanDefer() {
	wb := bufpool.Get(16)
	defer wb.Release()
	wb.B = append(wb.B[:0], 2)
}

// cleanErrorPath: release-and-return inside a branch only poisons that
// branch; the happy path hands the buffer over exactly once.
func cleanErrorPath() bool {
	wb := bufpool.Get(32)
	if !fill(wb) {
		wb.Release()
		return false
	}
	return SendOwned(wb) == nil
}

// cleanStartOwned: ownership ends at the CallStartOwned hand-over.
func cleanStartOwned() error {
	wb := bufpool.Get(32)
	wb.B = append(wb.B[:0], 3)
	return CallStartOwned(1, wb)
}

// useAfterReply: touched after ReplyOwned handed it to the writer.
func useAfterReply(o *obj) {
	o.mu.Lock()
	wb := bufpool.Get(64)
	wb.B = append(wb.B, o.data...)
	o.mu.Unlock()
	_ = ReplyOwned(1, wb)
	wb.B = nil // want `use of "wb" after its ownership was transferred`
}

// droppedOnEarlyReturn: the reply is built under o.mu, and then an
// early exit forgets it.
func droppedOnEarlyReturn(o *obj, bad bool) error {
	o.mu.Lock()
	wb := bufpool.Get(64)
	wb.B = append(wb.B, o.data...)
	o.mu.Unlock()
	if bad {
		return errBad // want `pooled buffer "wb" is dropped by this return`
	}
	return ReplyOwned(1, wb)
}

// encode hands its caller a pooled buffer, like bufpool.Get does.
func encode(o *obj) *bufpool.Buffer {
	wb := bufpool.Get(64)
	wb.B = append(wb.B, o.data...)
	return wb
}

// droppedHelperResult: a buffer from a helper is owned just the same.
func droppedHelperResult(o *obj, bad bool) error {
	o.mu.Lock()
	wb := encode(o)
	o.mu.Unlock()
	if bad {
		return errBad // want `pooled buffer "wb" is dropped by this return`
	}
	return ReplyOwned(1, wb)
}

// cleanEarlyReturn: the early exit releases what it built.
func cleanEarlyReturn(o *obj, bad bool) error {
	o.mu.Lock()
	wb := encode(o)
	o.mu.Unlock()
	if bad {
		wb.Release()
		return errBad
	}
	return ReplyOwned(1, wb)
}

// cleanMaybePassedOn: fill may have kept the buffer, so the return
// behind it is not certain to drop it.
func cleanMaybePassedOn() bool {
	wb := bufpool.Get(32)
	if !fill(wb) {
		return false
	}
	return SendOwned(wb) == nil
}

// cleanCapturedStore: a closure that assigns to the enclosing
// function's variable hands the buffer to that scope.
func cleanCapturedStore(o *obj, provide func(emit func(*obj))) error {
	var wb *bufpool.Buffer
	provide(func(o *obj) { wb = encode(o) })
	return SendOwned(wb)
}
