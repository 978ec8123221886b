// Package failpoint provides named, injectable crash points threaded
// through the protocol's hot paths (flush, lock grant, run gate).
//
// A failpoint is a named place in the code where a test can arrange
// for something to happen — typically killing the process outright to
// simulate a crash at exactly that protocol step. Production code
// calls Hit(p) at each step, p one of the Point vars below; when nothing
// is armed this is a single atomic load, so the hooks are free in
// steady state.
//
// Crash specs take the form "name" or "name:skip", where skip is the
// number of hits to let pass before firing (so a test can crash on the
// second flush, or at the exit run gate rather than the entry one).
// Child processes arm themselves from the MUNIN_FAILPOINT environment
// variable at startup, which is how the bench harness reaches into a
// re-exec'd member.
package failpoint

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Point is one named protocol step where a member can die
// mid-operation and the cluster must recover. The steps are the vars
// below: Point's only field is unexported, so Hit, Arm and Disarm can
// name no other step, and a spec string (ArmCrash) resolves to one of
// them when it is parsed.
type Point struct{ name string }

// String returns the point's name, as a spec names it.
func (p Point) String() string { return p.name }

var (
	// FlushPlanned fires after a flush has been planned (diffs taken,
	// batches grouped) but before anything is sent: the delayed update
	// queue has been drained, yet no home has seen a byte.
	FlushPlanned = Point{"flush.planned"}
	// FlushSent fires after the flush batches have been written and
	// fenced but before the settle acknowledgements are awaited: homes
	// may hold partial state from a writer that then dies.
	FlushSent = Point{"flush.sent"}
	// LockGranted fires on the requester after a distributed lock
	// grant reply arrives but before the requester records ownership.
	LockGranted = Point{"lock.granted"}
	// LockHeld fires on the requester immediately after it takes the
	// lock, i.e. the member dies inside the critical section.
	LockHeld = Point{"lock.held"}
	// GatePark fires just before a member parks in the run gate
	// (sends its arrival to node 0 and blocks on the verdict).
	GatePark = Point{"gate.park"}
	// BarrierCarried fires after a barrier arrival that carries updates
	// has been written to the wire, before its release comes back: the
	// home holds the carried updates, unmerged, in a parked arrival of
	// a member that then dies.
	BarrierCarried = Point{"barrier.carried"}
)

// points lists every Point. The E17 crash-point sweep must cover all of
// them (bench asserts it against Names).
var points = []Point{FlushPlanned, FlushSent, LockGranted, LockHeld, GatePark, BarrierCarried}

// Names returns every point's name, in declaration order.
func Names() []string {
	names := make([]string, len(points))
	for i, p := range points {
		names[i] = p.name
	}
	return names
}

var (
	// armed counts the currently armed points; Hit is a single atomic
	// load when it is zero.
	armed atomic.Int32

	mu    sync.Mutex
	hooks map[Point]*hook
)

type hook struct {
	skip int32 // hits to let pass before firing
	fn   func()
}

// Hit marks that execution reached step p. If a hook is armed
// for it and its skip count is exhausted, the hook fires (once) and
// the point disarms. Hit is safe for concurrent use and costs one
// atomic load when nothing is armed.
func Hit(p Point) {
	if armed.Load() == 0 {
		return
	}
	var fn func()
	mu.Lock()
	if h, ok := hooks[p]; ok {
		if h.skip > 0 {
			h.skip--
		} else {
			fn = h.fn
			delete(hooks, p)
			armed.Add(-1)
		}
	}
	mu.Unlock()
	if fn != nil {
		fn()
	}
}

// Armed reports whether a hook is armed at p. Like Hit it costs one
// atomic load when nothing is armed, so a caller can skip work that
// only a hook at p needs.
func Armed(p Point) bool {
	if armed.Load() == 0 {
		return false
	}
	mu.Lock()
	_, ok := hooks[p]
	mu.Unlock()
	return ok
}

// Arm installs fn at p, replacing any previous hook there. The first
// skip hits pass through untouched; the next hit fires fn and disarms
// the point.
func Arm(p Point, skip int, fn func()) {
	if p == (Point{}) {
		panic("failpoint: Arm of the zero Point")
	}
	mu.Lock()
	if hooks == nil {
		hooks = make(map[Point]*hook)
	}
	if _, ok := hooks[p]; !ok {
		armed.Add(1)
	}
	hooks[p] = &hook{skip: int32(skip), fn: fn}
	mu.Unlock()
}

// Disarm removes any hook at p.
func Disarm(p Point) {
	mu.Lock()
	if _, ok := hooks[p]; ok {
		delete(hooks, p)
		armed.Add(-1)
	}
	mu.Unlock()
}

// DisarmAll removes every armed hook.
func DisarmAll() {
	mu.Lock()
	for p := range hooks {
		delete(hooks, p)
		armed.Add(-1)
	}
	mu.Unlock()
}

// crashSelf kills the current process with SIGKILL semantics: no
// deferred cleanup, no goodbye message, indistinguishable from an
// external kill -9.
func crashSelf() {
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		os.Exit(137)
	}
	_ = p.Kill()
	// Kill is asynchronous on some platforms; never return from a
	// crash point.
	select {}
}

// ArmCrash parses a "name" or "name:skip" spec and arms a
// self-SIGKILL at the Point of that name. A name no Point has is an
// error: a misspelt spec would arm a crash that never happens.
func ArmCrash(spec string) error {
	name, skip := spec, 0
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name = spec[:i]
		n, err := strconv.Atoi(spec[i+1:])
		if err != nil || n < 0 {
			return fmt.Errorf("failpoint: bad skip in spec %q", spec)
		}
		skip = n
	}
	i := slices.IndexFunc(points, func(p Point) bool { return p.name == name })
	if i < 0 {
		return fmt.Errorf("failpoint: unknown name %q in spec %q (points: %s)", name, spec, strings.Join(Names(), ", "))
	}
	Arm(points[i], skip, crashSelf)
	return nil
}

// EnvVar is the environment variable child processes read at startup
// to arm a crash point injected by a parent test harness.
const EnvVar = "MUNIN_FAILPOINT"

// ArmCrashFromEnv arms a crash point from the MUNIN_FAILPOINT
// environment variable, if set. It returns the spec armed (empty if
// none).
func ArmCrashFromEnv() (string, error) {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return "", nil
	}
	if err := ArmCrash(spec); err != nil {
		return "", err
	}
	return spec, nil
}
