package failpoint

import "testing"

func TestHitDisarmedIsNoop(t *testing.T) {
	// Nothing armed: must not panic, must stay free.
	Hit(FlushPlanned)
	if got := armed.Load(); got != 0 {
		t.Fatalf("armed = %d after no-op hit, want 0", got)
	}
}

func TestArmFiresOnceAndDisarms(t *testing.T) {
	fired := 0
	Arm(LockHeld, 0, func() { fired++ })
	Hit(LockHeld)
	Hit(LockHeld)
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1 (one-shot)", fired)
	}
	if got := armed.Load(); got != 0 {
		t.Fatalf("armed = %d after firing, want 0", got)
	}
}

func TestArmedNamesOnlyTheArmedPoint(t *testing.T) {
	if Armed(BarrierCarried) {
		t.Fatal("Armed with nothing armed")
	}
	Arm(BarrierCarried, 1, func() {})
	if !Armed(BarrierCarried) || Armed(FlushSent) {
		t.Fatalf("Armed(BarrierCarried) = %v, Armed(FlushSent) = %v; want true, false", Armed(BarrierCarried), Armed(FlushSent))
	}
	Hit(BarrierCarried) // skipped: still armed
	if !Armed(BarrierCarried) {
		t.Fatal("a skipped hit disarmed the point")
	}
	Hit(BarrierCarried) // fires and disarms
	if Armed(BarrierCarried) {
		t.Fatal("still armed after the hook fired")
	}
}

func TestSkipCount(t *testing.T) {
	fired := 0
	Arm(GatePark, 2, func() { fired++ })
	Hit(GatePark)
	Hit(GatePark)
	if fired != 0 {
		t.Fatalf("hook fired during skip window")
	}
	Hit(GatePark)
	if fired != 1 {
		t.Fatalf("hook fired %d times after skip window, want 1", fired)
	}
}

func TestDisarm(t *testing.T) {
	fired := 0
	Arm(FlushSent, 0, func() { fired++ })
	Disarm(FlushSent)
	Hit(FlushSent)
	if fired != 0 {
		t.Fatalf("hook fired after Disarm")
	}
	if got := armed.Load(); got != 0 {
		t.Fatalf("armed = %d after Disarm, want 0", got)
	}
}

func TestArmReplacesWithoutLeakingCount(t *testing.T) {
	Arm(LockGranted, 0, func() {})
	Arm(LockGranted, 0, func() {})
	if got := armed.Load(); got != 1 {
		t.Fatalf("armed = %d after re-arming same point, want 1", got)
	}
	DisarmAll()
	if got := armed.Load(); got != 0 {
		t.Fatalf("armed = %d after DisarmAll, want 0", got)
	}
}

func TestArmCrashSpecParsing(t *testing.T) {
	// Arm with a harmless hook by parsing the spec ourselves through
	// ArmCrash would install crashSelf; instead verify the error cases
	// and that a good spec arms something.
	for _, bad := range []string{"", ":1", "flush.sent:x", "flush.sent:-1"} {
		if err := ArmCrash(bad); err == nil {
			DisarmAll()
			t.Fatalf("ArmCrash(%q) = nil error, want error", bad)
		}
	}
	if err := ArmCrash("flush.sent:3"); err != nil {
		t.Fatalf("ArmCrash: %v", err)
	}
	if got := armed.Load(); got != 1 {
		t.Fatalf("armed = %d after ArmCrash, want 1", got)
	}
	DisarmAll()
}

// TestArmCrashRejectsUnknownNames: a spec naming no registered point
// is an error and arms nothing — otherwise a misspelt crash point would
// arm a hook no Hit site can fire, and a crash sweep would pass without
// killing anything.
func TestArmCrashRejectsUnknownNames(t *testing.T) {
	for _, bad := range []string{"flush.send", "flush.sent.x", "barrier", "nosuch:2"} {
		if err := ArmCrash(bad); err == nil {
			DisarmAll()
			t.Fatalf("ArmCrash(%q) = nil error, want error", bad)
		}
		if got := armed.Load(); got != 0 {
			t.Fatalf("armed = %d after ArmCrash(%q) failed, want 0", got, bad)
		}
	}
}

// TestArmCrashArmsEveryRegisteredName: every Point var is in Names(),
// and ArmCrash resolves each name, with and without a skip count, to
// that Point.
func TestArmCrashArmsEveryRegisteredName(t *testing.T) {
	vars := []Point{FlushPlanned, FlushSent, LockGranted, LockHeld, GatePark, BarrierCarried}
	if names := Names(); len(names) != len(vars) {
		t.Fatalf("Names() = %v, want the %d Point vars", names, len(vars))
	}
	for i, p := range vars {
		if Names()[i] != p.String() {
			t.Fatalf("Names()[%d] = %q, want %q", i, Names()[i], p)
		}
		for spec, skip := range map[string]int32{p.String(): 0, p.String() + ":1": 1} {
			if err := ArmCrash(spec); err != nil {
				t.Fatalf("ArmCrash(%q): %v", spec, err)
			}
			if h := hooks[p]; armed.Load() != 1 || h == nil || h.skip != skip {
				t.Fatalf("ArmCrash(%q) armed %d hooks, %v at %s, want one with skip %d", spec, armed.Load(), h, p, skip)
			}
			DisarmAll()
		}
	}
}
