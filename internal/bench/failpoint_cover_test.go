package bench

import (
	"testing"

	"munin/internal/failpoint"
)

// TestE17CoversAllFailpoints pins the crash matrix to the failpoint
// registry: every name failpoint.Names() exports must appear as a
// crash point in E17's sweep, so adding a failpoint without extending
// the sweep (or renaming one side) fails here instead of silently
// shrinking chaos coverage. TestE17RecoverySweep holds the sweep it
// runs to the same number (crash.points).
func TestE17CoversAllFailpoints(t *testing.T) {
	covered := map[string]bool{}
	for _, name := range E17CrashPoints() {
		covered[name] = true
	}
	for _, name := range failpoint.Names() {
		if !covered[name] {
			t.Errorf("failpoint %q is registered but E17's crash sweep never kills there", name)
		}
	}
	if len(covered) < len(failpoint.Names()) {
		t.Errorf("E17 covers %d distinct crash points, registry has %d", len(covered), len(failpoint.Names()))
	}
}
