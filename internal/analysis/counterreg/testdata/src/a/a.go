// Fixture for the counterreg analyzer, run against the real
// internal/stats registry.
package a

import "munin/internal/stats"

// Counters mimics the vkernel snapshot accessor the index check keys
// on (matched by name).
func Counters() map[string]int64 { return nil }

func sinks(s *stats.Set) {
	s.Add("munin.bogus.counter", 1) // want `counter name "munin.bogus.counter" is not registered`
	s.Add("reads", 1)               // want `counter name "reads" spelled as a literal`
	s.Add(stats.CReads, 1)
	s.Add(stats.CDiffBytes, 128)
	_ = s.Get(stats.CWrites)
	_ = s.Get("diff.snet") // want `counter name "diff.snet" is not registered`
	s.Counter(stats.CTwin).Add(1)
	s.Counter("wriets") // want `counter name "wriets" is not registered`
}

func dynamic(s *stats.Set, class string) {
	// Dynamic names are the registry's parametrized families; the
	// analyzer leaves non-constant arguments alone.
	s.Add(class+".bytes", 64)
}

func reads() int64 {
	total := Counters()[stats.CReads]
	total += Counters()["munin.bogus"] // want `counter name "munin.bogus" read from a Counters\(\) snapshot is not registered`
	return total
}
