#!/usr/bin/env bash
# census.sh N [go test flags...] runs every test of the module N times at
# each of GOMAXPROCS 1, 2 and 8 (go test -count=N -cpu 1,2,8) and prints,
# per test, how many runs it had and how many failed, failing tests
# first. Extra arguments go to go test (-race, -timeout ...).
#
# LOAD=k starts k busy-loop processes of its own for the length of the
# run, to load the box the way a shared CI host is loaded; it changes no
# machine setting. The exit status is go test's.
set -u
n=${1:-1}
shift || true
busy=()
for ((i = 0; i < ${LOAD:-0}; i++)); do
	(while :; do :; done) &
	busy+=($!)
done
stop() { [ ${#busy[@]} -gt 0 ] && kill "${busy[@]}" 2>/dev/null; }
trap stop EXIT
out=$(mktemp "${TMPDIR:-/tmp}/census.XXXXXX")
go test -json -count="$n" -cpu 1,2,8 "$@" ./... >"$out"
status=$?
stop
busy=()
awk '
	/"Test":/ && /"Action":"(pass|fail)"/ {
		match($0, /"Package":"[^"]*"/); pkg = substr($0, RSTART + 11, RLENGTH - 12)
		match($0, /"Test":"[^"]*"/); test = substr($0, RSTART + 8, RLENGTH - 9)
		key = pkg " " test
		runs[key]++
		if ($0 ~ /"Action":"fail"/) { fails[key]++; failed++ }
		total++
	}
	/"Action":"(fail|build-fail)"/ && !/"Test":/ {
		# A package that failed outside any test: a build error, a
		# crash between tests, a timeout.
		match($0, /"(Package|ImportPath)":"[^"]*"/); pkgfail[substr($0, RSTART, RLENGTH)]++
	}
	END {
		for (p in pkgfail) printf "%d\t-\tpackage run failed (its failing tests above, or outside any test) %s\n", pkgfail[p], p | "sort -k1,1nr -k3"
		for (k in runs) printf "%d\t%d\t%s\n", fails[k] + 0, runs[k], k | "sort -k1,1nr -k3"
		close("sort -k1,1nr -k3")
		printf "census: %d test runs, %d failed, %d distinct tests\n", total, failed + 0, length(runs)
	}' "$out" | awk -F'\t' 'BEGIN { print "fails\truns\ttest" } { print }'
rm -f "$out"
exit $status
