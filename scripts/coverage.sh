#!/usr/bin/env bash
# Statement coverage of the module's packages, one report for every source
# of traffic. With no argument it merges every kind of traffic the repository
# drives: the tier-1 tests (-coverpkg=./...), `riobench -exp all -quick`, the
# `make crash-smoke` sweeps and the benchmark's seven workloads (one run each
# at --seconds 0); with `tests` it runs the tier-1 tests alone. Every binary
# is a -cover build writing its counters to its own GOCOVERDIR; `go tool
# covdata` converts them, and each block counts as reached if any run reached
# it. Prints the merged total, then every unreached block outside cmd/ and
# internal/bench/ (file:line.col,line.col and its statement count), then how
# many statements in how many blocks. The tests-only list is a lead for a
# deletion sweep; the full list is its verdict. Writes only under a temporary
# directory, removed on exit.
#
#   scripts/coverage.sh          # make coverage-all (about a minute)
#   scripts/coverage.sh tests    # make coverage
set -euo pipefail
mode="${1:-all}"
[[ "$mode" == all || "$mode" == tests ]] || { echo "usage: $0 [tests]" >&2; exit 2; }
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/coverage.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp"/{tests,riobench,crash,bench,run}
cd "$root"
# Every build instruments the module's own packages (not the benchmark's).
pkgs="$(go list ./... | paste -sd, -)"

# run NAME CMD...: runs CMD with its output in $tmp/NAME.log, shown on failure.
run() {
	local name="$1"
	shift
	echo "coverage: $name" >&2
	"$@" >"$tmp/$name.log" 2>&1 || { cat "$tmp/$name.log"; exit 1; }
}

run tests go test -count=1 -cover -coverpkg="$pkgs" ./... -args -test.gocoverdir="$tmp/tests"
dirs="$tmp/tests"
if [[ "$mode" == all ]]; then
	go build -cover -coverpkg="$pkgs" -o "$tmp/riobench.bin" ./cmd/riobench
	GOCOVERDIR="$tmp/riobench" run riobench "$tmp/riobench.bin" -exp all -quick
	GOFLAGS="-cover -coverpkg=$pkgs" GOCOVERDIR="$tmp/crash" run crash-smoke make -s crash-smoke
	go build -C benchmark -cover -coverpkg="$pkgs" -o "$tmp/bench.bin" .
	(cd "$tmp/run" && TMPDIR="$tmp/run" GOCOVERDIR="$tmp/bench" \
		run bench "$tmp/bench.bin" --workload all --seed 1 --seconds 0 --trace 0)
	dirs="$dirs,$tmp/riobench,$tmp/crash,$tmp/bench"
fi

go tool covdata textfmt -i="$dirs" -o "$tmp/merged.txt"
# One line per block and run: "file:start,end statements count". A block is
# reached if any line of it counts.
awk 'NR > 1 { n[$1] = $2; if ($3 > 0) hit[$1] = 1 }
	END { for (k in n) print k, n[k], (k in hit) }' "$tmp/merged.txt" | sort -t: -k1,1 -k2,2n >"$tmp/blocks.txt"
awk '{ all += $2; if ($3) got += $2 }
	END { printf "merged coverage: %.1f%% of %d statements\n", 100 * got / all, all }' "$tmp/blocks.txt"
awk '!$3 && $1 !~ /^repro\/(cmd|internal\/bench)\// { print $1, $2; miss += $2; blocks++ }
	END { printf "unreached outside cmd/ and internal/bench/: %d statements in %d blocks\n", miss, blocks }' "$tmp/blocks.txt"
