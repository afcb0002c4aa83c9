#!/usr/bin/env bash
# Simulated-clock comparison of this checkout against PARENT over every
# benchmark workload. The simulated clock is deterministic — one seed, one
# value — so one invocation per side IS the comparison (scripts/host-pairs.sh
# is the tool for host-clock claims, which need alternating pairs). Each
# invocation makes the benchmark's 5 runs (seeds SEED..SEED+4) and reports
# their median. Prints the five sim_* metrics and ops_failed_share side by
# side with the relative change ("identical" when both sides printed the same
# digits), marks every one that worsened past its BENCHMARK.json bound, and
# exits 1 if any did.
#
#   scripts/sim-diff.sh PARENT [SEED]
#   make sim-diff PARENT=/path/to/parent SEED=7
set -euo pipefail
parent="${1:?usage: sim-diff.sh PARENT [SEED]}" seed="${2:-1}"
change="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="$(cd "$parent" && pwd)"
spec="$change/BENCHMARK.json"

# Build both sides once; afterwards only the binaries run.
for side in "$parent" "$change"; do
	(cd "$side" && bash benchmark/run.sh --describe >/dev/null)
done

# Workload names, and "metric better bound" of the sim_* end-to-end metrics,
# as BENCHMARK.json declares them.
workloads="$(awk -F'"' '/"workloads"/{w=1} /"end_to_end"/{w=0} w && /"name"/{print $4}' "$spec")"
bounds="$(awk -F'"' '/"end_to_end"/{e=1} /"per_layer"/{e=0}
	e && /"name"/{n=$4} e && /"better"/{b=$4}
	e && /"bound"/{gsub(/[^0-9.]/,"",$3); if (n ~ /^sim_/) print n, b, $3}' "$spec")"

run() { # checkout workload → the driver's JSON line
	(cd "$1" && .bench_build/riobenchmark --workload "$2" --seed "$seed" --seconds 0 --trace 0 | grep '^{')
}
value() { { grep -o "\"$2\":{\"value\":[0-9.eE+-]*" <<<"$1" || true; } | sed 's/.*://'; }
failed_share() { # JSON line → failed / attempted
	awk -v a="$(grep -o '"attempted":[0-9]*' <<<"$1" | sed 's/.*://')" \
		-v f="$(grep -o '"failed":[0-9]*' <<<"$1" | sed 's/.*://')" 'BEGIN{printf "%.6g", (a > 0) ? f / a : 0}'
}

worse=0
for w in $workloads; do
	pj="$(run "$parent" "$w")" cj="$(run "$change" "$w")"
	echo "== $w, seeds $seed..$((seed + 4)) (median)"
	printf '%-26s %14s %14s %10s %7s\n' metric parent change change bound
	while read -r metric better bound; do
		p="$(value "$pj" "$metric")" c="$(value "$cj" "$metric")"
		[[ -n "$p" && -n "$c" ]] || { echo "sim-diff: no metric $metric in the benchmark's output" >&2; exit 1; }
		awk -v m="$metric" -v p="$p" -v c="$c" -v better="$better" -v bound="$bound" 'BEGIN{
			rel = (p != 0) ? (c - p) / p : 0
			loss = (better == "higher") ? -rel : rel
			mark = (loss > bound) ? "  WORSE past its bound" : ""
			# Compared as strings: the benchmark printed the same digits.
			change = (p "" == c "") ? " identical" : sprintf("%+9.2f%%", 100 * rel)
			printf "%-26s %14.4f %14.4f %s %6.0f%%%s\n", m, p, c, change, 100 * bound, mark
			exit (mark != "")}' || worse=1
	done <<<"$bounds"
	pf="$(failed_share "$pj")" cf="$(failed_share "$cj")"
	mark=""
	if awk "BEGIN{exit !($cf > $pf)}"; then mark="  WORSE (exact)" worse=1; fi
	printf '%-26s %14s %14s %10s %7s%s\n' ops_failed_share "$pf" "$cf" "" exact "$mark"
done
if ((worse)); then echo "sim-diff: at least one metric worsened past its bound"; exit 1; fi
echo "sim-diff: no simulated metric worsened past its bound"
