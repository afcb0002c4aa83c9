#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload: the procedure of
# §8 of the choosing-metrics guide for a host-clock claim on a noisy sandbox.
# Builds benchmark/ from two checkouts (each into its own .bench_build/),
# runs N pairs alternating which side goes first, and prints each side's
# median and quartiles of METRIC (lower is better), the pairs the change
# won, and whether the sim_* metrics stayed bit-identical.
#
#   scripts/host-pairs.sh PARENT [WORKLOAD [N [SEED [METRIC [SECONDS]]]]]
#   make host-pairs PARENT=/path/to/parent WORKLOAD=blk_seqbatch N=10
set -euo pipefail
parent="${1:?usage: host-pairs.sh PARENT [WORKLOAD [N [SEED [METRIC [SECONDS]]]]]}"
workload="${2:-blk_seqbatch}" n="${3:-10}" seed="${4:-1}" metric="${5:-host_ns_per_op}" seconds="${6:-0}"
change="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="$(cd "$parent" && pwd)"

# Build both sides once; afterwards only the binaries run.
for side in "$parent" "$change"; do
	(cd "$side" && bash benchmark/run.sh --describe >/dev/null)
done

run() { # checkout → the driver's JSON line
	(cd "$1" && .bench_build/riobenchmark --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | grep '^{')
}
value() { { grep -o "\"$metric\":{\"value\":[0-9.eE+-]*" <<<"$1" || true; } | sed 's/.*://'; }
simpart() { grep -o '"sim_[a-z0-9_.]*":{"value":[0-9.eE+-]*' <<<"$1" | sort | tr '\n' ' '; }

ps=() cs=() won=0 lost=0 simsame=yes
for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then pj="$(run "$parent")" cj="$(run "$change")"; else cj="$(run "$change")" pj="$(run "$parent")"; fi
	p="$(value "$pj")" c="$(value "$cj")"
	[[ -n "$p" && -n "$c" ]] || { echo "host-pairs: no metric $metric in the benchmark's output" >&2; exit 1; }
	[[ "$(simpart "$pj")" == "$(simpart "$cj")" ]] || simsame=NO
	ps+=("$p") cs+=("$c")
	if awk "BEGIN{exit !($c < $p)}"; then won=$((won + 1)) r=won; elif awk "BEGIN{exit !($c > $p)}"; then lost=$((lost + 1)) r=lost; else r=tie; fi
	printf 'pair %2d  parent %12.4f  change %12.4f  %s\n' "$i" "$p" "$c" "$r"
done

# Median and the "exclusive" quartiles benchmark/stats.go and the driver use.
summary() {
	printf '%s\n' "$@" | sort -g | awk '{s[NR]=$1} END{
		m=NR; med=(m%2)?s[(m+1)/2]:(s[m/2]+s[m/2+1])/2
		for(k=1;k<=3;k+=2){j=int(k*(m+1)/4); if(j<1)j=1; if(j>m-1)j=m-1
			d=k*(m+1)-j*4; q[k]=(m<2)?med:(s[j]*(4-d)+s[j+1]*d)/4}
		printf "median %.4f  q1 %.4f  q3 %.4f  (q3-q1 %.4f)\n", med, q[1], q[3], q[3]-q[1]}'
}
echo "== $workload, seed $seed, $metric (lower is better), $n alternating pairs"
echo "parent: $(summary "${ps[@]}")"
echo "change: $(summary "${cs[@]}")"
echo "change won $won, lost $lost of $n pairs; sim_* metrics bit-identical in every pair: $simsame"
