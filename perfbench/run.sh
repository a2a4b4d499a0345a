#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through
# (--workload NAME --seed N --seconds S --trace 0|1). "--workload all"
# runs every workload in turn, each in its own process.
#
# Run from the repository root:  bash perfbench/run.sh --workload tiny-tso-verify
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
# Keep the build cache, the go command's own files (its telemetry lives
# under the user config directory) and every artifact inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

workload=""
prev=""
for a in "$@"; do
	if [ "$prev" = "--workload" ] || [ "$prev" = "-workload" ]; then
		workload="$a"
	fi
	prev="$a"
done
if [ "$workload" != "all" ]; then
	exec "$out/perfbench" -out "$out/perfbench-data" "$@"
fi

args=()
skip=0
for a in "$@"; do
	if [ "$skip" = 1 ]; then
		skip=0
		continue
	fi
	case "$a" in
	--workload | -workload) skip=1 ;;
	*) args+=("$a") ;;
	esac
done
status=0
for w in $("$out/perfbench" -list); do
	echo "== $w"
	"$out/perfbench" -out "$out/perfbench-data" --workload "$w" "${args[@]}" || status=1
done
exit "$status"
