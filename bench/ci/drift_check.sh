#!/usr/bin/env bash
# Zero-modeled-drift check: runs the same simulated scenarios on two builds
# and diffs what they print.
#
# Usage: bench/ci/drift_check.sh PARENT_BUILD CHANGE_BUILD
#
# Both arguments are build directories of the root CMake project, configured
# the same way (Release), one built from the parent commit and one from the
# change. On both builds the script runs:
#   1. every smoke bench (WATTDB_BENCH_SMOKE=1); each BENCH_*.json must be
#      identical apart from wall_clock_ms, and compare_baselines.py --exact
#      must find the change's JSONs equal to bench/baselines;
#   2. elastic_scaleout, whose whole output is in simulated time;
#   3. chaos_soak --seeds 200 in plain, --elasticity and
#      --elasticity --history modes;
#   4. the --no-fencing --history anchor seeds 317 and 419.
# Soak output is normalised first: wall= host times are cut, and the line
# numbers of file.cc:LINE log tags are dropped (they move with every edit).
# stdout and stderr are diffed apart, since merged they can interleave
# differently from run to run.
#
# Every difference is printed. Exit status: 0 when there is none, 1 on any
# drift, 2 on bad arguments. Outputs go to <build>/drift/. Both builds run
# side by side, two processes each; ~6 minutes on 4 vCPUs, most of it
# elastic_scaleout.

set -u

if [ $# -ne 2 ] || [ ! -x "$1/chaos_soak" ] || [ ! -x "$2/chaos_soak" ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD (build dirs with chaos_soak)" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
ci_dir=$(cd "$(dirname "$0")" && pwd)
baselines="$ci_dir/../baselines"
soak_modes=("plain" "--elasticity" "--elasticity --history")
anchor_seeds=(317 419)

norm() { sed -e 's/wall=[^ )]*//' -e 's/\(\.cc\):[0-9]*\]/\1]/'; }

# Smoke benches, then the soaks and anchor seeds, of one build.
run_benches_and_soaks() {
  local b=$1 out=$1/drift x m s
  rm -rf "$out/json" && mkdir -p "$out/json"
  for x in "$b"/bench_*; do
    [ -f "$x" ] && [ -x "$x" ] || continue
    WATTDB_BENCH_SMOKE=1 WATTDB_BENCH_JSON_DIR="$out/json" "$x" > /dev/null 2>&1
  done
  for m in "${soak_modes[@]}"; do
    [ "$m" = plain ] && m=""
    # shellcheck disable=SC2086  # $m holds zero or more flags.
    "$b/chaos_soak" --seeds 200 $m 2> "$out/soak${m// /}.err" |
      norm > "$out/soak${m// /}.out"
  done
  for s in "${anchor_seeds[@]}"; do
    "$b/chaos_soak" --seed "$s" --no-fencing --history \
      2> "$out/anchor$s.err" | norm > "$out/anchor$s.out"
  done
}

run_build() {
  local b=$1
  mkdir -p "$b/drift"
  "$b/elastic_scaleout" > "$b/drift/elastic.out" 2> "$b/drift/elastic.err" &
  run_benches_and_soaks "$b"
  wait
}

run_build "$parent" &
run_build "$change" &
wait

drift=0
check() {  # check LABEL PARENT_FILE CHANGE_FILE
  if ! diff "$2" "$3"; then
    echo "DRIFT: $1" >&2
    drift=1
  fi
}

# 1. Smoke JSONs.
for f in "$parent"/drift/json/*.json; do
  name=$(basename "$f")
  if [ ! -f "$change/drift/json/$name" ]; then
    echo "DRIFT: $name missing from the change" >&2
    drift=1
    continue
  fi
  check "$name" <(grep -v wall_clock_ms "$f") \
    <(grep -v wall_clock_ms "$change/drift/json/$name")
done
for f in "$change"/drift/json/*.json; do
  [ -f "$parent/drift/json/$(basename "$f")" ] ||
    { echo "DRIFT: $(basename "$f") missing from the parent" >&2; drift=1; }
done
exact=$(python3 "$ci_dir/compare_baselines.py" --exact "$change/drift/json" \
  "$baselines")
echo "$exact"
if ! grep -q "^modeled drift: none" <<< "$exact"; then
  echo "DRIFT: smoke JSONs differ from bench/baselines" >&2
  drift=1
fi

# 2. Control-event timeline.
check elastic_scaleout "$parent/drift/elastic.out" "$change/drift/elastic.out"
check "elastic_scaleout stderr" "$parent/drift/elastic.err" \
  "$change/drift/elastic.err"

# 3. and 4. Soaks and anchor seeds.
for m in "${soak_modes[@]}"; do
  [ "$m" = plain ] && m=""
  for s in out err; do
    check "chaos_soak $m ($s)" <(norm < "$parent/drift/soak${m// /}.$s") \
      <(norm < "$change/drift/soak${m// /}.$s")
  done
done
for seed in "${anchor_seeds[@]}"; do
  for s in out err; do
    check "anchor seed $seed ($s)" <(norm < "$parent/drift/anchor$seed.$s") \
      <(norm < "$change/drift/anchor$seed.$s")
  done
done

if [ $drift -eq 0 ]; then
  echo "drift check: no modeled drift"
else
  echo "drift check: modeled drift found (see DRIFT lines above)" >&2
fi
exit $drift
