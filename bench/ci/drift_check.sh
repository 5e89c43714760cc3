#!/usr/bin/env bash
# Zero-modeled-drift check: runs the same simulated scenarios on two builds
# and diffs what they print.
#
# Usage: bench/ci/drift_check.sh PARENT_BUILD CHANGE_BUILD
#
# Both arguments are build directories of the root CMake project, configured
# the same way (Release), one built from the parent commit and one from the
# change. On both builds the script runs:
#   1. every smoke bench of the build's source tree (WATTDB_BENCH_SMOKE=1;
#      see bench_targets); each BENCH_*.json must be identical apart from
#      wall_clock_ms, compare_baselines.py --exact must find the change's
#      JSONs equal to bench/baselines, and each bench's stdout and stderr
#      (the printed figure tables) must be identical once normalised (see
#      smoke_norm);
#   2. elastic_scaleout, whose whole output is in simulated time;
#   3. chaos_soak --seeds 200 in plain, --elasticity and
#      --elasticity --history modes;
#   4. the --no-fencing --history anchor seeds 317 and 419.
# Soak output is normalised first: wall= host times are cut, and the line
# numbers of file.cc:LINE log tags are dropped (they move with every edit).
# stdout and stderr are diffed apart, since merged they can interleave
# differently from run to run.
#
# Every difference is printed. The summary also lists each build's wall
# seconds and peak RSS per step, so a host-speed or memory change can read
# its gain off the same run (steps 1, 3 and 4 run in sequence, step 2
# beside them; a step's peak RSS is the largest ru_maxrss of the processes
# it ran). Exit status: 0
# when there is no drift, 1 on any drift, 2 on bad arguments. Outputs go to
# <build>/drift/. Both builds run side by side, two processes each;
# ~6 minutes on 4 vCPUs, most of it elastic_scaleout.

set -u

if [ $# -ne 2 ] || [ ! -x "$1/chaos_soak" ] || [ ! -x "$2/chaos_soak" ] ||
  [ ! -f "$1/CMakeCache.txt" ] || [ ! -f "$2/CMakeCache.txt" ]; then
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

# smoke_norm FILE < OUTPUT: what a smoke bench printed, minus what differs
# between two builds of the same model: the path in the "[bench json] wrote"
# line, the line numbers of file.cc:LINE log tags, and bench_power_model's
# google-benchmark timings (its stdout rows keep only the benchmark name;
# its stderr is google-benchmark's host context, date, CPU and load, and is
# dropped whole).
smoke_norm() {
  case $1 in
    bench_power_model.err) : ;;
    bench_power_model.out) sed -E 's/^(BM_[A-Za-z0-9_]+) .*/\1/' ;;
    *) cat ;;
  esac | sed -e 's|^\[bench json\] wrote .*/|[bench json] wrote |' \
    -e 's/\(\.cc\):[0-9]*\]/\1]/'
}

# rss FILE CMD...: run CMD, then append its peak RSS (ru_maxrss, KiB) to
# FILE. Exits with CMD's status.
rss() {
  python3 -c 'import resource, subprocess, sys
rc = subprocess.call(sys.argv[2:])
with open(sys.argv[1], "a") as f:
    f.write("%d\n" % resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(rc)' "$@"
}

# lap OUT_DIR STEP START RSS_FILE: append "STEP<TAB>seconds since START
# <TAB>largest peak RSS in RSS_FILE, MB" to OUT_DIR/wall.tsv and remove
# RSS_FILE; START is an $EPOCHREALTIME reading.
lap() {
  awk -v step="$2" -v t0="$3" -v t1="$EPOCHREALTIME" \
    '$1 > kb { kb = $1 }
     END { printf "%s\t%.1f\t%.1f\n", step, t1 - t0, kb / 1024 }' \
    "$4" >> "$1/wall.tsv"
  rm -f "$4"
}

# bench_targets BUILD: the bench binaries BUILD makes from its source tree
# today, one per bench/*.cc of the tree its CMakeCache.txt names. A binary
# left in a reused build directory by a bench since deleted is not among
# them. A bench the build skips (bench_power_model without google-benchmark)
# is named but not built, so the loop below passes it by.
bench_targets() {
  local src x
  src=$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$1/CMakeCache.txt")
  for x in "$src"/bench/*.cc; do
    x=${x##*/}
    echo "$1/${x%.cc}"
  done
}

# Smoke benches, then the soaks and anchor seeds, of one build.
run_benches_and_soaks() {
  local b=$1 out=$1/drift x m s t0 benches
  local kb=$out/steps.rss
  rm -rf "$out/json" "$out/smoke" && mkdir -p "$out/json" "$out/smoke"
  mapfile -t benches < <(bench_targets "$b")
  rm -f "$kb"
  t0=$EPOCHREALTIME
  for x in "${benches[@]}"; do
    [ -f "$x" ] && [ -x "$x" ] || continue
    WATTDB_BENCH_SMOKE=1 WATTDB_BENCH_JSON_DIR="$out/json" rss "$kb" "$x" \
      > "$out/smoke/${x##*/}.out" 2> "$out/smoke/${x##*/}.err"
  done
  lap "$out" "1. smoke benches" "$t0" "$kb"
  t0=$EPOCHREALTIME
  for m in "${soak_modes[@]}"; do
    [ "$m" = plain ] && m=""
    # shellcheck disable=SC2086  # $m holds zero or more flags.
    rss "$kb" "$b/chaos_soak" --seeds 200 $m 2> "$out/soak${m// /}.err" |
      norm > "$out/soak${m// /}.out"
  done
  lap "$out" "3. chaos_soak" "$t0" "$kb"
  t0=$EPOCHREALTIME
  for s in "${anchor_seeds[@]}"; do
    rss "$kb" "$b/chaos_soak" --seed "$s" --no-fencing --history \
      2> "$out/anchor$s.err" | norm > "$out/anchor$s.out"
  done
  lap "$out" "4. anchor seeds" "$t0" "$kb"
}

run_build() {
  local b=$1
  mkdir -p "$b/drift"
  rm -f "$b/drift/wall.tsv" "$b/drift/elastic.rss"
  {
    local t0=$EPOCHREALTIME
    rss "$b/drift/elastic.rss" "$b/elastic_scaleout" \
      > "$b/drift/elastic.out" 2> "$b/drift/elastic.err"
    lap "$b/drift" "2. elastic_scaleout" "$t0" "$b/drift/elastic.rss"
  } &
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

# 1. Smoke stdout and stderr.
for f in "$parent"/drift/smoke/*; do
  name=$(basename "$f")
  if [ ! -f "$change/drift/smoke/$name" ]; then
    echo "DRIFT: smoke output $name missing from the change" >&2
    drift=1
    continue
  fi
  check "$name" <(smoke_norm "$name" < "$f") \
    <(smoke_norm "$name" < "$change/drift/smoke/$name")
done

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

echo "wall seconds and peak RSS MB per step (parent / change):"
join -t $'\t' <(sort "$parent/drift/wall.tsv") <(sort "$change/drift/wall.tsv") |
  awk -F '\t' '{ printf "  %-20s %7s / %7s s  %7s / %7s MB\n",
                  $1, $2, $4, $3, $5 }'

if [ $drift -eq 0 ]; then
  echo "drift check: no modeled drift"
else
  echo "drift check: modeled drift found (see DRIFT lines above)" >&2
fi
exit $drift
