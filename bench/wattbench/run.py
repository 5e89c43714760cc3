#!/usr/bin/env python3
"""Build wattbench and run its workloads.

One workload, as BENCHMARK.json's command runs it (from the root of a
checkout; builds on first use, prints one JSON result line last):

    python3 bench/wattbench/run.py --workload kv-skew-rebalance --seed 1 \\
        --seconds 10 --trace 0

Every workload in sequence, untraced then traced:

    python3 bench/wattbench/run.py --all [--trace 1]

Two builds (parent and change, each built with --build-only --build-dir),
alternated over N pairs per workload, with per-metric medians, quartiles,
win rate and a verdict against each bound; modeled drift (a changed model
fingerprint) is reported apart from host changes:

    python3 bench/wattbench/run.py --compare PARENT_DIR CHANGE_DIR --pairs 10

Two sets of runs of one build over N seeds: every modeled value must repeat
bit for bit, every end-to-end median must hold within its bound, and each
spread is printed as a share of its bound:

    python3 bench/wattbench/run.py --agree --seeds 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure (once) and build the standalone project; output to stderr."""
    if not (ROOT / "src" / "api" / "db.h").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}; "
             "run from the root of a full checkout")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "wattbench"


def run_once(binary, workload, seed, seconds, trace, quiet=False):
    """Run one workload; returns (exit code, result line, detail json)."""
    out_dir = binary.parent / "out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL if quiet else sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} ran past {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if not quiet:
        print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
        detail = json.loads((out_dir / f"{workload}.json").read_text())
    except (IndexError, ValueError, OSError):
        fail(f"{workload} seed {seed} printed no result "
             f"(exit {proc.returncode})", 1)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in expected}:
        fail(f"{workload}: the binary's metrics and units differ from "
             "BENCHMARK.json", 1)
    return proc.returncode, result, detail


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def fmt_q(q):
    return "/".join(f"{v:.4g}" for v in q)


def worse_by(name, base, new):
    """Share by which `new` is worse than `base` (negative = better)."""
    if base == 0:
        return 0.0
    delta = (new - base) / abs(base)
    return delta if E2E[name]["better"] == "lower" else -delta


def cmd_all(args, binary):
    seconds = args.seconds or SPEC["run_seconds"]
    rc = 0
    for w in WORKLOADS:
        for trace in ([False, True] if args.trace else [False]):
            code, result, _ = run_once(binary, w, args.seed, seconds, trace)
            print(json.dumps(result))
            rc = rc or code
    return rc


def collect(binary, workloads, seeds, seconds):
    """{workload: {seed: (metrics dict, fingerprint, correct)}}"""
    out = {}
    for w in workloads:
        for seed in seeds:
            code, result, detail = run_once(binary, w, seed, seconds, False,
                                            quiet=True)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            out.setdefault(w, {})[seed] = (values, detail["fingerprint"],
                                           code == 0 and result["correct"])
            print(f"  {binary.parent.name} {w} seed {seed}: "
                  + ("ok" if code == 0 else "FAILED"), file=sys.stderr)
    return out


def cmd_agree(args, binary):
    seconds = args.seconds or SPEC["run_seconds"]
    seeds = list(range(args.seed, args.seed + args.seeds))
    sets = [collect(binary, WORKLOADS, seeds, seconds) for _ in range(2)]
    ok = True
    for w in WORKLOADS:
        print(f"\n{w}")
        for seed in seeds:
            a, b = sets[0][w][seed], sets[1][w][seed]
            if not (a[2] and b[2]):
                ok = False
                print(f"  seed {seed}: a check failed")
            if a[1] != b[1]:
                ok = False
                print(f"  seed {seed}: modeled values differ "
                      f"({a[1]} vs {b[1]})")
        print(f"  {'metric':<22} {'median 1':>12} {'median 2':>12} "
              f"{'spread 1':>9} {'spread 2':>9} {'bound':>6}  verdict")
        for name, spec in E2E.items():
            v1 = [sets[0][w][s][0][name] for s in seeds]
            v2 = [sets[1][w][s][0][name] for s in seeds]
            m1, m2 = statistics.median(v1), statistics.median(v2)
            s1, s2 = spread(v1), spread(v2)
            drift = worse_by(name, m1, m2)
            bad = drift > spec["bound"] or (
                name != "setup_s" and max(s1, s2) > spec["bound"])
            ok = ok and not bad
            print(f"  {name:<22} {m1:>12.5g} {m2:>12.5g} {s1:>9.4f} "
                  f"{s2:>9.4f} {spec['bound']:>6}  "
                  + ("OUT OF BOUND" if bad else
                     "ok" if max(s1, s2) < spec["bound"] / 3 or
                     name == "setup_s" else "ok (spread over a third)"))
    print("\nagree: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_compare(args):
    seconds = args.seconds or SPEC["run_seconds"]
    builds = [Path(d).resolve() / "wattbench" for d in args.compare]
    for b in builds:
        if not b.is_file():
            fail(f"no wattbench binary in {b.parent}; build it with "
                 "--build-only --build-dir DIR from that tree")
    seeds = list(range(args.seed, args.seed + args.pairs))
    runs = {0: {}, 1: {}}
    for i, seed in enumerate(seeds):
        # Alternate which side runs first so drift in the machine's load
        # does not favour one side.
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            got = collect(builds[side], WORKLOADS, [seed], seconds)
            for w, per_seed in got.items():
                runs[side].setdefault(w, {}).update(per_seed)
    regress = False
    for w in WORKLOADS:
        print(f"\n{w}")
        drift = [s for s in seeds
                 if runs[0][w][s][1] != runs[1][w][s][1]]
        print("  modeled drift: " + (
            "none (fingerprints identical on every seed)" if not drift else
            f"fingerprint changed on seeds {drift}"))
        print(f"  {'metric':<22} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'wins':>6} {'bound':>6}  verdict")
        for name, spec in E2E.items():
            p = [runs[0][w][s][0][name] for s in seeds]
            c = [runs[1][w][s][0][name] for s in seeds]
            wins = sum(worse_by(name, pv, cv) < 0 for pv, cv in zip(p, c))
            ties = sum(pv == cv for pv, cv in zip(p, c))
            pq, cq = quartiles(p), quartiles(c)
            worse = worse_by(name, pq[1], cq[1])
            decided = len(seeds) - ties
            if worse > spec["bound"]:
                verdict = "REGRESSION"
                regress = True
            elif spread(p) > spec["bound"]:
                verdict = "unresolved (parent spread over bound)"
            elif decided and wins >= 0.9 * decided and -worse > spread(p):
                verdict = "gain"
            else:
                verdict = "no change beyond bound"
            print(f"  {name:<22} {fmt_q(pq):>32} {fmt_q(cq):>32} "
                  f"{wins:>3}/{len(seeds) - ties:<2} {spec['bound']:>6}  "
                  f"{verdict}")
    return 1 if regress else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--build-dir", default=str(ROOT / "build-wattbench"))
    ap.add_argument("--build-only", action="store_true")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--agree", action="store_true")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    if args.compare:
        return cmd_compare(args)
    binary = build(Path(args.build_dir).resolve())
    if args.build_only:
        return 0
    if args.all:
        return cmd_all(args, binary)
    if args.agree:
        return cmd_agree(args, binary)
    if not args.workload:
        ap.error("--workload, --all, --agree or --compare is required")
    code, result, _ = run_once(binary, args.workload, args.seed,
                               args.seconds or SPEC["run_seconds"],
                               args.trace == 1)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
