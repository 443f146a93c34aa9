#!/usr/bin/env python3
"""Paired benchmark runs of a base commit against the working tree.

    python3 scripts/bench_pairs.py --pr NUMBER --base HEAD --seed 5 --seed 7

Both sides run from fresh `git archive` exports in a temporary directory:
the base commit, and the change as `git stash create` records the working
tree's tracked files (HEAD when nothing is modified), so both are measured
from alike directories.  The script refuses to run when src/ holds untracked
files, which that export would leave out, and when the two trees'
perfbench/ directories or BENCHMARK.json differ, so both sides are measured
by the same benchmark.  For every pair it removes each src/ tree's
__pycache__ directories, then runs the command BENCHMARK.json declares once
per side (--workload W --seed N --seconds S --trace 0, S being its
run_seconds), with PYTHONDONTWRITEBYTECODE=1, alternating which side goes
first.  It makes ten pairs for every workload BENCHMARK.json declares.  It
prints, per workload, seed and end-to-end metric, each side's median [q1,
q3] and how many pairs the change won (ties count for neither side), and
rewrites BENCH_<pr>.json in the working tree after every pair, with both
commit ids, so an interrupted session keeps the pairs it finished.

Standard library only; it reads BENCHMARK.json and the benchmark's JSON
result line, and imports nothing from the benchmark.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
# Neither side writes bytecode, so every run compiles its modules afresh.
RUN_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The files of commit rev, written under dest by git archive."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def benchmark_differences(a: Path, b: Path) -> list:
    """Files of perfbench/ and BENCHMARK.json that differ between trees a
    and b, or exist in one only; bytecode caches aside."""
    def files(tree):
        found = {p.relative_to(tree) for p in (tree / "perfbench").rglob("*")
                 if p.is_file() and "__pycache__" not in p.parts}
        if (tree / "BENCHMARK.json").is_file():
            found.add(Path("BENCHMARK.json"))
        return found

    in_a, in_b = files(a), files(b)
    return sorted(str(rel) for rel in in_a | in_b
                  if rel not in in_a or rel not in in_b
                  or not filecmp.cmp(a / rel, b / rel, shallow=False))


def clear_bytecode(tree: Path):
    for cache in sorted((tree / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def run_once(tree: Path, command, workload, seed, seconds) -> dict:
    """One benchmark run in tree: its JSON result line, parsed."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, **RUN_ENV))
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit("error: %s in %s printed no result (exit %d):\n%s"
                         % (" ".join(argv), tree, proc.returncode, proc.stderr)) from None
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values):
    """(median, q1, q3); the quartiles by statistics.quantiles' default
    (exclusive) method, or the single value when there is one."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def summarize(runs, metrics) -> dict:
    """Per "workload seed N" and metric: each side's median [q1, q3] and the
    change's wins over complete pairs."""
    out = {}
    for key in sorted({(r["workload"], r["seed"]) for r in runs}):
        pairs = {}
        for r in runs:
            if (r["workload"], r["seed"]) == key:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        if not complete:
            continue
        rows = {}
        for m in metrics:
            sign = 1 if m["better"] == "higher" else -1
            base = [p["base"]["metrics"][m["name"]] for p in complete]
            change = [p["change"]["metrics"][m["name"]] for p in complete]
            rows[m["name"]] = {
                "unit": m["unit"],
                "better": m["better"],
                "base": dict(zip(("median", "q1", "q3"), quartiles(base))),
                "change": dict(zip(("median", "q1", "q3"), quartiles(change))),
                "change_better": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
                "pairs": len(complete),
            }
        rows["correct"] = all(s["correct"] for p in complete for s in p.values())
        out["%s seed %d" % key] = rows
    return out


def report(summary, metrics):
    for key, rows in summary.items():
        print("%s  (%d pairs, all correct: %s)"
              % (key, rows[metrics[0]["name"]]["pairs"], rows["correct"]))
        for m in metrics:
            row = rows[m["name"]]
            print("  %-14s base %s  change %s  change better %d/%d"
                  % (m["name"], _mqq(row["base"]), _mqq(row["change"]),
                     row["change_better"], row["pairs"]))


def _mqq(q):
    return "%.4g [%.4g, %.4g]" % (q["median"], q["q1"], q["q3"])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    p.add_argument("--base", required=True, help="the base commit, e.g. HEAD or a hash")
    p.add_argument("--seed", type=int, action="append", required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    out_path = ROOT / ("BENCH_%s.json" % args.pr)
    untracked = git("ls-files", "--others", "--exclude-standard", "src")
    if untracked:
        raise SystemExit("error: src/ holds untracked files, which the change's "
                         "export would leave out: " + ", ".join(untracked.split("\n")))
    commits = {"base": git("rev-parse", args.base),
               "change": git("stash", "create") or git("rev-parse", "HEAD")}
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: export(rev, scratch / side) for side, rev in commits.items()}
        diffs = benchmark_differences(trees["base"], trees["change"])
        if diffs:
            raise SystemExit("error: the benchmark differs between the trees: "
                             + ", ".join(diffs))
        record = {
            "base": commits["base"],
            "change": commits["change"],
            "command": spec["command"],
            "seconds": seconds,
            "env": RUN_ENV,
            "python": platform.python_version(),
            "machine": "%s, %d CPUs" % (platform.machine(), os.cpu_count()),
            "runs": [],
        }
        order = ("base", "change")
        for seed in args.seed:
            for workload in workloads:
                for pair in range(PAIRS):
                    sides = order if pair % 2 == 0 else order[::-1]
                    for side in sides:
                        for tree in trees.values():
                            clear_bytecode(tree)
                        result = run_once(trees[side], spec["command"], workload, seed,
                                          seconds)
                        record["runs"].append(dict(result, workload=workload, seed=seed,
                                                   pair=pair, side=side,
                                                   first=sides[0]))
                        print("%s seed %d pair %d %-6s %s" % (
                            workload, seed, pair, side,
                            " ".join("%s=%.4g" % kv for kv in result["metrics"].items())),
                            flush=True)
                    record["summary"] = summarize(record["runs"], metrics)
                    out_path.write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report(record["summary"], metrics)
    print("wrote %s" % out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
