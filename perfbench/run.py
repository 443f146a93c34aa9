#!/usr/bin/env python3
"""The punclr benchmark: three CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--quick]
    python3 perfbench/run.py --compare REPORT.json REPORT.json
    python3 perfbench/run.py --repin

Workloads (see BENCHMARK.json for why each exists):
  parse-corpus  punclr parse over tag lattices (tagseq.gr and integrated.gr),
                comma series (commatext.gr) and a^n (catalan.gr)
  rank-nbest    punclr rank --nbest 10 over long tag lattices and a^n
  train-eval    punclr train on a catalan treebank, then punclr eval

A run generates the inputs from the seed (perfbench/gen.py), then:
  1. times `punclr compile` on the workload's grammars, SETUP_REPS times;
  2. runs the pinned small inputs through the CLI in default format and
     compares the stdout digests, and the structural counters of the traced
     in-process pipeline, with perfbench/pins.json;
  3. with --trace 0, repeats rounds of the workload's CLI invocations (one
     process each, --jobs 1) for --seconds, checking every output;
     with --trace 1, runs one checked CLI round, then alternates traced and
     untraced in-process rounds (perfbench/tracing.py) for --seconds.
Timed samples (compile repetitions, CLI invocations) alternate with a fixed
reference loop and are scaled to the reference speed: see reference_s().
The last stdout line is the JSON result; the exit code is 1 when any
correctness check fails, 2 when the program's sources are not there.
A full report (counters, digests, sizes, per-round times) is written to
.perfbench/reports/ and, with --trace 1, the spans to .perfbench/traces/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
FIXTURES = ROOT / "fixtures"
PINS = HERE / "pins.json"
REQUIRED = ("src/punclr/cli.py", "tests/oracles.py", "fixtures/catalan.gr")

WORKLOADS = ("parse-corpus", "rank-nbest", "train-eval")
GRAMMARS = {
    "parse-corpus": ("tagseq.gr", "integrated.gr", "commatext.gr", "catalan.gr"),
    "rank-nbest": ("tagseq.gr", "catalan.gr"),
    "train-eval": ("catalan.gr",),
}
NBEST = 10
SETUP_REPS = 5
MIN_ROUNDS = 3
CHILD_TIMEOUT = 150  # seconds; no single invocation comes near it
REF_ITERATIONS = 2_000_000
REF_NOMINAL_S = 0.2  # about what the loop takes on the 2-core x86 VM the bounds were set on

# ---------------------------------------------------------------------------
# the workloads' CLI invocations


class Cmd:
    def __init__(self, key, argv, tokens):
        self.key, self.argv, self.tokens = key, [str(a) for a in argv], tokens


def _tagged_tokens(path):
    return sum(len(line.split()) for line in open(path, encoding="utf-8"))


def _tree_tokens(path):
    import checks

    return sum(map(checks.tree_tokens, checks.read_trees(path)))


def commands(workload, inputs, model_out, tsv=True):
    """The workload's invocations, in order.  model_out is where train
    writes the model that eval then reads."""
    d = inputs / workload
    fmt = ["--format", "tsv"] if tsv else []
    if workload == "parse-corpus":
        specs = (("tagseq", "tagseq.gr", "tagseq.txt"),
                 ("integrated", "integrated.gr", "tagseq.txt"),
                 ("comma", "commatext.gr", "comma.txt"),
                 ("catalan", "catalan.gr", "catalan.txt"))
        return [Cmd("parse:" + key, ["parse", "--grammar", FIXTURES / g, "--jobs", "1",
                                     *fmt, d / f], _tagged_tokens(d / f))
                for key, g, f in specs]
    if workload == "rank-nbest":
        return [Cmd("rank:" + s, ["rank", "--grammar", FIXTURES / (s + ".gr"),
                                  "--model", d / (s + ".model"), "--nbest", NBEST,
                                  *fmt, d / (s + ".txt")], _tagged_tokens(d / (s + ".txt")))
                for s in ("tagseq", "catalan")]
    grammar = FIXTURES / "catalan.gr"
    return [
        Cmd("train", ["train", "--grammar", grammar, "--treebank", d / "train.tb",
                      "--model-out", model_out, *fmt], _tree_tokens(d / "train.tb")),
        Cmd("eval", ["eval", "--grammar", grammar, "--model", model_out,
                     "--gold", d / "gold.tb", *fmt], _tree_tokens(d / "gold.tb")),
    ]


def pin_commands(workload, inputs, model_out, tsv):
    cmds = commands(workload, inputs, model_out, tsv)
    if workload == "parse-corpus":  # stats is the one caller of coverage_stats
        d = inputs / workload
        cmds.append(Cmd("stats:comma", ["stats", "--grammar", FIXTURES / "commatext.gr",
                                        "--jobs", "1", *(["--format", "tsv"] if tsv else []),
                                        d / "comma.txt"], _tagged_tokens(d / "comma.txt")))
    for c in cmds:
        c.key = "pin:" + c.key
    return cmds


# ---------------------------------------------------------------------------
# child processes


class Child:
    """One finished CLI process: wall time from start to exit, peak RSS."""

    def __init__(self, wall, rss_mb, code, stdout="", stderr=""):
        self.wall, self.rss_mb, self.code = wall, rss_mb, code
        self.stdout, self.stderr = stdout, stderr

    @property
    def digest(self):
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def spawn(args, out_path, err_path) -> Child:
    """Run python3 with `args` to completion; stdout/stderr go to files."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def serve():
    """The launcher loop: one JSON request per stdin line, one reply each."""
    for line in sys.stdin:
        req = json.loads(line)
        child = spawn(req["args"], req["out"], req["err"])
        print(json.dumps([child.wall, child.rss_mb, child.code]), flush=True)
    return 0


class Launcher:
    """Starts the CLI processes from a helper that is started while the
    harness is still small.  A child's ru_maxrss includes the resident size
    of the process it was forked from, so children forked from the harness
    itself (grown by the oracle and the in-process pipeline) would report
    the harness's memory instead of their own."""

    def __init__(self, work: Path):
        self.work = work
        self.proc = subprocess.Popen([sys.executable, __file__, "--launcher"], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def python(self, args) -> Child:
        out, err = self.work / "child.out", self.work / "child.err"
        self.proc.stdin.write(json.dumps({"args": [str(a) for a in args],
                                          "out": str(out), "err": str(err)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        wall, rss_mb, code = json.loads(reply)
        return Child(wall, rss_mb, code, out.read_text(encoding="utf-8"),
                     err.read_text(encoding="utf-8"))

    def cli(self, argv) -> Child:
        return self.python(["-m", "punclr.cli", *argv])

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# correctness


class Checker:
    """Expected values for one workload's inputs, computed once per run."""

    def __init__(self, workload, inputs):
        import checks
        from punclr.cli import load_artifacts

        self.workload = workload
        d = inputs / workload
        if workload == "parse-corpus":
            def oracle(grammar, path):
                _, backbone, residues, _ = load_artifacts(FIXTURES / grammar)
                return checks.expected_counts("oracle", path, (backbone, residues))

            self.expected = {
                "parse:tagseq": oracle("tagseq.gr", d / "tagseq.txt"),
                "parse:comma": oracle("commatext.gr", d / "comma.txt"),
                "parse:catalan": checks.expected_counts("catalan", d / "catalan.txt"),
            }
        elif workload == "rank-nbest":
            self.words = {s: [w for w, _ in checks.read_tagged(d / (s + ".txt"))]
                          for s in ("tagseq", "catalan")}
            # tagseq rank sentences carry >= 4 PPs, hence >= 14 analyses
            self.expected = {
                "rank:tagseq": [None] * len(self.words["tagseq"]),
                "rank:catalan": checks.expected_counts("catalan", d / "catalan.txt"),
            }
        else:
            self.train_trees = checks.read_trees(d / "train.tb")
            self.n_gold = len(checks.read_trees(d / "gold.tb"))

    def check(self, outputs: dict):
        """outputs: command key -> Child.  Returns (attempted, failed, problems)."""
        import checks

        results = []
        problems = [
            "%s exited %d: %s" % (key, child.code, child.stderr.strip()[-300:])
            for key, child in outputs.items() if child.code != 0
        ]
        out = {key: child.stdout for key, child in outputs.items()}
        if self.workload == "parse-corpus":
            e = self.expected
            results.append(checks.check_parse(out["parse:tagseq"], e["parse:tagseq"], "tagseq"))
            # integrated.gr wraps tagseq.gr under Tx -> Ph -> S: same counts
            try:
                same = [c for _, c in checks.parse_counts(out["parse:tagseq"])]
            except ValueError:
                same = e["parse:tagseq"]
            results.append(checks.check_parse(out["parse:integrated"], same, "integrated"))
            results.append(checks.check_parse(out["parse:comma"], e["parse:comma"], "comma"))
            results.append(checks.check_parse(out["parse:catalan"], e["parse:catalan"], "catalan"))
        elif self.workload == "rank-nbest":
            for s in ("tagseq", "catalan"):
                results.append(checks.check_rank(out["rank:" + s], self.words[s],
                                                 self.expected["rank:" + s], NBEST, "rank " + s))
        else:
            results.append(checks.check_train(out["train"], self.train_trees))
            results.append(checks.check_eval(out["eval"], self.n_gold))
        attempted = sum(r[0] for r in results)
        failed = sum(r[1] for r in results)
        for r in results:
            problems.extend(r[2])
        return attempted, failed, problems


def counters_of(tracer) -> dict:
    """Flat structural counters of one traced round."""
    out = {k: v for k, v in tracer.counters.items()}
    for stats in tracer.grammars.values():
        for k, v in stats.items():
            out[k] = out.get(k, 0) + v
    return dict(sorted(out.items()))


def pinned_outputs(launcher, workload, inputs, work):
    """Default-format stdout digest of each pinned CLI invocation."""
    return {c.key: launcher.cli(c.argv).digest
            for c in pin_commands(workload, inputs, work / "pin-default.model", tsv=False)}


def pinned_counters(inputs, work):
    """Structural counters of the in-process pipeline on every workload's
    pinned inputs."""
    import tracing

    tr = tracing.Tracer()
    with tr.active():
        for w in WORKLOADS:
            for c in pin_commands(w, inputs, work / "pin-tsv.model", tsv=True):
                tracing.run_command(tr, c.argv)
    return counters_of(tr)


def compare_pins(workload, digests, counters):
    pins = json.loads(PINS.read_text())
    problems = []
    for key, digest in digests.items():
        if pins["digests"].get(workload, {}).get(key) != digest:
            problems.append("pinned stdout digest differs: %s %s" % (workload, key))
    for key in sorted(set(counters) | set(pins["counters"])):
        if pins["counters"].get(key) != counters.get(key):
            problems.append("pinned counter differs: %s = %r, pinned %r"
                            % (key, counters.get(key), pins["counters"].get(key)))
    return problems


# ---------------------------------------------------------------------------
# measurement


def percentile(values, pct):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def reference_s():
    """Wall time of a fixed pure-Python loop: the machine's current speed.

    The machine is shared, and its speed drifts by 15-25% in phases that
    last from seconds to minutes, so two runs of the same code differ by
    that much in plain wall time.  Every timed sample is taken between two
    reference loops and scaled to the speed at which the loop takes
    REF_NOMINAL_S (see corrected())."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def corrected(walls, refs):
    """Sample i's wall time at the reference speed; refs[i] and refs[i + 1]
    were taken right before and right after it."""
    return [w * 2 * REF_NOMINAL_S / (refs[i] + refs[i + 1]) for i, w in enumerate(walls)]


def measure_setup(launcher, workload, reps):
    """punclr compile on each of the workload's grammars, `reps` times."""
    samples, refs, rss = [], [reference_s()], 0.0
    for _ in range(reps):
        total = 0.0
        for g in GRAMMARS[workload]:
            child = launcher.cli(["compile", FIXTURES / g])
            if child.code != 0:
                raise RuntimeError("punclr compile %s exited %d" % (g, child.code))
            total += child.wall
            rss = max(rss, child.rss_mb)
        samples.append(total)
        refs.append(reference_s())
    return samples, refs, rss


def cli_rounds(launcher, cmds, checker, seconds, min_rounds):
    """Rounds of CLI invocations until `seconds` have passed, with a
    reference loop before the first invocation and after each one."""
    rounds, refs = [], [reference_s()]
    attempted = failed = 0
    problems = []
    first = None
    t_end = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < t_end:
        outputs = {}
        for c in cmds:
            outputs[c.key] = launcher.cli(c.argv)
            refs.append(reference_s())
        a, f, p = checker.check(outputs)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)
        digests = {k: child.digest for k, child in outputs.items()}
        if first is None:
            first = digests
        elif digests != first:
            changed = sorted(k for k in digests if digests[k] != first[k])
            problems.append("round %d output differs from round 0: %s"
                            % (len(rounds), ", ".join(changed)))
            failed += len(changed)
        rounds.append(outputs)
    return rounds, refs, attempted, failed, problems, first


def catalan_exponent(points):
    """Least-squares slope of log(time) on log(n), median time per n >= 8."""
    by_n = {}
    for n, t in points:
        if n >= 8 and t > 0:
            by_n.setdefault(n, []).append(t)
    if len(by_n) < 2:
        return 0.0
    xs = [math.log(n) for n in by_n]
    ys = [math.log(statistics.median(ts)) for ts in by_n.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def traced_rounds(cmds, seconds, min_rounds):
    """Alternate traced and untraced in-process rounds; each round runs the
    workload's commands and every workload's pinned commands, so each layer
    is timed on every workload."""
    import tracing

    traced, untraced = [], []
    t_end = time.perf_counter() + seconds
    while len(traced) < min_rounds or time.perf_counter() < t_end:
        for kind, sink in ((tracing.Tracer, traced), (tracing.NullTracer, untraced)):
            tr = kind()
            with tr.active():
                t0 = time.perf_counter()
                outputs = {c.key: tracing.run_command(tr, c.argv) for c in cmds}
                wall = time.perf_counter() - t0
            sink.append((tr, wall, outputs))
    return traced, untraced


SPAN_METRICS = {
    "grammar.load": "grammar.load_s", "grammar.compile": "grammar.compile_s",
    "lalr.build": "lalr.build_s", "lalr.table_hash": "lalr.table_hash_s",
    "lattice.read": "lattice.read_s", "trees.read": "trees.read_s",
    "trees.walk": "trees.walk_s", "glr.parse": "glr.parse_s",
    "glr.constrained_parse": "glr.constrained_parse_s", "glr.count": "glr.count_s",
    "model.rank": "model.rank_s", "model.extract_histories": "model.extract_histories_s",
    "model.train_counts": "model.train_counts_s", "model.smooth": "model.smooth_s",
    "model.save": "model.save_s", "model.load": "model.load_s",
    "evalmetrics.geig": "evalmetrics.geig_s", "evalmetrics.coverage": "evalmetrics.coverage_s",
    "bench.count": "trace.bench_s",
}
COUNTER_METRICS = (
    "grammar.productions", "lalr.states", "lalr.actions", "lalr.conflict_cells",
    "lattice.tokens", "trees.count", "glr.forest_nodes", "glr.forest_bundles",
    "glr.parse_count_log10_sum", "glr.ok", "glr.fail", "glr.timeout",
    "model.rank_analyses", "model.histories", "model.history_cap_drops", "model.contexts",
    "evalmetrics.brackets",
)


def layer_metrics(traced, untraced, tokens, import_s):
    """Per-layer metrics: self times averaged over traced rounds, per-sentence
    percentiles over all of them, counters of the first round."""
    rounds = len(traced)
    self_s = {}
    parse_ms, rank_ms, catalan = [], [], []
    for tr, _, _ in traced:
        for name, t in tr.self_times().items():
            key = SPAN_METRICS.get(name, "cli.self_s" if name.startswith("cli.") else None)
            if key is None:
                raise KeyError("span %s has no metric" % name)
            self_s[key] = self_s.get(key, 0.0) + t / rounds
        for name, start, end, _, sid in tr.spans:
            if name == "glr.parse":
                parse_ms.append(1000.0 * (end - start))
                if sid[0] == "catalan":
                    catalan.append((sid[2], end - start))
            elif name == "model.rank":
                rank_ms.append(1000.0 * (end - start))
    counters = counters_of(traced[0][0])
    walls = [w for _, w, _ in traced]
    plain_walls = [w for _, w, _ in untraced]
    m = {key: self_s.get(key, 0.0) for key in sorted(set(SPAN_METRICS.values()) | {"cli.self_s"})}
    m["glr.parse_ms.p50"] = percentile(parse_ms, 50)
    m["glr.parse_ms.p90"] = percentile(parse_ms, 90)
    m["model.rank_ms.p50"] = percentile(rank_ms, 50)
    m["model.rank_ms.p90"] = percentile(rank_ms, 90)
    m["glr.catalan_exponent"] = catalan_exponent(catalan)
    for key in COUNTER_METRICS:
        m[key] = counters.get(key, 0)
    m["lattice.hyp_kept_ratio"] = counters["lattice.labels_kept"] / counters["lattice.labels_read"]
    m["cli.import_s"] = import_s
    m["trace.wall_s"] = statistics.mean(walls)
    m["trace.self_coverage"] = sum(self_s.values()) / statistics.mean(walls)
    m["trace.tokens_per_s"] = tokens / min(walls)
    m["trace.untraced_tokens_per_s"] = tokens / min(plain_walls)
    m["trace.overhead"] = min(walls) / min(plain_walls) - 1.0
    return m, counters


def write_spans(path, traced):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for r, (tr, _, _) in enumerate(traced):
            for i, (name, start, end, parent, sid) in enumerate(tr.spans):
                fh.write(json.dumps({"round": r, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "sentence": sid}) + "\n")


# ---------------------------------------------------------------------------


def measure(args, launcher, work):
    """One benchmark run: (metrics, attempted, failed, problems, report)."""
    import gen

    pin_inputs = work / "pin"
    gen.generate(0, pin_inputs, quick=True)
    if args.quick:
        inputs, sizes = pin_inputs, None
        reps, min_rounds, seconds = 1, 1, 0
    else:
        inputs = work / "inputs"
        sizes = gen.generate(args.seed, inputs)
        reps, min_rounds, seconds = SETUP_REPS, MIN_ROUNDS, args.seconds
    checker = Checker(args.workload, inputs)
    launcher.cli(["compile", FIXTURES / "catalan.gr"])  # fill the bytecode cache

    setup, setup_refs, setup_rss = measure_setup(launcher, args.workload, reps)
    pin_counters = pinned_counters(pin_inputs, work)
    problems = compare_pins(args.workload,
                            pinned_outputs(launcher, args.workload, pin_inputs, work),
                            pin_counters)
    cmds = commands(args.workload, inputs, work / "cli.model")
    tokens = sum(c.tokens for c in cmds)
    # A traced run makes one checked CLI round, for the checks and the
    # cross-checks of the in-process replay.
    rounds, round_refs, attempted, failed, p, digests = cli_rounds(
        launcher, cmds, checker, *((0, 1) if args.trace else (seconds, min_rounds)))
    problems += p
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "quick": args.quick, "sizes": sizes, "tokens_per_round": tokens,
              "digests": digests, "setup_walls": setup, "setup_refs": setup_refs,
              "round_walls": [sum(ch.wall for ch in r.values()) for r in rounds],
              "walls": {c.key: [r[c.key].wall for r in rounds] for c in cmds},
              "round_refs": round_refs}

    if not args.trace:
        n = len(cmds)
        flat = corrected([r[c.key].wall for r in rounds for c in cmds], round_refs)
        walls = [sum(flat[i:i + n]) for i in range(0, len(flat), n)]
        report["raw_tokens_per_s"] = tokens / statistics.median(report["round_walls"])
        report["raw_setup_s"] = statistics.median(setup)
        metrics = {
            "tokens_per_s": tokens / statistics.median(walls),
            "setup_s": statistics.median(corrected(setup, setup_refs)),
            "peak_rss_mb": max([setup_rss] + [ch.rss_mb for r in rounds for ch in r.values()]),
            "ok_share": 1.0 - failed / attempted,
        }
        report["counters"] = pin_counters
        return metrics, attempted, failed, problems, report

    traced_cmds = commands(args.workload, inputs, work / "traced.model")
    for w in WORKLOADS:
        traced_cmds += pin_commands(w, pin_inputs, work / "pin-tsv.model", tsv=True)
    traced, untraced = traced_rounds(traced_cmds, seconds, min_rounds)
    import_s = statistics.median(
        launcher.python(["-c", "import punclr.cli"]).wall for _ in range(reps))
    metrics, counters = layer_metrics(traced, untraced, sum(c.tokens for c in traced_cmds),
                                      import_s)
    report["counters"] = counters
    report["trace_walls"] = [w for _, w, _ in traced]
    report["untraced_walls"] = [w for _, w, _ in untraced]
    # The traced pipeline must print what the CLI printed (for train, the
    # report this checks is the traced run's own counting), write the same
    # model, and agree with itself from round to round.
    for i, (tr, _, outputs) in enumerate(traced + untraced):
        for c in cmds:
            if hashlib.sha256(outputs[c.key].encode()).hexdigest() != digests[c.key]:
                problems.append("in-process %s output differs from the CLI's" % c.key)
                failed += 1
        if tr.enabled and counters_of(tr) != counters:
            problems.append("traced round %d counters differ from round 0" % i)
    if args.workload == "train-eval":
        if (work / "traced.model").read_bytes() != (work / "cli.model").read_bytes():
            problems.append("traced train wrote a different model than the CLI")
    write_spans(STATE / "traces" / ("%s-seed%d.jsonl" % (args.workload, args.seed)), traced)
    return metrics, attempted, failed, problems, report


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    work = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    launcher = Launcher(work)
    try:
        metrics, attempted, failed, problems, report = measure(args, launcher, work)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in wanted}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report["problems"] = problems
    report["result"] = result
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace,
                                         "-quick" if args.quick else "")
    (STATE / "reports").mkdir(exist_ok=True)
    (STATE / "reports" / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print("workload %s  seed %d  rounds %d  tokens/round %d"
          % (args.workload, args.seed, len(report["round_walls"]), report["tokens_per_round"]))
    print("failed_share %.6f  (%d of %d operations failed)"
          % (failed / attempted, failed, attempted))
    for p in problems:
        print("PROBLEM: " + p)
    for k in units:
        print("  %-32s %14.6g %s" % (k, metrics[k], units[k]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def compare(a, b):
    """Exact comparison of the structural counters and output digests of two
    report files written for the same workload and seed."""
    ra, rb = (json.loads(Path(p).read_text()) for p in (a, b))
    diffs = []
    for section in ("counters", "digests"):
        for key in sorted(set(ra[section]) | set(rb[section])):
            if ra[section].get(key) != rb[section].get(key):
                diffs.append("%s %s: %r != %r" % (section, key, ra[section].get(key),
                                                   rb[section].get(key)))
    for d in diffs:
        print(d)
    print("identical" if not diffs else "%d differences" % len(diffs))
    return 1 if diffs else 0


def repin():
    """Rewrite pins.json from the current program.  Only for a deliberate
    output change, which is then logged in CHANGES.md."""
    import gen

    work = Path(tempfile.mkdtemp(prefix="pin-", dir=STATE))
    launcher = Launcher(work)
    try:
        inputs = work / "pin"
        gen.generate(0, inputs, quick=True)
        pins = {
            "inputs": "perfbench/gen.py 0 --quick",
            "digests": {w: pinned_outputs(launcher, w, inputs, work) for w in WORKLOADS},
            "counters": pinned_counters(inputs, work),
        }
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % PINS)
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="the pinned small inputs, one round: checks, no timings")
    p.add_argument("--compare", nargs=2, metavar="REPORT")
    p.add_argument("--repin", action="store_true")
    p.add_argument("--launcher", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.launcher:
        return serve()
    if args.compare:
        return compare(*args.compare)

    missing = [f for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        print("error: punclr sources not found: %s" % ", ".join(missing), file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    STATE.mkdir(exist_ok=True)
    if args.repin:
        return repin()
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
