"""Command-line pipeline: compile, parse, train, rank, eval, stats, ablate.

Reports are deterministic byte-for-byte given identical inputs and seeds;
timings are printed only on request since they never are.  Exit codes:
0 success, 1 usage error, 2 data or hash mismatch, 3 no analysis under
--strict.

Modules that only some subcommands run (model, evalmetrics, trees,
fractions) are imported inside the functions that run them, so each process
loads only what its subcommand runs.  hashlib, which loads OpenSSL, is
imported only where a table or backbone hash is first computed, and parse
and stats compute none.  A `python -m punclr.cli` process ends through
run(), which flushes its output and calls os._exit: every file is closed by
then, and CPython's finalization, which frees each object one by one, would
cost several milliseconds per process and change nothing that is written.
"""
from __future__ import annotations

import argparse
import gc
import math
import os
import random
import sys
from pathlib import Path

from .glr import (
    constrained_parse,
    count_parses,
    derivation_to_tree,
    export_forest,
    inside_counts,
    lattice_from_labels,
    nth_derivation,
    parse_lattice,
)
from .grammar import GrammarError, compile_grammar, load_grammar
from .lalr import ModelError, build_lalr, dump_table
from .lattice import read_tagged_file, to_lattice

MAX_HISTORIES = 5000


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_artifacts(grammar_path):
    grammar = load_grammar(grammar_path)
    backbone, residues = compile_grammar(grammar)
    table = build_lalr(backbone)
    return grammar, backbone, residues, table


def load_model_for(table, path):
    """The model at path, which must have been trained against table."""
    from .model import load_model

    model = load_model(path)
    if model.table_hash != table.table_hash():
        raise DataError(
            "model %s was trained against table %s, not the grammar's table %s"
            % (path, model.table_hash, table.table_hash())
        )
    return model


def read_lattices(path, plain, certainty, ratio):
    out = []
    for tokens in read_tagged_file(path, plain=plain):
        out.append(to_lattice(tokens, certainty, ratio))
    return out


lattice_from_leaves = lattice_from_labels  # the name perfbench/tracing.py calls


# ---------------------------------------------------------------------------
# workers for sentence-level parallelism

_WORKER_STATE = {}


def _init_worker(grammar_path):
    _WORKER_STATE["artifacts"] = load_artifacts(grammar_path)


def _parse_one(job):
    """Parse one sentence and count its analyses; with a dump directory,
    also write the forest of a sentence that parsed there."""
    idx, lattice, budget, dump_dir = job
    _, _, residues, table = _WORKER_STATE["artifacts"]
    outcome = parse_lattice(lattice, table, residues, budget=budget)
    count = count_parses(outcome.forest) if outcome.ok else None
    if dump_dir and outcome.ok:
        (Path(dump_dir) / ("sentence%03d.forest" % idx)).write_text(
            export_forest(outcome.forest), encoding="utf-8"
        )
    return idx, outcome.status, count, outcome.cpu_seconds


def _run_parses(args, lattices, artifacts, dump_dir=None):
    """_parse_one's result per lattice, in input order as pool.map keeps it."""
    jobs = [(i, lat, args.timeout, dump_dir) for i, lat in enumerate(lattices)]
    if args.jobs > 1:
        # imported here: importing the pool costs every process about 40 ms
        # and 2.5 MB, and only --jobs > 1 uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=args.jobs,
            initializer=_init_worker,
            initargs=(args.grammar,),
        ) as pool:
            return list(pool.map(_parse_one, jobs))
    _WORKER_STATE["artifacts"] = artifacts
    return [_parse_one(j) for j in jobs]


# ---------------------------------------------------------------------------
# subcommands

def cmd_compile(args):
    grammar, backbone, residues, table = load_artifacts(args.grammar)
    if args.table_out:
        dump_table(table, args.table_out)
    rows = [
        ("grammar rules", len(grammar.rules)),
        ("backbone productions", len(backbone.productions)),
        ("lalr states", table.n_states),
        ("table actions", table.action_count),
        ("backbone hash", table.backbone_hash),
        ("table hash", table.table_hash()),
    ]
    if args.format == "tsv":
        print("\t".join(str(k) for k, _ in rows))
        print("\t".join(str(v) for _, v in rows))
    else:
        for k, v in rows:
            print("%-22s %s" % (k, v))
    return 0


def cmd_parse(args):
    artifacts = load_artifacts(args.grammar)
    lattices = read_lattices(args.input, args.plain, args.certainty, args.ratio)
    if args.dump_forest:
        Path(args.dump_forest).mkdir(parents=True, exist_ok=True)
    results = _run_parses(args, lattices, artifacts, args.dump_forest)
    failures = 0
    if args.format == "tsv":
        print("sentence\tstatus\tparses")
    for idx, status, count, cpu in results:
        if status != "ok":
            failures += 1
        cell = str(count) if count is not None else "-"
        if args.format == "tsv":
            print("%d\t%s\t%s" % (idx, status, cell))
        else:
            line = "sentence %-4d %-8s %s parses" % (idx, status, cell)
            if args.timing:
                line += "  (%.3fs)" % cpu
            print(line)
    if args.strict and failures:
        return 3
    return 0


def _subsample(trees, spec, seed):
    if spec is None:
        return list(trees)
    from fractions import Fraction

    frac = Fraction(spec)
    count = int(round(float(frac) * len(trees)))
    rng = random.Random(seed)
    if count >= len(trees):
        return list(trees)
    return rng.sample(list(trees), count)


def train_model_from_treebanks(artifacts, treebank_paths, weights, subsample=None,
                               seed=0, max_histories=MAX_HISTORIES):
    """Read (and subsample) weighted treebanks, then train_from_trees;
    returns (counts, model, report dict)."""
    from .trees import read_treebank

    trees = []
    for path, weight in zip(treebank_paths, weights):
        for _, tree in read_treebank(path):
            trees.append((tree, weight))
    return train_from_trees(artifacts, _subsample(trees, subsample, seed), max_histories)


def train_from_trees(artifacts, weighted_trees, max_histories=MAX_HISTORIES):
    """Bracket-constrained training from (tree, weight) pairs; returns
    (counts, model, report dict).  Each of a tree's m consistent derivations
    counts at weight/m, read off the forest by transition_occurrences; a tree
    with more than max_histories derivations is skipped."""
    from .evalmetrics import extract_brackets
    from .model import TransitionCounts, smooth_good_turing, transition_occurrences
    from .trees import tree_leaves

    grammar, backbone, residues, table = artifacts
    counts = TransitionCounts({}, table.table_hash())
    histories = used = inconsistent = unparseable = capped = 0
    for tree, weight in weighted_trees:
        lattice = lattice_from_labels(tree_leaves(tree))
        outcome = constrained_parse(lattice, table, residues, extract_brackets(tree).spans)
        if not outcome.ok:
            plain = parse_lattice(lattice, table, residues)
            if plain.ok:
                inconsistent += 1
            else:
                unparseable += 1
            continue
        inside = inside_counts(outcome.forest)
        m = inside[outcome.forest.root]
        if m > max_histories:
            capped += 1
            continue
        # (1.0 / m) * weight rounds as extract_histories' 1/m times the
        # tree's weight does; weight / m may differ in the last bit
        occurrences = transition_occurrences(outcome.forest, inside)
        counts.add_occurrences(occurrences, m, (1.0 / m) * weight)
        used += 1
        histories += m
    model = smooth_good_turing(counts, table)
    report = {
        "trees": len(weighted_trees),
        "used": used,
        "histories": histories,
        "skeleton_inconsistent": inconsistent,
        "unparseable": unparseable,
        "over_history_cap": capped,
    }
    return counts, model, report


def cmd_train(args):
    from .model import save_counts, save_model

    weights = args.weight or []
    if len(weights) > len(args.treebank):
        raise UsageError(
            "%d --weight values for %d --treebank files" % (len(weights), len(args.treebank))
        )
    for w in weights:
        if not (math.isfinite(w) and w > 0):
            raise UsageError("--weight must be finite and positive, not %r" % w)
    if args.subsample is not None:
        from fractions import Fraction

        try:
            positive = Fraction(args.subsample) > 0
        except (ValueError, ZeroDivisionError):
            positive = False
        if not positive:
            raise UsageError(
                "--subsample must be a positive fraction such as 1/64, not %r"
                % args.subsample
            )
    artifacts = load_artifacts(args.grammar)
    weights = weights + [1.0] * (len(args.treebank) - len(weights))
    counts, model, report = train_model_from_treebanks(
        artifacts,
        args.treebank,
        weights,
        subsample=args.subsample,
        seed=args.seed,
        max_histories=args.max_histories,
    )
    if report["used"] == 0:
        raise DataError("no usable treebank sentences (of %d read)" % report["trees"])
    save_model(model, args.model_out)
    if args.counts_out:
        save_counts(counts, args.counts_out)
    frac_bad = (
        report["skeleton_inconsistent"] / report["trees"] if report["trees"] else 0.0
    )
    rows = [
        ("treebank trees", report["trees"]),
        ("sentences used", report["used"]),
        ("histories extracted", report["histories"]),
        ("skeleton-inconsistent", report["skeleton_inconsistent"]),
        ("unparseable", report["unparseable"]),
        ("over history cap", report["over_history_cap"]),
        ("fraction inconsistent", "%.3f" % frac_bad),
        ("table hash", model.table_hash),
    ]
    if args.format == "tsv":
        print("\t".join(str(k) for k, _ in rows))
        print("\t".join(str(v) for _, v in rows))
    else:
        for k, v in rows:
            print("%-22s %s" % (k, v))
    return 0


def cmd_rank(args):
    from .model import RankTimeout, rank_nbest
    from .trees import format_tree

    grammar, backbone, residues, table = load_artifacts(args.grammar)
    model = load_model_for(table, args.model)
    lattices = read_lattices(args.input, args.plain, args.certainty, args.ratio)
    failures = 0
    for i, lat in enumerate(lattices):
        # the last sentence's analyses hold its forest: let it go first
        outcome = ranked = analysis = None
        outcome = parse_lattice(lat, table, residues, budget=args.timeout)
        status = outcome.status
        if outcome.ok:
            try:
                ranked = rank_nbest(
                    outcome.forest, model, args.nbest,
                    include_tag_likelihoods=args.tag_likelihoods,
                    budget=args.timeout - outcome.cpu_seconds,
                )
            except RankTimeout:
                status = "timeout"
        if status != "ok":
            failures += 1
            if args.format == "tsv":
                print("%d\t*\t%s\t-" % (i, status))
            else:
                print("sentence %-4d %s" % (i, status))
            continue
        for analysis in ranked:
            rendered = format_tree(analysis.tree)
            if args.format == "tsv":
                print("%d\t%d\t%r\t%s" % (i, analysis.rank, analysis.log_prob, rendered))
            else:
                print(
                    "sentence %-4d rank %d  logp %.6f  %s"
                    % (i, analysis.rank, analysis.log_prob, rendered)
                )
    if args.strict and failures:
        return 3
    return 0


def _with_words(tree, words):
    """tree itself: derivation_to_tree already puts each lattice word on its
    leaf (perfbench/tracing.py calls this)."""
    return tree


def select_analysis(forest, model, rng=None, budget=None):
    """Rank-1 analysis, or a random derivation when rng is given (the
    zero-training condition).  budget bounds the ranking's CPU seconds as in
    rank_nbest, which raises RankTimeout past it."""
    if rng is None:
        from .model import rank_nbest

        return rank_nbest(forest, model, 1, budget=budget)[0].tree
    # randrange(m) makes the same draw as choice() over the m enumerated
    # derivations, so the pick is the enumeration's
    index = rng.randrange(count_parses(forest))
    return derivation_to_tree(nth_derivation(forest, index))


def evaluate_against_gold(artifacts, gold_trees, model=None, rng=None, timeout=None):
    """Parse each gold sentence, select one analysis, compare brackets.
    timeout bounds each sentence's parse and ranking together; a sentence
    that fails or runs out of time counts as unparsed.  Returns (report,
    n_failed)."""
    from .evalmetrics import extract_brackets, geig_report
    from .model import RankTimeout
    from .trees import tree_leaves

    grammar, backbone, residues, table = artifacts
    pairs = []
    failed = 0
    for tree in gold_trees:
        lattice = lattice_from_labels(tree_leaves(tree))
        outcome = parse_lattice(lattice, table, residues, budget=timeout)
        if not outcome.ok:
            failed += 1
            continue
        budget = None if timeout is None else timeout - outcome.cpu_seconds
        try:
            chosen = select_analysis(outcome.forest, model, rng, budget)
        except RankTimeout:
            failed += 1
            continue
        pairs.append((extract_brackets(chosen), extract_brackets(tree)))
    if not pairs:
        raise DataError("no gold sentence could be parsed")
    return geig_report(pairs), failed


def cmd_eval(args):
    from .evalmetrics import extract_brackets, geig_report
    from .trees import read_treebank

    gold = list(read_treebank(args.gold))
    if args.parsed:
        parsed = list(read_treebank(args.parsed))
        if len(parsed) != len(gold):
            raise DataError(
                "parsed treebank has %d sentences but gold has %d"
                % (len(parsed), len(gold))
            )
        pairs = []
        for (p_line, p), (g_line, g) in zip(parsed, gold):
            pair = (extract_brackets(p), extract_brackets(g))
            if pair[0].length != pair[1].length:
                raise DataError(
                    "parsed tree at line %d has %d tokens but gold tree at line %d has %d"
                    % (p_line, pair[0].length, g_line, pair[1].length)
                )
            pairs.append(pair)
        report = geig_report(pairs)
        failed = 0
    else:
        if not args.grammar or not args.model:
            raise UsageError("eval needs either --parsed or --grammar and --model")
        artifacts = load_artifacts(args.grammar)
        model = load_model_for(artifacts[3], args.model)
        report, failed = evaluate_against_gold(
            artifacts, [t for _, t in gold], model, timeout=args.timeout
        )
    print(report.tsv() if args.format == "tsv" else report.format())
    if failed:
        print("unparsed sentences: %d" % failed)
    return 0


def cmd_stats(args):
    from .evalmetrics import coverage_stats

    artifacts = load_artifacts(args.grammar)
    lattices = read_lattices(args.input, args.plain, args.certainty, args.ratio)
    results = _run_parses(args, lattices, artifacts)
    outcomes = [
        (status, len(lattices[idx]), count) for idx, status, count, _ in results
    ]
    stats = coverage_stats(outcomes)
    print(stats.tsv() if args.format == "tsv" else stats.format())
    return 0


def ablation_curve(artifacts, train_trees, gold_trees, seeds=5, base_seed=0):
    """Accuracy against training-set size, halving down to zero.

    The zero-size condition replaces ranking by a seeded random choice among
    all analyses.  Returns rows of (size, mean recall, mean precision)."""
    sizes = []
    size = len(train_trees)
    while size >= 1:
        sizes.append(size)
        size //= 2
    sizes.append(0)
    rows = []
    for size in sizes:
        recalls = []
        precisions = []
        for rep in range(seeds):
            seed = base_seed * 1000003 + size * 101 + rep
            rng = random.Random(seed)
            if size == 0:
                report, _ = evaluate_against_gold(
                    artifacts, gold_trees, model=None, rng=rng
                )
            else:
                sample = (
                    rng.sample(train_trees, size)
                    if size < len(train_trees)
                    else list(train_trees)
                )
                _, model, _ = train_from_trees(artifacts, [(t, 1.0) for t in sample])
                report, _ = evaluate_against_gold(artifacts, gold_trees, model)
            recalls.append(report.recall)
            precisions.append(report.precision)
        rows.append(
            (size, sum(recalls) / len(recalls), sum(precisions) / len(precisions))
        )
    return rows


def cmd_ablate(args):
    from .trees import read_treebank

    artifacts = load_artifacts(args.grammar)
    train_trees = [t for _, t in read_treebank(args.treebank)]
    gold_trees = [t for _, t in read_treebank(args.gold)]
    rows = ablation_curve(
        artifacts, train_trees, gold_trees, seeds=args.seeds, base_seed=args.seed
    )
    if args.format == "tsv":
        print("size\trecall\tprecision\tseeds\tseed")
        for size, recall, precision in rows:
            print("%d\t%r\t%r\t%d\t%d" % (size, recall, precision, args.seeds, args.seed))
    else:
        print("training-size ablation (seeds=%d, base seed=%d)" % (args.seeds, args.seed))
        print("%8s %10s %10s" % ("trees", "recall", "precision"))
        for size, recall, precision in rows:
            print("%8d %9.1f%% %9.1f%%" % (size, 100 * recall, 100 * precision))
    return 0


# ---------------------------------------------------------------------------

def _bounded(convert, ok, requirement):
    """An argparse type: convert the text, then reject a value failing ok."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError("must be %s, not %s" % (requirement, text))
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def build_arg_parser():
    top = _Parser(prog="punclr", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    count = _bounded(int, lambda v: v >= 1, "at least 1")
    seconds = _bounded(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")
    certainty = _bounded(float, lambda v: 0 < v <= 1, "in (0, 1]")
    ratio = _bounded(float, lambda v: v >= 1, "at least 1")

    def common_io(p):
        p.add_argument("--format", choices=("human", "tsv"), default="human")

    def common_parse(p):
        p.add_argument("--grammar", required=True)
        p.add_argument("--timeout", type=seconds, default=30.0,
                       help="per-sentence CPU budget in seconds (for rank, "
                            "parse and ranking together)")
        p.add_argument("--certainty", type=certainty, default=0.9)
        p.add_argument("--ratio", type=ratio, default=50.0)
        p.add_argument("--plain", action="store_true",
                       help="input is word_LABEL tokens, likelihood 1.0")

    p = sub.add_parser("compile", help="build and report the LALR table")
    p.add_argument("grammar")
    p.add_argument("-o", "--table-out")
    common_io(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("parse", help="parse tagged sentences, count analyses")
    common_parse(p)
    p.add_argument("input")
    p.add_argument("--jobs", type=count, default=1)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--dump-forest", metavar="DIR")
    common_io(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("train", help="train transition probabilities")
    p.add_argument("--grammar", required=True)
    p.add_argument("--treebank", action="append", required=True)
    p.add_argument("--weight", action="append", type=float)
    p.add_argument("--model-out", required=True)
    p.add_argument("--counts-out")
    p.add_argument("--subsample", help="fraction of trees, e.g. 1/64")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-histories", type=count, default=MAX_HISTORIES)
    common_io(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rank", help="emit the n most probable analyses")
    common_parse(p)
    p.add_argument("input")
    p.add_argument("--model", required=True)
    p.add_argument("--nbest", type=count, default=1)
    p.add_argument("--tag-likelihoods", action="store_true",
                   help="fold tag likelihoods into analysis scores")
    p.add_argument("--strict", action="store_true")
    common_io(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("eval", help="GEIG bracket evaluation against gold trees")
    p.add_argument("--grammar")
    p.add_argument("--model")
    p.add_argument("--gold", required=True)
    p.add_argument("--parsed", help="evaluate these trees instead of parsing")
    p.add_argument("--timeout", type=seconds, default=30.0,
                   help="per-sentence CPU budget in seconds, for parse and "
                        "ranking together")
    common_io(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="coverage and ambiguity distribution")
    common_parse(p)
    p.add_argument("input")
    p.add_argument("--jobs", type=count, default=1)
    common_io(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("ablate", help="accuracy vs training-set size")
    p.add_argument("--grammar", required=True)
    p.add_argument("--treebank", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--seeds", type=count, default=5)
    p.add_argument("--seed", type=int, default=0)
    common_io(p)
    p.set_defaults(func=cmd_ablate)

    return top


def main(argv=None) -> int:
    parser = build_arg_parser()
    # Forests, GSS nodes and ranking heaps hold no reference cycles, so
    # reference counting frees them all and the cyclic collector's passes
    # would only rescan live objects.  --jobs pool workers inherit this.
    was_enabled = gc.isenabled()
    try:
        args = parser.parse_args(argv)
        gc.disable()
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (DataError, ModelError, GrammarError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


def run():
    """Run main as the whole process, then end it without interpreter
    teardown: flush stdout and stderr and call os._exit, as multiprocessing's
    fork children do.  A stdout that fails at that flush (a reader that has
    gone) is reported like any other write error, with exit code 2."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = 2
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
