"""Traced in-process replicas of the punclr subcommands.

Each replica calls the same public functions, in the same order, as the
matching cmd_* in punclr/cli.py and prints the same --format tsv output, but
wraps every call into a layer in a span.  Spans are kept in memory as
[name, start, end, parent index, sentence id].  A layer's self time is its
span time minus the time its child spans cover; the root span of each
command is named cli.<command>, so its self time is what the CLI itself
does (argument parsing, tree rendering, output).

table_hash() is called inside parse_lattice; while a Tracer is active the
LalrTable method is wrapped so those calls get spans too.

Structural counters (forest sizes, parse counts, histories, ...) are taken
under bench.count spans so that counting never lands in a layer's time.
"""
from __future__ import annotations

import io
import math
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from punclr import cli
from punclr.evalmetrics import coverage_stats, extract_brackets, geig_report
from punclr.glr import ForestNode, constrained_parse, count_parses, parse_lattice
from punclr.grammar import compile_grammar, load_grammar
from punclr.lalr import LalrTable, build_lalr
from punclr.lattice import read_tagged_file, to_lattice
from punclr.model import (
    extract_histories,
    load_model,
    rank_nbest,
    save_model,
    smooth_good_turing,
    train_counts,
)
from punclr.trees import format_tree, internal_spans, read_treebank, tree_leaves


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.grammars = {}
        self._open = []

    def begin(self, name, sid=None):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, sid])

    def end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, sid=None, **kwargs):
        self.begin(name, sid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def count(self, fn, *args):
        self.call("bench.count", fn, self, *args)

    @contextmanager
    def active(self):
        original = LalrTable.table_hash

        def table_hash(table):
            return self.call("lalr.table_hash", original, table)

        LalrTable.table_hash = table_hash
        try:
            yield self
        finally:
            LalrTable.table_hash = original

    def self_times(self) -> Counter:
        """Self time per span name, summed."""
        out = Counter()
        for name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out


class NullTracer:
    """The untraced twin: same calls, no spans, no counters."""

    enabled = False

    def begin(self, name, sid=None):
        pass

    def end(self):
        pass

    def call(self, name, fn, *args, sid=None, **kwargs):
        return fn(*args, **kwargs)

    def count(self, fn, *args):
        pass

    @contextmanager
    def active(self):
        yield self


# ---------------------------------------------------------------------------
# counters

def _grammar_counters(tr, path, backbone, table):
    conflicts = sum(1 for actions in table.actions.values() if len(actions) > 1)
    tr.grammars[str(path)] = {
        "grammar.productions": len(backbone.productions),
        "lalr.states": table.n_states,
        "lalr.actions": table.action_count,
        "lalr.conflict_cells": conflicts,
    }


def _outcome_counters(tr, outcome, count=None):
    c = tr.counters
    c["glr." + outcome.status] += 1
    if outcome.ok:
        nodes = outcome.forest.nodes.values()
        c["glr.forest_nodes"] += len(nodes)
        c["glr.forest_bundles"] += sum(
            len(n.bundles) for n in nodes if isinstance(n, ForestNode)
        )
        if count is None:
            count = count_parses(outcome.forest)
        c["glr.parse_count_log10_sum"] += math.log10(count)


def _lattice_counters(tr, raw, lattices):
    c = tr.counters
    c["lattice.tokens"] += sum(len(lat) for lat in lattices)
    c["lattice.labels_read"] += sum(len(t.hypotheses) for toks in raw for t in toks)
    c["lattice.labels_kept"] += sum(len(t.labels) for lat in lattices for t in lat.tokens)


def _model_contexts(tr, model):
    contexts = {(s, lab) for s, lab, _ in model.probs} | set(model.unseen)
    tr.counters["model.contexts"] += len(contexts)


def _add(tr, name, value):
    tr.counters[name] += value


# ---------------------------------------------------------------------------
# replicas of cli.cmd_*

def _load_artifacts(tr, path):
    grammar = tr.call("grammar.load", load_grammar, path)
    backbone, residues = tr.call("grammar.compile", compile_grammar, grammar)
    table = tr.call("lalr.build", build_lalr, backbone)
    tr.count(_grammar_counters, path, backbone, table)
    return grammar, backbone, residues, table


def _read_lattices(tr, args):
    def read():
        raw = list(read_tagged_file(args.input, plain=args.plain))
        return raw, [to_lattice(t, args.certainty, args.ratio) for t in raw]

    raw, lattices = tr.call("lattice.read", read)
    tr.count(_lattice_counters, raw, lattices)
    return lattices


def _read_trees(tr, path):
    trees = [t for _, t in tr.call("trees.read", list, read_treebank(path))]
    tr.count(_add, "trees.count", len(trees))
    return trees


def _load_model(tr, path, table):
    model = tr.call("model.load", load_model, path)
    if model.table_hash != table.table_hash():
        raise cli.DataError("model %s was trained against a different table" % path)
    tr.count(_model_contexts, model)
    return model


def _run_parses(tr, args):
    """cli._run_parses with --jobs 1: (status, tokens, count) per sentence."""
    _, _, residues, table = _load_artifacts(tr, args.grammar)
    lattices = _read_lattices(tr, args)
    stem = Path(args.grammar).stem
    results = []
    for idx, lat in enumerate(lattices):
        sid = (stem, idx, len(lat))
        outcome = tr.call("glr.parse", parse_lattice, lat, table, residues,
                          budget=args.timeout, sid=sid)
        count = tr.call("glr.count", count_parses, outcome.forest, sid=sid) if outcome.ok else None
        tr.count(_outcome_counters, outcome, count)
        results.append((outcome.status, len(lat), count))
    return results


def cmd_parse(tr, args, out):
    out.write("sentence\tstatus\tparses\n")
    for idx, (status, _, count) in enumerate(_run_parses(tr, args)):
        out.write("%d\t%s\t%s\n" % (idx, status, count if count is not None else "-"))


def cmd_stats(tr, args, out):
    stats = tr.call("evalmetrics.coverage", coverage_stats, _run_parses(tr, args))
    out.write(stats.tsv() + "\n")


def cmd_rank(tr, args, out):
    _, _, residues, table = _load_artifacts(tr, args.grammar)
    model = _load_model(tr, args.model, table)
    lattices = _read_lattices(tr, args)
    stem = Path(args.grammar).stem
    for i, lat in enumerate(lattices):
        sid = (stem, i, len(lat))
        outcome = tr.call("glr.parse", parse_lattice, lat, table, residues,
                          budget=args.timeout, sid=sid)
        tr.count(_outcome_counters, outcome)
        if not outcome.ok:
            out.write("%d\t*\t%s\t-\n" % (i, outcome.status))
            continue
        ranked = tr.call("model.rank", rank_nbest, outcome.forest, model, args.nbest,
                         include_tag_likelihoods=args.tag_likelihoods, sid=sid)
        tr.count(_add, "model.rank_analyses", len(ranked))
        words = lat.words()
        for analysis in ranked:
            rendered = format_tree(cli._with_words(analysis.tree, words))
            out.write("%d\t%d\t%r\t%s\n" % (i, analysis.rank, analysis.log_prob, rendered))


def cmd_train(tr, args, out):
    """cli.train_model_from_treebanks and cli.cmd_train, call for call."""
    _, _, residues, table = _load_artifacts(tr, args.grammar)
    weights = (args.weight or []) + [1.0] * (len(args.treebank) - len(args.weight or []))
    trees = []
    for path, weight in zip(args.treebank, weights):
        trees.extend((tree, weight) for tree in _read_trees(tr, path))
    trees = cli._subsample(trees, args.subsample, args.seed)
    histories, history_weights = [], []
    used = inconsistent = unparseable = capped = 0
    for i, (tree, weight) in enumerate(trees):
        leaves = tr.call("trees.walk", tree_leaves, tree)
        lattice = cli.lattice_from_leaves(leaves)
        spans = tr.call("trees.walk", internal_spans, tree)
        skeleton = [s for s in spans if s[1] - s[0] >= 2]
        sid = ("train", i, len(leaves))
        outcome = tr.call("glr.constrained_parse", constrained_parse, lattice, table,
                          residues, skeleton, sid=sid)
        tr.count(_outcome_counters, outcome)
        if not outcome.ok:
            plain = tr.call("glr.parse", parse_lattice, lattice, table, residues, sid=sid)
            if plain.ok:
                inconsistent += 1
            else:
                unparseable += 1
            continue
        hs, ws = tr.call("model.extract_histories", extract_histories, outcome.forest, sid=sid)
        if len(hs) > args.max_histories:
            capped += 1
            continue
        used += 1
        histories.extend(hs)
        history_weights.extend(w * weight for w in ws)
    counts = tr.call("model.train_counts", train_counts, histories, table.table_hash(),
                     history_weights)
    model = tr.call("model.smooth", smooth_good_turing, counts, table)
    if used == 0:
        raise cli.DataError("no usable treebank sentences (of %d read)" % len(trees))
    tr.call("model.save", save_model, model, args.model_out)
    tr.count(_add, "model.histories", len(histories))
    tr.count(_add, "model.history_cap_drops", capped)
    tr.count(_model_contexts, model)
    rows = [
        ("treebank trees", len(trees)),
        ("sentences used", used),
        ("histories extracted", len(histories)),
        ("skeleton-inconsistent", inconsistent),
        ("unparseable", unparseable),
        ("over history cap", capped),
        ("fraction inconsistent", "%.3f" % (inconsistent / len(trees) if trees else 0.0)),
        ("table hash", model.table_hash),
    ]
    out.write("\t".join(str(k) for k, _ in rows) + "\n")
    out.write("\t".join(str(v) for _, v in rows) + "\n")


def _bracket_pair(chosen, gold):
    return extract_brackets(chosen), extract_brackets(gold)


def cmd_eval(tr, args, out):
    """cli.cmd_eval with --grammar/--model, through evaluate_against_gold."""
    gold = _read_trees(tr, args.gold)
    _, _, residues, table = _load_artifacts(tr, args.grammar)
    model = _load_model(tr, args.model, table)
    stem = Path(args.grammar).stem
    pairs = []
    failed = 0
    for i, tree in enumerate(gold):
        leaves = tr.call("trees.walk", tree_leaves, tree)
        lattice = cli.lattice_from_leaves(leaves)
        sid = (stem, i, len(leaves))
        outcome = tr.call("glr.parse", parse_lattice, lattice, table, residues,
                          budget=args.timeout, sid=sid)
        tr.count(_outcome_counters, outcome)
        if not outcome.ok:
            failed += 1
            continue
        chosen = tr.call("model.rank", cli.select_analysis, outcome.forest, model, sid=sid)
        tr.count(_add, "model.rank_analyses", 1)
        pair = tr.call("evalmetrics.geig", _bracket_pair, chosen, tree)
        tr.count(_add, "evalmetrics.brackets", len(pair[0].spans) + len(pair[1].spans))
        pairs.append(pair)
    if not pairs:
        raise cli.DataError("no gold sentence could be parsed")
    report = tr.call("evalmetrics.geig", geig_report, pairs)
    out.write(report.tsv() + "\n")
    if failed:
        out.write("unparsed sentences: %d\n" % failed)


COMMANDS = {
    "parse": cmd_parse,
    "stats": cmd_stats,
    "rank": cmd_rank,
    "train": cmd_train,
    "eval": cmd_eval,
}


def run_command(tr, argv) -> str:
    """One CLI invocation in process; returns what it would print."""
    out = io.StringIO()
    tr.begin("cli." + argv[0])
    try:
        args = cli.build_arg_parser().parse_args(argv)
        COMMANDS[argv[0]](tr, args, out)
    finally:
        tr.end()
    return out.getvalue()
