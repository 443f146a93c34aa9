"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here, not deferred.
"""
import itertools
import random
import time
from collections import Counter

import pytest

from punclr.cli import ablation_curve
from punclr.evalmetrics import (
    BracketSet,
    apb,
    crossing_count,
    extract_brackets,
    geig_report,
)
from punclr.glr import (
    count_parses,
    derivation_transitions,
    enumerate_derivations,
    lattice_from_labels,
    parse_lattice,
)
from punclr.lattice import TaggedToken, threshold_labels
from punclr.model import (
    good_turing_adjusted_count,
    rank_nbest,
    smooth_good_turing,
    train_counts,
)
from punclr.trees import read_treebank, tree_leaves

from conftest import FIXTURES, compile_fixture
from oracles import (
    automaton_language,
    derivation_signature,
    enumerate_derivations as oracle_derivations,
    flat_signature,
    language_of_backbone,
    score_derivation,
    tree_spans,
)

ALL_GRAMMARS = (
    "catalan.gr",
    "agree.gr",
    "agree_relaxed.gr",
    "commatext.gr",
    "tagseq.gr",
    "integrated.gr",
)


def report(criterion, ok, detail):
    print("criterion %-2s %s: %s" % (criterion, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %s: %s" % (criterion, detail)


@pytest.fixture(scope="module")
def compiled():
    return {name: compile_fixture(name) for name in ALL_GRAMMARS}


@pytest.fixture(scope="module")
def catalan_model(compiled):
    """The 3:1 left/right toy model over the catalan fixture."""
    _, backbone, residues, table = compiled["catalan.gr"]
    outcome = parse_lattice(lattice_from_labels(["a"] * 3), table, residues)
    shapes = {}
    for d in enumerate_derivations(outcome.forest):
        sig = derivation_signature(d)
        ts = derivation_transitions(d)
        shapes[sig] = ts
    ordered = [shapes[s] for s in sorted(shapes)]
    histories = [ordered[0]] * 3 + [ordered[1]] * 1
    counts = train_counts(histories, table.table_hash())
    return smooth_good_turing(counts, table)


def oracle_count(backbone, residues, labels):
    return len(oracle_derivations(backbone, residues, [[l] for l in labels]))


def glr_count(table, residues, labels):
    outcome = parse_lattice(lattice_from_labels(labels), table, residues)
    return count_parses(outcome.forest) if outcome.ok else 0


def test_criterion_1_parse_count_oracle(compiled):
    t0 = time.time()
    checked = 0

    def check_strings(name, strings):
        nonlocal checked
        _, backbone, residues, table = compiled[name]
        for s in strings:
            got = glr_count(table, residues, list(s))
            want = oracle_count(backbone, residues, list(s))
            assert got == want, (name, s, got, want)
            checked += 1

    # catalan: exhaustive over its alphabet, and the exact series
    check_strings("catalan.gr", [("a",) * n for n in range(1, 9)])
    _, backbone, residues, table = compiled["catalan.gr"]
    series = [glr_count(table, residues, ["a"] * n) for n in range(1, 7)]
    assert series == [1, 1, 2, 5, 14, 42], series

    # agreement fixtures: exhaustive to length 4 plus seeded longer samples
    rng = random.Random(42)
    for name in ("agree.gr", "agree_relaxed.gr"):
        terms = sorted(compiled[name][1].terminals)
        exhaustive = [
            s for n in range(1, 5) for s in itertools.product(terms, repeat=n)
        ]
        sample = [
            tuple(rng.choice(terms) for _ in range(rng.randint(5, 8)))
            for _ in range(100)
        ]
        check_strings(name, exhaustive + sample)

    # comma grammar: exhaustive over {W, ','} to length 8
    terms = sorted(compiled["commatext.gr"][1].terminals)
    exhaustive = [
        s for n in range(1, 9) for s in itertools.product(terms, repeat=n)
    ]
    check_strings("commatext.gr", exhaustive)

    # tag grammar: its whole language to length 6 plus seeded samples to 8
    _, backbone, _, _ = compiled["tagseq.gr"]
    lang6 = sorted(language_of_backbone(backbone, 6))
    terms = sorted(backbone.terminals)
    sample = [
        tuple(rng.choice(terms) for _ in range(rng.randint(3, 8)))
        for _ in range(150)
    ]
    check_strings("tagseq.gr", lang6 + sample)

    elapsed = time.time() - t0
    report(
        1,
        elapsed < 60.0,
        "parse counts equal CKY-with-residues on %d sentences; catalan series "
        "1,1,2,5,14,42; %.1fs (budget 60s)" % (checked, elapsed),
    )


def test_criterion_2_language_oracle(compiled):
    t0 = time.time()
    sizes = {}
    for name in ALL_GRAMMARS:
        _, backbone, residues, table = compiled[name]
        accepted = automaton_language(table, 8)
        generated = language_of_backbone(backbone, 8)
        assert accepted == generated, name
        sizes[name] = len(accepted)
    report(
        2,
        True,
        "table simulation = generated language (length <= 8) for %d grammars, "
        "sizes %s; %.1fs"
        % (len(ALL_GRAMMARS), sorted(sizes.values()), time.time() - t0),
    )


def nbest_oracle_order(forest, model):
    scored = [
        (
            score_derivation(derivation_transitions(d), model),
            derivation_signature(d),
        )
        for d in enumerate_derivations(forest)
    ]
    scored.sort(key=lambda e: (-e[0], e[1]))
    return scored


def criterion_3_cases(compiled, catalan_model):
    """(grammar, model, labels) for the criterion-3 sentences."""
    cases = []
    for n in range(1, 7):
        cases.append(("catalan.gr", catalan_model, ["a"] * n))
    _, _, _, comma_table = compiled["commatext.gr"]
    uniform_comma = smooth_good_turing(
        train_counts([], comma_table.table_hash()), comma_table
    )
    for k in range(0, 5):
        labels = ["W"] + [",", "W"] * k
        cases.append(("commatext.gr", uniform_comma, labels))
    _, _, _, tag_table = compiled["tagseq.gr"]
    uniform_tag = smooth_good_turing(
        train_counts([], tag_table.table_hash()), tag_table
    )
    cases.append(
        ("tagseq.gr", uniform_tag, ["AT", "NN1", "VVZ", "AT", "NN1", "II", "AT", "NN1"])
    )
    return cases


def test_criterion_3_ranking_oracle(compiled, catalan_model):
    checked = 0
    for name, model, labels in criterion_3_cases(compiled, catalan_model):
        _, backbone, residues, table = compiled[name]
        outcome = parse_lattice(lattice_from_labels(labels), table, residues)
        assert outcome.ok
        total = count_parses(outcome.forest)
        ranked = rank_nbest(outcome.forest, model, total)
        oracle = nbest_oracle_order(outcome.forest, model)
        assert len(ranked) == len(oracle) == total
        for got, (score, sig) in zip(ranked, oracle):
            assert flat_signature(got.signature) == sig, (name, labels)
            assert abs(got.log_prob - score) < 1e-12
        checked += 1
    report(3, True, "rank_nbest(total) equals enumerate-and-score order on %d fixture sentences" % checked)


def test_criterion_3_ranking_oracle_below_total(compiled, catalan_model):
    """n below the parse count, where the 2n+16 window and the early stop
    bind: rank_nbest(n) is the enumeration's top n, signatures and log-probs
    exactly, under an untrained and a trained model per grammar."""
    from punclr.cli import train_from_trees

    trees = [t for _, t in read_treebank(FIXTURES / "tagseq_gold.tb")]
    cases = criterion_3_cases(compiled, catalan_model)
    comma = compiled["commatext.gr"]
    first_derivations = []  # the comma sentences' first enumerated derivations
    for name, _, labels in cases:
        if name == "commatext.gr":
            forest = parse_lattice(lattice_from_labels(labels), comma[3], comma[2]).forest
            first_derivations.append(
                derivation_transitions(enumerate_derivations(forest)[0]))
    trained = {
        "catalan.gr": catalan_model,
        "tagseq.gr": train_from_trees(compiled["tagseq.gr"], [(t, 1.0) for t in trees])[1],
        "commatext.gr": smooth_good_turing(
            train_counts(first_derivations, comma[3].table_hash()), comma[3]),
    }
    checked = 0
    for name, _, labels in cases:
        _, _, residues, table = compiled[name]
        forest = parse_lattice(lattice_from_labels(labels), table, residues).forest
        untrained = smooth_good_turing(train_counts([], table.table_hash()), table)
        for model in (untrained, trained[name]):
            oracle = nbest_oracle_order(forest, model)
            for n in (1, 2, 3, 5, 10):
                ranked = rank_nbest(forest, model, n)
                assert [(flat_signature(a.signature), a.log_prob) for a in ranked] == [
                    (sig, score) for score, sig in oracle[:n]], (name, labels, n)
                checked += 1
    report(3, True, "rank_nbest(n) for n = 1, 2, 3, 5, 10 equals the enumeration's "
                    "top n in %d cases" % checked)


def test_criterion_4_probability_simplex(compiled, catalan_model):
    models = [("catalan 3:1", compiled["catalan.gr"][3], catalan_model)]
    # a model trained from the tag-sequence gold treebank
    from punclr.cli import train_from_trees

    tag_art = compiled["tagseq.gr"]
    trees = [t for _, t in read_treebank(FIXTURES / "tagseq_gold.tb")]
    _, tag_model, _ = train_from_trees(tag_art, [(t, 1.0) for t in trees])
    models.append(("tagseq gold", tag_art[3], tag_model))
    comma_table = compiled["commatext.gr"][3]
    models.append(
        ("comma uniform", comma_table,
         smooth_good_turing(train_counts([], comma_table.table_hash()), comma_table))
    )
    worst = 0.0
    n_contexts = 0
    for name, table, model in models:
        sums = {}
        for (s, l, a), p in model.probs.items():
            assert p > 0.0, (name, s, l, a)
            sums[(s, l)] = sums.get((s, l), 0.0) + p
        assert len(model.probs) == table.action_count
        for key, total in sums.items():
            worst = max(worst, abs(total - 1.0))
            assert abs(total - 1.0) <= 1e-9, (name, key, total)
        n_contexts += len(sums)
    report(
        4,
        True,
        "%d contexts across 3 trained models sum to 1 (worst |error| %.2e), all probabilities positive"
        % (n_contexts, worst),
    )


def test_criterion_5_good_turing_spot_check():
    value = good_turing_adjusted_count(1, {1: 3, 2: 2})
    report(5, value == 4 / 3, "r*(1) with N1=3, N2=2 evaluates to %r (want 4/3)" % value)


def test_criterion_6_apb_arithmetic():
    v = apb([(2, 1), (2, 16)])
    a238 = 1.313 ** 20.1
    a376 = 1.300 ** 22.6
    ok = v == 2.0 and abs(a238 - 238) <= 1.0 and abs(a376 - 376) <= 1.0
    report(
        6,
        ok,
        "apb([(2,1),(2,16)]) = %r; 1.313^20.1 = %.2f; 1.300^22.6 = %.2f" % (v, a238, a376),
    )


def test_criterion_7_thresholding():
    t1 = threshold_labels(TaggedToken("w", (("A", 0.95), ("B", 0.04))))
    t2 = threshold_labels(TaggedToken("w", (("A", 0.60), ("B", 0.013), ("C", 0.011))))
    t3 = threshold_labels(TaggedToken("w", (("A", 0.90),)))
    got = [
        {l for l, _ in t1.hypotheses},
        {l for l, _ in t2.hypotheses},
        {l for l, _ in t3.hypotheses},
    ]
    ok = got == [{"A"}, {"A", "B"}, {"A"}]
    report(7, ok, "retained label sets %s (want [{A}, {A,B}, {A}])" % got)


def test_criterion_8_geig_arithmetic():
    gold = BracketSet(4, ((0, 2), (2, 4), (0, 4)))
    cand = BracketSet(4, ((0, 2), (0, 4), (1, 4)))
    r = geig_report([(cand, gold)])
    exact = (
        r.recall == 2 / 3 and r.precision == 2 / 3 and r.mean_crossings == 1.0
    )
    rng = random.Random(8)

    def nested(rng, start, end, out):
        if end - start < 2 or rng.random() < 0.25:
            return
        out.append((start, end))
        cut = rng.randint(start + 1, end - 1)
        nested(rng, start, cut, out)
        nested(rng, cut, end, out)

    self_zero = True
    for _ in range(1000):
        n = rng.randint(2, 12)
        spans = []
        nested(rng, 0, n, spans)
        x = BracketSet(n, tuple(spans))
        if crossing_count(x, x) != 0:
            self_zero = False
            break
    report(
        8,
        exact and self_zero,
        "hand example recall %r precision %r crossings %r; crossing(x,x)=0 on 1000 random sets"
        % (r.recall, r.precision, r.mean_crossings),
    )


def test_criterion_9_comma_ambiguity(compiled):
    _, backbone, residues, table = compiled["commatext.gr"]
    series = {}
    for k in range(1, 7):
        labels = ["W"] + [",", "W"] * k
        got = glr_count(table, residues, labels)
        want = oracle_count(backbone, residues, labels)
        assert got == want, (k, got, want)
        series[k] = got
    labels8 = ["W"] + [",", "W"] * 8
    got8 = glr_count(table, residues, labels8)
    detail = (
        "k=1..6 counts %s match the oracle; k=8 count %d (documented target 3170)"
        % (sorted(series.values()), got8)
    )
    report(9, got8 == 3170, detail)


def test_criterion_10_ablation_endpoints(compiled):
    t0 = time.time()
    artifacts = compiled["catalan.gr"]
    _, backbone, residues, table = artifacts
    train_trees = [t for _, t in read_treebank(FIXTURES / "catalan_train.tb")]
    gold_trees = [t for _, t in read_treebank(FIXTURES / "catalan_test.tb")]

    rows = ablation_curve(artifacts, train_trees, gold_trees, seeds=20, base_seed=3)
    for size, recall, precision in rows:
        print("  ablation size %2d: recall %.3f precision %.3f" % (size, recall, precision))

    # analytic random-choice recall via the independent chart oracle
    matched_exp = 0.0
    gold_total = 0
    for tree in gold_trees:
        labels = tree_leaves(tree)
        gold = Counter(extract_brackets(tree).spans)
        gold_total += sum(gold.values())
        derivs = oracle_derivations(backbone, residues, [[l] for l in labels])
        per = []
        for d in derivs:
            spans, _ = tree_spans(d)
            cand = Counter(s for s in spans if s[1] - s[0] >= 2)
            per.append(sum((cand & gold).values()))
        matched_exp += sum(per) / len(per)
    analytic = matched_exp / gold_total

    zero_mean = rows[-1][1]
    full_mean = rows[0][1]
    elapsed = time.time() - t0
    ok = (
        abs(zero_mean - analytic) <= 0.05
        and full_mean > analytic
        and full_mean > zero_mean
        and elapsed < 120.0
    )
    report(
        10,
        ok,
        "zero-data recall %.3f vs analytic random choice %.3f (|diff| %.3f <= 0.05); "
        "full-data recall %.3f strictly higher; %.1fs (budget 120s)"
        % (zero_mean, analytic, abs(zero_mean - analytic), full_mean, elapsed),
    )


def test_criterion_11_unification_failure_pruning(compiled):
    _, _, residues, table = compiled["agree.gr"]
    clash = parse_lattice(lattice_from_labels(["NN1", "VV0"]), table, residues)
    _, _, relaxed_res, relaxed_table = compiled["agree_relaxed.gr"]
    relaxed = parse_lattice(
        lattice_from_labels(["NN1", "VV0"]), relaxed_table, relaxed_res
    )
    ok = (
        clash.status == "fail"
        and relaxed.ok
        and count_parses(relaxed.forest) == 1
    )
    report(
        11,
        ok,
        "agreement clash -> %s; relaxed grammar -> %d parse"
        % (clash.status, count_parses(relaxed.forest) if relaxed.ok else 0),
    )
