import random

import pytest
from hypothesis import given, strategies as st

from punclr.evalmetrics import (
    BracketSet,
    apb,
    bucket_name,
    coverage_stats,
    crossing_count,
    extract_brackets,
    geig_report,
)
from punclr.glr import Tree
from punclr.trees import (
    TreebankError,
    format_tree,
    internal_spans,
    parse_tree_line,
    tree_leaves,
)


def leaf(label, i):
    return Tree(label, (), i, i + 1, label)


def node(label, *children):
    return Tree(label, tuple(children), children[0].start, children[-1].end)


# ---------------------------------------------------------------------------
# treebank reading

def test_parse_labelled_tree():
    t = parse_tree_line("(S (NP the dog) (VP barks))")
    assert t.label == "S"
    assert tree_leaves(t) == ["the", "dog", "barks"]
    assert internal_spans(t) == [(0, 3), (0, 2), (2, 3)]


def test_tree_round_trip():
    text = "(S (NP the dog) (VP barks))"
    assert format_tree(parse_tree_line(text)) == text


def test_deep_tree_reads_walks_and_formats():
    depth = 1200
    text = "(X " * depth + "a" + " b)" * depth
    t = parse_tree_line(text)
    assert (t.start, t.end) == (0, depth + 1)
    assert tree_leaves(t) == ["a"] + ["b"] * depth
    assert internal_spans(t) == [(0, depth + 1 - i) for i in range(depth)]
    assert len(extract_brackets(t).spans) == depth
    assert format_tree(t) == text
    with pytest.raises(TreebankError, match="missing"):
        parse_tree_line(text[:-1])


def test_single_leaf_constituent():
    t = parse_tree_line("(X a)")
    assert t.label == "X"
    assert tree_leaves(t) == ["a"]
    # a label with no children is malformed
    with pytest.raises(Exception):
        parse_tree_line("(X (a))")


# ---------------------------------------------------------------------------
# bracket extraction

def test_extract_flat_tree():
    t = node("S", leaf("a", 0), leaf("b", 1), leaf("c", 2))
    assert extract_brackets(t).spans == ((0, 3),)


def test_extract_left_branching():
    t = node("S", node("X", leaf("a", 0), leaf("b", 1)), leaf("c", 2))
    assert extract_brackets(t).spans == ((0, 2), (0, 3))


def test_extract_excludes_single_token_spans():
    t = node("S", node("X", node("Y", leaf("a", 0))), leaf("b", 1))
    assert extract_brackets(t).spans == ((0, 2),)


def test_unary_chain_over_long_span_duplicates():
    t = node("X", node("Y", leaf("a", 0), leaf("b", 1)))
    assert extract_brackets(t).spans == ((0, 2), (0, 2))


# ---------------------------------------------------------------------------
# crossings

def B(length, *spans):
    return BracketSet(length, tuple(spans))


def test_crossing_basic():
    assert crossing_count(B(5, (1, 4)), B(5, (0, 3))) == 1


def test_equality_is_containment():
    assert crossing_count(B(5, (0, 3)), B(5, (0, 3), (3, 5))) == 0


def test_empty_candidate():
    assert crossing_count(B(5), B(5, (0, 3))) == 0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        crossing_count(B(4, (0, 2)), B(5, (0, 2)))


def random_nested_spans(rng, start, end, out):
    """Random well-nested spans over [start, end), as a random tree gives."""
    if end - start < 2 or rng.random() < 0.25:
        return
    out.append((start, end))
    cut = rng.randint(start + 1, end - 1)
    random_nested_spans(rng, start, cut, out)
    random_nested_spans(rng, cut, end, out)


def test_crossing_self_is_zero_random():
    rng = random.Random(1)
    for _ in range(1000):
        n = rng.randint(2, 12)
        spans = []
        random_nested_spans(rng, 0, n, spans)
        x = B(n, *spans)
        assert crossing_count(x, x) == 0


# ---------------------------------------------------------------------------
# geig report

def test_geig_identical_is_perfect():
    pairs = [(B(4, (0, 2), (0, 4)), B(4, (0, 2), (0, 4)))] * 3
    r = geig_report(pairs)
    assert r.recall == 1.0
    assert r.precision == 1.0
    assert r.mean_crossings == 0.0
    assert r.zero_crossings == 1.0


def test_geig_hand_computed_example():
    gold = B(4, (0, 2), (2, 4), (0, 4))
    cand = B(4, (0, 2), (0, 4), (1, 4))
    r = geig_report([(cand, gold)])
    assert abs(r.recall - 2 / 3) < 1e-12
    assert abs(r.precision - 2 / 3) < 1e-12
    assert r.mean_crossings == 1.0
    assert r.zero_crossings == 0.0


def test_geig_two_sentence_aggregation():
    gold = B(4, (0, 2), (2, 4), (0, 4))
    cand = B(4, (0, 2), (0, 4), (1, 4))
    perfect = (B(4, (0, 4)), B(4, (0, 4)))
    r = geig_report([perfect, (cand, gold)])
    assert r.zero_crossings == 0.5
    assert r.mean_crossings == 0.5
    assert abs(r.recall - 3 / 4) < 1e-12
    assert abs(r.precision - 3 / 4) < 1e-12


def test_geig_swap_exchanges_recall_precision():
    gold = B(4, (0, 2), (2, 4), (0, 4))
    cand = B(4, (0, 2), (1, 4))
    fwd = geig_report([(cand, gold)])
    rev = geig_report([(gold, cand)])
    assert fwd.recall == rev.precision
    assert fwd.precision == rev.recall


def test_geig_adding_gold_span_to_candidate_helps():
    gold = B(6, (0, 3), (3, 6), (0, 6))
    cand = B(6, (1, 4))
    base = geig_report([(cand, gold)])
    better = geig_report([(B(6, (1, 4), (0, 3)), gold)])
    assert better.recall >= base.recall
    x_base = crossing_count(cand, gold)
    x_better = crossing_count(B(6, (1, 4), (0, 3)), gold)
    assert x_better <= x_base + 0  # the added gold span cannot cross


# ---------------------------------------------------------------------------
# APB

def test_apb_all_single_parses():
    assert apb([(5, 1), (9, 1), (2, 1)]) == 1.0


def test_apb_hand_example_exact():
    assert apb([(2, 1), (2, 16)]) == 2.0


def test_apb_paper_magnitudes():
    assert abs(1.313 ** 20.1 - 238) <= 1.0
    assert abs(1.300 ** 22.6 - 376) <= 1.0


def test_apb_rejects_empty_and_bad_records():
    with pytest.raises(ValueError):
        apb([])
    with pytest.raises(ValueError):
        apb([(0, 1)])
    with pytest.raises(ValueError):
        apb([(3, 0)])


@given(st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10 ** 6)), min_size=1, max_size=8))
def test_apb_permutation_invariant(records):
    rng = random.Random(0)
    shuffled = records[:]
    rng.shuffle(shuffled)
    a, b = apb(records), apb(shuffled)
    assert abs(a - b) <= 1e-9 * max(1.0, a)


@given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=6))
def test_apb_doubling_unit_length_parses(ps):
    base = apb([(1, p) for p in ps])
    doubled = apb([(1, 2 * p) for p in ps])
    assert abs(doubled - 2 * base) < 1e-9 * max(1.0, base)


def test_apb_handles_huge_counts():
    big = 10 ** 120
    value = apb([(10, big)])
    assert abs(value - 10 ** 12) / 10 ** 12 < 1e-9


# ---------------------------------------------------------------------------
# coverage stats

def test_bucket_edges():
    assert bucket_name(1) == "1-9"
    assert bucket_name(9) == "1-9"
    assert bucket_name(10) == "10-99"
    assert bucket_name(999) == "100-999"
    assert bucket_name(1000) == "1K-9.9K"
    assert bucket_name(9999) == "1K-9.9K"
    assert bucket_name(10000) == "10K-99K"
    assert bucket_name(100000) == "100K+"
    assert bucket_name(10 ** 9) == "100K+"


def test_coverage_all_single_parse():
    stats = coverage_stats([("ok", 4, 1)] * 10)
    assert stats.buckets["1-9"] == 10
    assert stats.buckets["fails"] == 0
    assert stats.apb == 1.0


def test_coverage_mixed_hand_tally():
    outcomes = [
        ("ok", 3, 2),
        ("ok", 4, 50),
        ("ok", 5, 12345),
        ("fail", 7, None),
        ("timeout", 30, None),
        ("ok", 2, 200000),
    ]
    stats = coverage_stats(outcomes)
    assert stats.buckets == {
        "fails": 1,
        "time-outs": 1,
        "1-9": 1,
        "10-99": 1,
        "10K-99K": 1,
        "100K+": 1,
    }
    assert stats.sentences == 6
    assert stats.mean_length == pytest.approx((3 + 4 + 5 + 7 + 30 + 2) / 6)
    assert stats.mean_length_fails == 7
    assert stats.mean_length_timeouts == 30
    total = sum(stats.buckets.values())
    assert total == stats.sentences


def test_coverage_single_timeout_row():
    stats = coverage_stats([("ok", 3, 1), ("timeout", 42, None)])
    assert stats.buckets["time-outs"] == 1
    assert stats.mean_length_timeouts == 42.0


def test_reports_render():
    stats = coverage_stats([("ok", 3, 1), ("fail", 4, None)])
    text = stats.format()
    assert "Parse fails" in text and "APB" in text
    assert "\t" in stats.tsv()
    gold = B(4, (0, 2))
    report = geig_report([(gold, gold)])
    assert "recall" in report.format()
