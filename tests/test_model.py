import collections
import hashlib
import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, compile_fixture, recursion_headroom
from punclr import cli, glr, model as model_module
from punclr.cli import train_from_trees, train_model_from_treebanks
from punclr.evalmetrics import extract_brackets
from punclr.grammar import compile_grammar, parse_grammar_file
from punclr.lalr import Action, action_kind, build_lalr, read_records, unesc
from punclr.glr import (
    SentenceLattice,
    Token,
    count_parses,
    derivation_to_tree,
    derivation_transitions,
    enumerate_derivations,
    inside_counts,
    lattice_from_labels,
    nth_derivation,
    parse_lattice,
)
from punclr.model import (
    ModelError,
    ProbModel,
    RankTimeout,
    TransitionCounts,
    extract_histories,
    good_turing_adjusted_count,
    load_model,
    rank_nbest,
    save_counts,
    save_model,
    smooth_good_turing,
    train_counts,
    transition_occurrences,
)
from punclr.lattice import read_tagged_file, to_lattice
from punclr.trees import format_tree, parse_tree_line, read_treebank, tree_leaves

from oracles import (
    derivation_signature,
    eager_rank_nbest,
    flat_signature,
    leaf_likelihood_sum,
    score_derivation,
)

CATALAN = "%start X\nX -> X X ;\nX -> 'a' ;\n"


def setup_catalan():
    backbone, residues = compile_grammar(parse_grammar_file(CATALAN))
    table = build_lalr(backbone)
    return table, residues


def parse(table, residues, labels, **kw):
    return parse_lattice(lattice_from_labels(labels), table, residues, **kw)


def branchy_histories(table, residues, n_left=3, n_right=1):
    """Histories for 'a a a': the left- and right-branching derivations."""
    outcome = parse(table, residues, ["a"] * 3)
    derivs = enumerate_derivations(outcome.forest)
    by_shape = {}
    for d in derivs:
        tree = derivation_to_tree(d)
        left = tree.children[0].end == 2
        by_shape["left" if left else "right"] = derivation_transitions(d)
    return [by_shape["left"]] * n_left + [by_shape["right"]] * n_right, by_shape


def test_train_counts_single_history():
    history = [(0, "a", None), (2, "b", None), (1, "$end", None)]
    counts = train_counts([history], "h")
    assert all(v == 1.0 for v in counts.counts.values())
    assert len(counts.counts) == 3
    assert counts.total_histories == 1.0


def test_train_counts_conflicted_context_three_to_one():
    table, residues = setup_catalan()
    histories, _ = branchy_histories(table, residues)
    counts = train_counts(histories, table.table_hash())
    conflicted = [
        (key, c)
        for key, c in counts.counts.items()
        if len([k for k in counts.counts if k[:2] == key[:2]]) > 1
    ]
    assert conflicted
    values = sorted(
        {key[:2]: 0 for key, _ in conflicted} and
        [c for _, c in conflicted]
    )
    assert 3.0 in values and 1.0 in values


def test_train_counts_empty_gives_uniform_model():
    table, residues = setup_catalan()
    counts = train_counts([], table.table_hash())
    model = smooth_good_turing(counts, table)
    contexts = {}
    for (s, l, a), p in model.probs.items():
        contexts.setdefault((s, l), []).append(p)
    for ps in contexts.values():
        assert all(abs(p - 1.0 / len(ps)) < 1e-12 for p in ps)


def test_good_turing_spot_check():
    assert good_turing_adjusted_count(1, {1: 3, 2: 2}) == 4 / 3


def test_good_turing_undefined_returns_none():
    assert good_turing_adjusted_count(1, {1: 3}) is None
    assert good_turing_adjusted_count(5, {}) is None


def test_simplex_and_positivity():
    table, residues = setup_catalan()
    histories, _ = branchy_histories(table, residues)
    counts = train_counts(histories, table.table_hash())
    model = smooth_good_turing(counts, table)
    contexts = {}
    for (s, l, a), p in model.probs.items():
        assert p > 0
        contexts.setdefault((s, l), 0.0)
        contexts[(s, l)] += p
    for key, total in contexts.items():
        assert abs(total - 1.0) < 1e-9, key
    # the model covers every action in the table
    assert len(model.probs) == table.action_count


def test_hash_mismatch_refused():
    table, residues = setup_catalan()
    counts = train_counts([], "bogus-hash")
    with pytest.raises(ModelError):
        smooth_good_turing(counts, table)


def test_uniform_context_when_seen_equally():
    table, residues = setup_catalan()
    histories, shapes = branchy_histories(table, residues, n_left=2, n_right=2)
    counts = train_counts(histories, table.table_hash())
    model = smooth_good_turing(counts, table)
    conflicted = {}
    for (s, l), n in _context_sizes(table).items():
        if n == 2:
            conflicted[(s, l)] = [
                model.probs[(s, l, a)] for a in table.actions[(s, l)]
            ]
    seen_conflicted = [ps for ps in conflicted.values() if len(set(ps)) == 1]
    assert seen_conflicted  # the shift/reduce context trained 2:2 is uniform


def _context_sizes(table):
    return {key: len(acts) for key, acts in table.actions.items()}


def test_unseen_gets_positive_mass_summing_to_one():
    table, residues = setup_catalan()
    histories, _ = branchy_histories(table, residues, n_left=5, n_right=0)
    counts = train_counts(histories, table.table_hash())
    model = smooth_good_turing(counts, table)
    # the context that would have chosen right-branching exists and its
    # unseen action holds positive probability
    assert model.unseen
    for (s, l), p in model.unseen.items():
        assert p > 0
        total = sum(model.probs[(s, l, a)] for a in table.actions[(s, l)])
        assert abs(total - 1.0) < 1e-9


def test_monotone_smoothing_within_context():
    table, residues = setup_catalan()
    histories, _ = branchy_histories(table, residues, n_left=3, n_right=1)
    counts = train_counts(histories, table.table_hash())
    model = smooth_good_turing(counts, table)
    for (s, l), actions in table.actions.items():
        pairs = [
            (counts.counts.get((s, l, a), 0.0), model.probs[(s, l, a)])
            for a in actions
        ]
        pairs.sort()
        for (c1, p1), (c2, p2) in zip(pairs, pairs[1:]):
            if c2 > c1 and c1 > 0:
                assert p2 >= p1


def test_smoothing_does_not_depend_on_key_order():
    """Counts whose log-log slope, summed over the frequencies of
    frequencies in the order the keys first meet them, rounds differently
    forwards and backwards: the model is the same in every key order."""
    _, _, _, table = compile_fixture("tagseq.gr")
    keys = sorted((s, l, a) for (s, l), actions in table.actions.items() for a in actions)
    values = [0.5] + [1.0] * 16 + [20.0] + [5.0] * 3 + [9.0] * 2 + [3.0] * 14
    items = list(zip(keys, values))
    shuffled = items[:]
    random.Random(0).shuffle(shuffled)
    models = [smooth_good_turing(TransitionCounts(dict(order), table.table_hash()), table)
              for order in (items, items[::-1], shuffled)]
    for m in models[1:]:
        assert {k: p.hex() for k, p in m.probs.items()} == {
            k: p.hex() for k, p in models[0].probs.items()}
        assert {k: p.hex() for k, p in m.unseen.items()} == {
            k: p.hex() for k, p in models[0].unseen.items()}


def test_score_deterministic_contexts_give_zero():
    table, residues = setup_catalan()
    counts = train_counts([], table.table_hash())
    model = smooth_good_turing(counts, table)
    # a one-token sentence passes only through singleton contexts
    outcome = parse(table, residues, ["a"])
    (deriv,) = enumerate_derivations(outcome.forest)
    transitions = derivation_transitions(deriv)
    deterministic = [
        t for t in transitions if len(table.actions[(t[0], t[1])]) == 1
    ]
    assert sum(math.log(model.prob(*t)) for t in deterministic) == 0.0


def test_left_branching_scores_higher_after_3_to_1():
    table, residues = setup_catalan()
    histories, shapes = branchy_histories(table, residues)
    counts = train_counts(histories, table.table_hash())
    model = smooth_good_turing(counts, table)
    left = score_derivation(shapes["left"], model)
    right = score_derivation(shapes["right"], model)
    assert left > right


def test_reduction_order_discriminated():
    # two derivations of the same production multiset score differently
    table, residues = setup_catalan()
    histories, shapes = branchy_histories(table, residues)
    counts = train_counts(histories, table.table_hash())
    model = smooth_good_turing(counts, table)
    left_prods = sorted(a.arg for _, _, a in shapes["left"] if a.kind == "reduce")
    right_prods = sorted(a.arg for _, _, a in shapes["right"] if a.kind == "reduce")
    assert left_prods == right_prods  # same backbone rules applied
    assert score_derivation(shapes["left"], model) != score_derivation(
        shapes["right"], model
    )


def test_unknown_transition_uses_unseen_prob():
    table, residues = setup_catalan()
    histories, _ = branchy_histories(table, residues, n_left=5, n_right=0)
    counts = train_counts(histories, table.table_hash())
    model = smooth_good_turing(counts, table)
    (s, l) = next(iter(model.unseen))
    fake_action = None
    p = model.prob(s, l, fake_action)
    assert p == model.unseen[(s, l)] > 0


# ---------------------------------------------------------------------------
# n-best

def nbest_oracle(forest, model, n):
    derivs = enumerate_derivations(forest)
    scored = [
        (
            score_derivation(derivation_transitions(d), model),
            derivation_signature(d),
            d,
        )
        for d in derivs
    ]
    scored.sort(key=lambda e: (-e[0], e[1]))
    return scored[:n]


def test_rank_unambiguous_sentence():
    table, residues = setup_catalan()
    counts = train_counts([], table.table_hash())
    model = smooth_good_turing(counts, table)
    outcome = parse(table, residues, ["a"])
    ranked = rank_nbest(outcome.forest, model, 5)
    assert len(ranked) == 1
    assert ranked[0].rank == 1


def test_rank_three_tokens_3_to_1():
    table, residues = setup_catalan()
    histories, shapes = branchy_histories(table, residues)
    counts = train_counts(histories, table.table_hash())
    model = smooth_good_turing(counts, table)
    outcome = parse(table, residues, ["a"] * 3)
    ranked = rank_nbest(outcome.forest, model, 2)
    assert len(ranked) == 2
    assert ranked[0].tree.children[0].end == 2  # left-branching first
    assert ranked[0].log_prob > ranked[1].log_prob


@pytest.mark.parametrize("n_tokens", [3, 4, 5, 6])
def test_rank_matches_bruteforce_oracle(n_tokens):
    table, residues = setup_catalan()
    histories, _ = branchy_histories(table, residues)
    counts = train_counts(histories, table.table_hash())
    model = smooth_good_turing(counts, table)
    outcome = parse(table, residues, ["a"] * n_tokens)
    total = count_parses(outcome.forest)
    ranked = rank_nbest(outcome.forest, model, total)
    oracle = nbest_oracle(outcome.forest, model, total)
    assert len(ranked) == len(oracle) == total
    for got, (score, sig, _) in zip(ranked, oracle):
        assert flat_signature(got.signature) == sig
        assert abs(got.log_prob - score) < 1e-12
    # and n=1 is the argmax
    top = rank_nbest(outcome.forest, model, 1)[0]
    assert flat_signature(top.signature) == oracle[0][1]


def test_rank_hash_mismatch_rejected():
    table, residues = setup_catalan()
    counts = train_counts([], table.table_hash())
    model = smooth_good_turing(counts, table)
    outcome = parse(table, residues, ["a"] * 2)
    bad = ProbModel(model.probs, model.unseen, "different")
    with pytest.raises(ModelError):
        rank_nbest(outcome.forest, bad, 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_nbest_equals_enumeration_top_n_on_random_models(data):
    """n below the parse count on random sentences, under models trained on
    random weighted draws of their own derivations: rank_nbest(n) is the
    enumeration's top n, signatures and log-probs exactly."""
    grammar = data.draw(st.sampled_from(["catalan.gr", "commatext.gr", "two-way"]))
    if grammar == "two-way":
        backbone, residues = compile_grammar(parse_grammar_file(TWO_WAY))
        table = build_lalr(backbone)
        labels = data.draw(st.lists(st.sampled_from("xy"), min_size=1, max_size=5))
    else:
        _, _, residues, table = compile_fixture(grammar)
        if grammar == "catalan.gr":
            labels = ["a"] * data.draw(st.integers(1, 7))
        else:
            labels = ["W"] + [",", "W"] * data.draw(st.integers(0, 5))
    forest = parse(table, residues, labels).forest
    derivs = enumerate_derivations(forest)
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, len(derivs) - 1), st.floats(0.01, 10.0)), max_size=4))
    counts = train_counts([derivation_transitions(derivs[i]) for i, _ in picks],
                          table.table_hash(), [w for _, w in picks])
    model = smooth_good_turing(counts, table)
    oracle = nbest_oracle(forest, model, len(derivs))
    for n in (1, 2, 3, 5, 10):
        assert [(flat_signature(a.signature), a.log_prob)
                for a in rank_nbest(forest, model, n)] == [
            (sig, score) for score, sig, _ in oracle[:n]]


# tagseq.gr sentences that parse on their first labels alone
TAGSEQ_SENTENCES = (
    ("NN1", "VVZ"),
    ("AT", "NN2", "VV0", "II", "AT", "NN1"),
    ("AT", "VVN", "NN1", "VVZ", "II", "AT", "NN1"),
    ("AT", "JJ", "NN2", "VV0", "AT", "NN1", "II", "NN2"),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tag_likelihood_scores_equal_oracle_sums_on_random_lattices(data):
    """On random lattices with two labels on every token, over TWO_WAY and
    tagseq.gr, under models trained on random weighted draws of their own
    derivations: each analysis rank_nbest returns with tag likelihoods
    scores, bit for bit, its transitions' log probabilities summed in
    sequence plus its leaves' log likelihoods summed subtree by subtree, and
    the analyses are distinct and come in non-increasing score."""
    if data.draw(st.booleans()):
        backbone, residues = compile_grammar(parse_grammar_file(TWO_WAY))
        table = build_lalr(backbone)
        firsts = data.draw(st.lists(st.sampled_from("xy"), min_size=1, max_size=4))
    else:
        _, backbone, residues, table = compile_fixture("tagseq.gr")
        firsts = data.draw(st.sampled_from(TAGSEQ_SENTENCES))
    tokens = []
    for i, first in enumerate(firsts):
        second = data.draw(st.sampled_from(sorted(backbone.terminals - {first})))
        likelihoods = data.draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2))
        labels = sorted(zip((first, second), likelihoods), key=lambda h: -h[1])
        tokens.append(Token("w%d" % i, i, tuple(labels)))
    forest = parse_lattice(SentenceLattice(tuple(tokens)), table, residues).forest
    total = count_parses(forest)
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, total - 1), st.floats(0.01, 10.0)), max_size=4))
    histories = [derivation_transitions(nth_derivation(forest, i)) for i, _ in picks]
    counts = train_counts(histories, table.table_hash(), [w for _, w in picks])
    model = smooth_good_turing(counts, table)
    for n in (1, 3, 10):
        ranked = rank_nbest(forest, model, n, include_tag_likelihoods=True)
        assert len(ranked) == min(n, total)
        for a in ranked:
            expected = (score_derivation(derivation_transitions(a.derivation), model)
                        + leaf_likelihood_sum(a.derivation))
            assert a.log_prob.hex() == expected.hex()
        scores = [a.log_prob for a in ranked]
        assert scores == sorted(scores, reverse=True)
        assert len({flat_signature(a.signature) for a in ranked}) == len(ranked)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 0.0), min_size=1, max_size=60), st.data())
def test_float_sums_of_nonpositive_terms_stay_within_gamma(terms, data):
    """The bound rank_nbest's early stop rests on: a float sum of K terms,
    each at most 0, lies within gamma * |S| of their exact sum S, with gamma
    = K u / (1 - K u) and u = 2^-53, whether summed in sequence or along a
    random binary tree."""
    exact = sum(map(Fraction, terms), Fraction(0))
    u = Fraction(1, 2 ** 53)
    gamma = len(terms) * u / (1 - len(terms) * u)
    sequential = 0.0
    for t in terms:
        sequential += t
    partial = list(terms)
    while len(partial) > 1:
        i = data.draw(st.integers(0, len(partial) - 2))
        partial[i:i + 2] = [partial[i] + partial[i + 1]]
    for total in (sequential, partial[0]):
        assert abs(Fraction(total) - exact) <= gamma * abs(exact)


# a tie below a root that does not tie: X's two bundles both score 0.0
TIED_BELOW = "%start S\nS -> X 'c' ;\nX -> A ;\nX -> B ;\nA -> 'a' ;\nB -> 'a' ;\n"


def test_rank_ties_follow_signature_order():
    """With probability 1.0 for every action every derivation scores 0.0
    (score_derivation's sum of log 1.0), so the ranking is pure signature
    order: rank_nbest(n) returns the n smallest enumerated signatures.
    a^8 and a^9 have more parses than the 2n+16 window holds.  On a c under
    TIED_BELOW the n = 1 walk down the best derivation stops at X, below
    the root, and the answer comes from pulling root entries."""
    backbone, residues = compile_grammar(parse_grammar_file(TIED_BELOW))
    cases = [(setup_catalan(), [["a"] * length for length in range(2, 10)]),
             ((build_lalr(backbone), residues), [["a", "c"]])]
    for (table, residues), sentences in cases:
        certain = ProbModel(
            {(s, l, a): 1.0 for (s, l), actions in table.actions.items() for a in actions},
            {}, table.table_hash(),
        )
        for labels in sentences:
            forest = parse(table, residues, labels).forest
            sigs = sorted(derivation_signature(d) for d in enumerate_derivations(forest))
            for n in (1, 2, 3, 5, 10):
                ranked = rank_nbest(forest, certain, n)
                assert [flat_signature(a.signature) for a in ranked] == sigs[:n], (labels, n)
                assert [a.log_prob for a in ranked] == [0.0] * min(n, len(sigs))


def test_deep_tie_ranks_without_recursion():
    """The two parses of a^1500 first differ at the bottom of the chain and
    tie exactly; their signatures nest deeper than a comparison may recurse
    and are compared as flat preorders."""
    grammar = "%start S\nS -> S 'a' ;\nS -> A ;\nS -> B ;\nA -> 'a' ;\nB -> 'a' ;\n"
    backbone, residues = compile_grammar(parse_grammar_file(grammar))
    table = build_lalr(backbone)
    forest = parse(table, residues, ["a"] * 1500).forest
    model = smooth_good_turing(train_counts([], table.table_hash()), table)
    first, second = rank_nbest(forest, model, 2)
    assert first.log_prob == second.log_prob
    assert [flat_signature(first.signature), flat_signature(second.signature)] == sorted(
        derivation_signature(d) for d in enumerate_derivations(forest))


def test_deep_tied_bundles_rank_without_recursion():
    """On a^2100 b, S's 20 bundles all use S -> L R and split the sentence
    as L over a^(2100-j) and R over a^j b, j < 20: under probability 1.0 they
    tie exactly, and their signatures first differ at the bottom of L's
    chain, deeper than a comparison may recurse.  So the seeding pass's
    tie-break, S's candidate heap and the final sort all fall back to flat
    preorders, and with more root entries than the 2n+16 window pulls, the
    heap's order decides which are pulled: the ranking is still the
    enumeration's signature order."""
    grammar = "%start S\nS -> L R ;\nL -> L 'a' ;\nL -> 'a' ;\n" + "".join(
        "R -> %s'b' ;\n" % ("'a' " * j) for j in range(20))
    backbone, residues = compile_grammar(parse_grammar_file(grammar))
    table = build_lalr(backbone)
    forest = parse(table, residues, ["a"] * 2100 + ["b"]).forest
    certain = ProbModel(
        {(s, l, a): 1.0 for (s, l), actions in table.actions.items() for a in actions},
        {}, table.table_hash(),
    )
    sigs = sorted(derivation_signature(d) for d in enumerate_derivations(forest))
    assert len(sigs) == 20
    for n in (1, 2):
        ranked = rank_nbest(forest, certain, n)
        assert [flat_signature(a.signature) for a in ranked] == sigs[:n]
        assert [a.log_prob for a in ranked] == [0.0] * n
    with pytest.raises(RecursionError):
        ranked[0].signature < ranked[1].signature


def test_deep_tie_fallback_flattens_each_signature_once(monkeypatch):
    """S -> L R over a^400 splits the sentence at 399 points, which tie
    under probability 1.0 and whose signatures first differ deep in L's
    chain.  With the recursion limit 150 frames up, the seeding pass, S's
    candidate heap and the final sort compare flat preorders, and however
    often a candidate's signature is compared, it is flattened once: no
    flat preorder is made twice, whichever object it is made from.  The
    ranking is still the enumeration's signature order."""
    grammar = "%start S\nS -> L R ;\nL -> L 'a' ;\nL -> 'a' ;\nR -> 'a' R ;\nR -> 'a' ;\n"
    backbone, residues = compile_grammar(parse_grammar_file(grammar))
    table = build_lalr(backbone)
    forest = parse(table, residues, ["a"] * 400).forest
    certain = ProbModel(
        {(s, l, a): 1.0 for (s, l), actions in table.actions.items() for a in actions},
        {}, table.table_hash(),
    )
    sigs = sorted(derivation_signature(d) for d in enumerate_derivations(forest))
    assert len(sigs) == 399
    flattened = collections.Counter()  # flat preorder -> times made
    preorder = model_module._preorder

    def counted(nested):
        flat = preorder(nested)
        flattened[flat] += 1
        return flat

    monkeypatch.setattr(model_module, "_preorder", counted)
    with recursion_headroom(150):
        ranked = rank_nbest(forest, certain, 3)
    assert len(flattened) >= 399  # S's 399 tied candidates, and the sort's
    assert set(flattened.values()) == {1}
    assert [flat_signature(a.signature) for a in ranked] == sigs[:3]


def test_scaling_invariance_of_argmax():
    table, residues = setup_catalan()
    histories, _ = branchy_histories(table, residues)
    base = train_counts(histories, table.table_hash())
    for k in (1, 2, 7, 50):
        scaled = TransitionCounts(
            {key: c * k for key, c in base.counts.items()},
            base.table_hash,
            base.total_histories * k,
        )
        model = smooth_good_turing(scaled, table)
        for n_tokens in (3, 4, 5):
            outcome = parse(table, residues, ["a"] * n_tokens)
            top = rank_nbest(outcome.forest, model, 1)[0]
            # left-branching stays the argmax at every scale
            assert top.tree.children[0].end == n_tokens - 1


def test_fractional_histories_from_forest():
    table, residues = setup_catalan()
    outcome = parse(table, residues, ["a"] * 3)
    histories, weights = extract_histories(outcome.forest)
    assert len(histories) == 2
    assert weights == [0.5, 0.5]
    counts = train_counts(histories, table.table_hash(), weights)
    assert counts.total_histories == 1.0


def test_counts_and_model_round_trip(tmp_path):
    table, residues = setup_catalan()
    histories, _ = branchy_histories(table, residues)
    counts = train_counts(histories, table.table_hash())
    model = smooth_good_turing(counts, table)
    cpath = tmp_path / "t.counts"
    mpath = tmp_path / "t.model"
    save_counts(counts, cpath)
    save_model(model, mpath)
    fields = {"table": (str,), "histories": (float,),
              "count": (int, unesc, action_kind, int, float)}
    records = list(read_records(cpath, "counts", fields))
    assert records[:2] == [("table", [counts.table_hash]),
                           ("histories", [counts.total_histories])]
    assert {(state, label, Action(kind, arg)): c
            for _, (state, label, kind, arg, c) in records[2:]} == counts.counts
    loaded = load_model(mpath)
    assert loaded.probs == model.probs
    assert loaded.unseen == model.unseen
    assert loaded.table_hash == model.table_hash


def _saved_model(tmp_path):
    table, residues = setup_catalan()
    histories, _ = branchy_histories(table, residues)
    mpath = tmp_path / "t.model"
    save_model(smooth_good_turing(train_counts(histories, table.table_hash()), table), mpath)
    return mpath


def _corrupt(path, lineno, replacement):
    lines = path.read_text().splitlines(keepends=True)
    lines[lineno - 1] = replacement
    path.write_text("".join(lines))


# reader, the kind of file read back, shows in each case's id
@pytest.mark.parametrize(
    "reader, replacement, message",
    [
        ("model", "\n", "line 4: blank line"),
        ("model", "prob 0\n", "line 4: prob record needs 5 fields, found 1"),
        ("model", "unseen zero a 0.5\n", "line 4: non-numeric field"),
        ("model", "prob 0 a Shift 1 0.5\n",
         "line 4: expected shift or reduce or accept for the action kind, found 'Shift'"),
        ("model", "shift 0 a\n", "line 4: unknown record 'shift'"),
        # rank_nbest's stop rule needs every log probability finite and <= 0
        *[("model", record % value, "line 4: expected a probability in (0, 1], found %r"
           % value)
          for record in ("prob 0 a shift 1 %s\n", "unseen 0 a %s\n")
          for value in ("0.0", "-0.5", "nan", "inf", "1.5")],
    ],
)
def test_malformed_line_raises_model_error(tmp_path, reader, replacement, message):
    path = _saved_model(tmp_path)
    _corrupt(path, 4, replacement)
    with pytest.raises(ModelError, match="^" + re.escape(message)):
        load_model(path)


# ---------------------------------------------------------------------------
# pins: rank rows, enumeration order and training histories on every fixture
# grammar; digests computed before the forest consumers became loops

def _pin_cases(grammar):
    if grammar in ("tagseq.gr", "integrated.gr", "commatext.gr"):
        source = "comma_series.txt" if grammar == "commatext.gr" else "tagged_example.txt"
        return [to_lattice(t) for t in read_tagged_file(FIXTURES / source)]
    if grammar == "catalan.gr":
        return [lattice_from_labels(["a"] * n) for n in range(1, 9)]
    return [lattice_from_labels([n, v]) for n in ("NN1", "NN2") for v in ("VVZ", "VV0")]


PIN_TREEBANKS = {"catalan.gr": "catalan_train.tb", "tagseq.gr": "tagseq_gold.tb"}

FOREST_CONSUMER_PINS = {
    "agree.gr": ("759bdb17de8e6d63", "b5092b9f8e300ffb", "9504f713ae724170"),
    "agree_relaxed.gr": ("e1237314098f856c", "95335616469644fb", "fb9a3fdf6fdf71d7"),
    "catalan.gr": ("32919e56f37f1f35", "17eb6a1c9d1dab49", "f4aba144bc343923"),
    "commatext.gr": ("245d5d6074828bba", "658cc669e8c8e306", "8a174e1f8727beec"),
    "integrated.gr": ("50443465791b92bf", "0431ff8d5a4c5839", "f966645d5e4da8ab"),
    "tagseq.gr": ("77486370f65388aa", "f27ace196d9410ab", "c75b3054e2d0f7fc"),
}


def forest_consumer_digests(grammar):
    """sha256 prefixes of (rank --nbest 10 rows with and without tag
    likelihoods, ordered enumeration signatures, extract_histories)."""
    artifacts = compile_fixture(grammar)
    _, _, residues, table = artifacts
    if grammar in PIN_TREEBANKS:
        _, model, _ = train_model_from_treebanks(
            artifacts, [FIXTURES / PIN_TREEBANKS[grammar]], [1.0]
        )
    else:
        model = smooth_good_turing(train_counts([], table.table_hash()), table)
    ranks, sigs, hists = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for i, lattice in enumerate(_pin_cases(grammar)):
        outcome = parse_lattice(lattice, table, residues)
        if not outcome.ok:
            continue
        forest = outcome.forest
        for tags in (False, True):
            for a in rank_nbest(forest, model, 10, include_tag_likelihoods=tags):
                ranks.update(b"%d\t%d\t%r\t%s\n"
                             % (i, a.rank, a.log_prob, format_tree(a.tree).encode()))
        for d in enumerate_derivations(forest):
            sigs.update(repr(derivation_signature(d)).encode())
        hists.update(repr(extract_histories(forest)).encode())
    return tuple(h.hexdigest()[:16] for h in (ranks, sigs, hists))


@pytest.mark.parametrize("grammar", sorted(FOREST_CONSUMER_PINS))
def test_forest_consumers_pinned(grammar):
    assert forest_consumer_digests(grammar) == FOREST_CONSUMER_PINS[grammar]


# sha256 of the rank_nbest rows (length, n, rank, log-prob, signature) on
# catalan a^8..a^14 for n-best 1, 3 and 10, with and without tag
# likelihoods; computed when every node's first candidates still went
# through a heap.  Under the untrained model nearly every score ties, so the
# signature order decides.
RANK_ROW_PINS = {
    "trained": "ea43b1c64dde53763001fec19181bed909789e4987d2587fabbe7688fb6dba07",
    "untrained": "cf85689f76629827d34bbe93c43be518acb09de3bbe5df9fc5941aae895b6568",
}


@pytest.mark.parametrize("kind", sorted(RANK_ROW_PINS))
def test_rank_rows_pinned_on_ties(kind):
    artifacts = compile_fixture("catalan.gr")
    _, _, residues, table = artifacts
    if kind == "trained":
        _, model, _ = train_model_from_treebanks(
            artifacts, [FIXTURES / PIN_TREEBANKS["catalan.gr"]], [1.0]
        )
    else:
        model = smooth_good_turing(train_counts([], table.table_hash()), table)
    digest = hashlib.sha256()
    for length in range(8, 15):
        forest = parse(table, residues, ["a"] * length).forest
        for n in (1, 3, 10):
            for tags in (False, True):
                for a in rank_nbest(forest, model, n, include_tag_likelihoods=tags):
                    digest.update(b"%d\t%d\t%d\t%r\t%r\n"
                                  % (length, n, a.rank, a.log_prob,
                                     flat_signature(a.signature)))
    assert digest.hexdigest() == RANK_ROW_PINS[kind]


def rank_rows(ranked) -> list:
    """(rank, %r log-prob, flat signature, rendered tree) per analysis."""
    return [(a.rank, "%r" % a.log_prob, flat_signature(a.signature), format_tree(a.tree))
            for a in ranked]


REPEATED = (0.5, 0.25, 0.125)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_rank_rows_equal_eager_ranking_under_repeated_probabilities(data):
    """rank_nbest builds best entries only where its pulls reach, and makes
    a candidate's signature only when it ties in score.  eager_rank_nbest,
    the ranking it replaced, built every best entry first and pushed each
    candidate with its signature.  Under models that give every action
    0.5, 0.25 or 0.125, on lattices whose tag likelihoods are drawn from
    the same values, scores tie often and ties decide the pop order: both
    give the same rows at n = 1, 3, 10 and 50, with and without tag
    likelihoods."""
    grammar = data.draw(st.sampled_from(["catalan.gr", "commatext.gr", "tagseq.gr",
                                         "two-way"]))
    if grammar == "two-way":
        backbone, residues = compile_grammar(parse_grammar_file(TWO_WAY))
        table = build_lalr(backbone)
        firsts = data.draw(st.lists(st.sampled_from("xy"), min_size=1, max_size=5))
    else:
        _, backbone, residues, table = compile_fixture(grammar)
        if grammar == "catalan.gr":
            firsts = ["a"] * data.draw(st.integers(1, 8))
        elif grammar == "commatext.gr":
            firsts = ["W"] + [",", "W"] * data.draw(st.integers(0, 4))
        else:
            firsts = data.draw(st.sampled_from(TAGSEQ_SENTENCES))
    tokens = []
    for i, first in enumerate(firsts):
        labels = [(first, data.draw(st.sampled_from(REPEATED)))]
        others = sorted(backbone.terminals - {first})
        if others and data.draw(st.booleans()):
            labels.append((data.draw(st.sampled_from(others)),
                           data.draw(st.sampled_from(REPEATED))))
        tokens.append(Token("w%d" % i, i, tuple(sorted(labels, key=lambda h: -h[1]))))
    forest = parse_lattice(SentenceLattice(tuple(tokens)), table, residues).forest
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    model = ProbModel({(s, l, a): rng.choice(REPEATED)
                       for (s, l), actions in sorted(table.actions.items())
                       for a in sorted(actions)}, {}, table.table_hash())
    for n in (1, 3, 10, 50):
        for tags in (False, True):
            assert rank_rows(rank_nbest(forest, model, n, include_tag_likelihoods=tags)) == \
                rank_rows(eager_rank_nbest(forest, model, n, include_tag_likelihoods=tags))


def test_ten_best_builds_entries_where_the_pulls_reach(monkeypatch):
    """On a^24 under the model trained from catalan_train.tb, the 10-best
    gives at most 30% of the forest's inner nodes a best entry, where
    building them all first gave every one of them one, and its rows equal
    that eager ranking's."""
    artifacts = compile_fixture("catalan.gr")
    _, _, residues, table = artifacts
    _, trained, _ = train_model_from_treebanks(
        artifacts, [FIXTURES / "catalan_train.tb"], [1.0])
    forest = parse(table, residues, ["a"] * 24).forest
    inner = [node for node in forest.nodes.values() if hasattr(node, "bundles")]
    built = set()
    entry = model_module._entry

    def counted(node, *args):
        built.add(node)
        return entry(node, *args)

    monkeypatch.setattr(model_module, "_entry", counted)
    ranked = rank_nbest(forest, trained, 10)
    assert built <= set(inner)
    assert len(built) <= 0.3 * len(inner)
    assert rank_rows(ranked) == rank_rows(eager_rank_nbest(forest, trained, 10))


@pytest.mark.parametrize("grammar", sorted(FOREST_CONSUMER_PINS))
def test_nth_derivation_equals_enumeration(grammar):
    _, _, residues, table = compile_fixture(grammar)
    for lattice in _pin_cases(grammar):
        outcome = parse_lattice(lattice, table, residues)
        if not outcome.ok:
            continue
        derivs = enumerate_derivations(outcome.forest)
        assert [nth_derivation(outcome.forest, i) for i in range(len(derivs))] == derivs
        for index in (-1, len(derivs)):
            with pytest.raises(IndexError):
                nth_derivation(outcome.forest, index)


def test_rank_budget_raises_rank_timeout():
    table, residues = setup_catalan()
    forest = parse(table, residues, ["a"] * 6).forest
    model = smooth_good_turing(train_counts([], table.table_hash()), table)
    with pytest.raises(RankTimeout):
        rank_nbest(forest, model, 3, budget=-1.0)
    unbounded = rank_nbest(forest, model, 3)
    assert rank_nbest(forest, model, 3, budget=60.0) == unbounded


def counted_pushes(monkeypatch) -> list:
    """The items punclr.model pushes through heapq.heappush from here on,
    in a list the caller may clear."""
    pushed = []
    heappush = model_module.heapq.heappush

    def counted(heap, item):
        pushed.append(item)
        heappush(heap, item)

    monkeypatch.setattr(model_module.heapq, "heappush", counted)
    return pushed


def test_rank_budget_bounds_the_score_pass(monkeypatch):
    """The score pass reads the CPU clock every CLOCK_EVERY nodes, so a
    budget that runs out within it raises RankTimeout there, before any
    entry is pushed, at n = 1 as at n = 10.  On the 40-leaf catalan forest,
    under a clock that advances one step per read, the budget is 8 steps
    and the score pass alone reads the clock more often than that."""
    artifacts = compile_fixture("catalan.gr")
    _, _, residues, table = artifacts
    _, trained, _ = train_model_from_treebanks(
        artifacts, [FIXTURES / "catalan_train.tb"], [1.0])
    forest = parse(table, residues, ["a"] * 40).forest
    assert len(forest.nodes) > 10 * glr.CLOCK_EVERY
    step = 2.0 ** -20
    reads = itertools.count(1)
    monkeypatch.setattr(time, "process_time", lambda: next(reads) * step)
    pushed = counted_pushes(monkeypatch)
    for n in (1, 10):
        with pytest.raises(RankTimeout):
            rank_nbest(forest, trained, n, budget=8 * step)
        assert pushed == []


def test_rank_budget_bounds_the_one_best_walk(monkeypatch):
    """For n = 1 the walk over the root's tie closure goes on reading the
    CPU clock every CLOCK_EVERY steps, so a budget that outlasts the score
    pass runs out in the walk and raises RankTimeout there, before anything
    is pushed.  On the 40-leaf catalan forest under the model trained from
    catalan_train.tb the walk settles the 1-best; under a clock that
    advances one step per read, the budget is the score pass's reads."""
    artifacts = compile_fixture("catalan.gr")
    _, _, residues, table = artifacts
    _, trained, _ = train_model_from_treebanks(
        artifacts, [FIXTURES / "catalan_train.tb"], [1.0])
    forest = parse(table, residues, ["a"] * 40).forest
    pushed = counted_pushes(monkeypatch)
    rank_nbest(forest, trained, 1)
    assert pushed == []
    step = 2.0 ** -20
    reads = itertools.count(1)
    monkeypatch.setattr(time, "process_time", lambda: next(reads) * step)
    score_pass_reads = -(-len(forest.nodes) // glr.CLOCK_EVERY)
    with pytest.raises(RankTimeout):
        rank_nbest(forest, trained, 1, budget=score_pass_reads * step)
    # t0, the score pass's reads, then the walk's first, which raised
    assert next(reads) == score_pass_reads + 3
    assert pushed == []


def test_one_best_settles_without_pulls_unless_the_top_ties(monkeypatch):
    """rank_nbest(n=1) tries the stop rule on root entry 1 before building
    any entry past a node's best.  On a^12 under the model trained from
    catalan_train.tb it fires, and nothing is pushed onto a heap.  Under the
    untrained model the top scores tie exactly, so ranking falls back to
    pulling root entries, which pushes.  Both return the enumeration's
    top 1, signature and log-prob."""
    artifacts = compile_fixture("catalan.gr")
    _, _, residues, table = artifacts
    _, trained, _ = train_model_from_treebanks(
        artifacts, [FIXTURES / "catalan_train.tb"], [1.0])
    untrained = smooth_good_turing(train_counts([], table.table_hash()), table)
    forest = parse(table, residues, ["a"] * 12).forest
    pushed = counted_pushes(monkeypatch)
    for model, pulls in ((trained, False), (untrained, True)):
        pushed.clear()
        (top,) = rank_nbest(forest, model, 1)
        assert bool(pushed) == pulls
        ((score, sig, _),) = nbest_oracle(forest, model, 1)
        assert (flat_signature(top.signature), top.log_prob) == (sig, score)


def test_deep_chain_ranks_and_extracts_without_recursion():
    chain = "%start S\nS -> S 'a' ;\nS -> 'a' ;\n"
    backbone, residues = compile_grammar(parse_grammar_file(chain))
    table = build_lalr(backbone)
    outcome = parse(table, residues, ["a"] * 2000)
    model = smooth_good_turing(train_counts([], table.table_hash()), table)
    (analysis,) = rank_nbest(outcome.forest, model, 10, include_tag_likelihoods=True)
    assert (analysis.tree.start, analysis.tree.end) == (0, 2000)
    histories, weights = extract_histories(outcome.forest)
    assert weights == [1.0] and len(histories[0]) == 2 * 2000 + 1
    tree = derivation_to_tree(analysis.derivation)
    depth = 0
    while tree.children:
        tree = tree.children[0]
        depth += 1
    assert depth == 2000


def _subtrees_by_subderivation(analysis):
    """id of every subderivation below an analysis's root -> its subtree in
    analysis.tree, for a grammar without Kleene iterations, whose trees
    mirror their derivations node for node."""
    out = {}
    todo = [(analysis.derivation[2][0], analysis.tree)]
    while todo:
        d, tree = todo.pop()
        out[id(d)] = tree
        todo.extend(zip(d[2], tree.children))
    return out


def test_ranked_trees_equal_fresh_walks_and_share_subtrees():
    """rank_nbest builds one sentence's trees through one memo on the
    subderivation objects its k-best entries share.  Every tree equals an
    unmemoised derivation_to_tree walk, on tagseq, whose PP* iterations are
    spliced away, and on catalan; and where two analyses share a
    subderivation, they hold the same Tree object for it."""
    spliced = shared = 0
    for grammar in ("tagseq.gr", "catalan.gr"):
        artifacts = compile_fixture(grammar)
        _, _, residues, table = artifacts
        _, model, _ = train_model_from_treebanks(
            artifacts, [FIXTURES / PIN_TREEBANKS[grammar]], [1.0])
        for lattice in _pin_cases(grammar):
            outcome = parse_lattice(lattice, table, residues)
            if not outcome.ok:
                continue
            forest = outcome.forest
            ranked = rank_nbest(forest, model, 10)
            for a in ranked:
                assert a.tree == derivation_to_tree(a.derivation)
                spliced += any(
                    glr.is_iteration_symbol(getattr(d[0], "symbol", ""))
                    for d in glr.derivation_postorder(a.derivation))
            if grammar == "catalan.gr":
                subtrees = [_subtrees_by_subderivation(a) for a in ranked]
                for first, second in itertools.combinations(subtrees, 2):
                    for i in first.keys() & second.keys():
                        assert first[i] is second[i]
                        shared += 1
    assert spliced and shared

# training from exact occurrence counts, checked against the enumeration

def enumerated_counts(artifacts, weighted_trees, max_histories):
    """train_counts over extract_histories for the trees train_from_trees
    uses: the reference for its counts."""
    _, _, residues, table = artifacts
    histories, weights = [], []
    for tree, weight in weighted_trees:
        lattice = lattice_from_labels(tree_leaves(tree))
        outcome = parse_lattice(lattice, table, residues,
                                skeleton=extract_brackets(tree).spans)
        if not outcome.ok or count_parses(outcome.forest) > max_histories:
            continue
        hs, ws = extract_histories(outcome.forest)
        histories.extend(hs)
        weights.extend(w * weight for w in ws)
    return train_counts(histories, table.table_hash(), weights)


def assert_counts_bit_identical(artifacts, weighted_trees, max_histories=cli.MAX_HISTORIES):
    got, _, report = train_from_trees(artifacts, weighted_trees, max_histories)
    want = enumerated_counts(artifacts, weighted_trees, max_histories)
    assert {k: v.hex() for k, v in got.counts.items()} == {
        k: v.hex() for k, v in want.counts.items()
    }
    assert got.total_histories.hex() == want.total_histories.hex()
    return report


@pytest.mark.parametrize("grammar, treebank", sorted(PIN_TREEBANKS.items()))
def test_training_counts_equal_enumeration_on_fixture_treebanks(grammar, treebank):
    trees = [t for _, t in read_treebank(FIXTURES / treebank)]
    artifacts = compile_fixture(grammar)
    assert_counts_bit_identical(artifacts, [(t, 1.0) for t in trees])
    weighted = [(t, 0.1 + i / 3) for i, t in enumerate(reversed(trees))]
    assert assert_counts_bit_identical(artifacts, weighted)["used"] == len(trees)


@st.composite
def partly_flat_catalan_tree(draw):
    """A catalan treebank line over 1-8 leaves whose internal nodes have
    two or more children, so a node over k leaves may be anything from a
    binary split to flat."""
    def span(n):
        if n == 1:
            return "a"
        cuts = draw(st.sets(st.integers(1, n - 1), min_size=1))
        bounds = [0, *sorted(cuts), n]
        return "(X %s)" % " ".join(span(b - a) for a, b in zip(bounds, bounds[1:]))

    n = draw(st.integers(1, 8))
    return parse_tree_line(span(n) if n > 1 else "(X a)")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(partly_flat_catalan_tree(), st.floats(0.01, 10.0)), min_size=1, max_size=4
    ),
    st.sampled_from([20, cli.MAX_HISTORIES]),
)
def test_training_counts_equal_enumeration_on_weighted_mixtures(weighted_trees, cap):
    assert_counts_bit_identical(compile_fixture("catalan.gr"), weighted_trees, cap)


# every x and y has two analyses with transitions of their own, so a
# sentence's derivations share some transitions and not others
TWO_WAY = (
    "%start S\nS -> S S ;\nS -> A ;\nS -> B ;\n"
    "A -> 'x' ;\nA -> C ;\nC -> 'x' ;\nB -> 'y' ;\nB -> D ;\nD -> 'y' ;\n"
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(st.sampled_from("xy"), min_size=1, max_size=5),
                  st.floats(0.01, 10.0)),
        min_size=1, max_size=3,
    )
)
def test_training_counts_equal_enumeration_on_two_way_ambiguous_leaves(sentences):
    grammar = parse_grammar_file(TWO_WAY)
    backbone, residues = compile_grammar(grammar)
    artifacts = (grammar, backbone, residues, build_lalr(backbone))
    weighted = [(parse_tree_line("(S %s)" % " ".join(words)), w) for words, w in sentences]
    assert assert_counts_bit_identical(artifacts, weighted)["used"] == len(sentences)


@pytest.mark.parametrize("grammar", sorted(FOREST_CONSUMER_PINS))
def test_transition_occurrences_count_enumerated_histories(grammar):
    _, _, residues, table = compile_fixture(grammar)
    for lattice in _pin_cases(grammar):
        outcome = parse_lattice(lattice, table, residues)
        if not outcome.ok:
            continue
        tally = {}
        for history in extract_histories(outcome.forest)[0]:
            for transition in history:
                tally[transition] = tally.get(transition, 0) + 1
        got = transition_occurrences(outcome.forest, inside_counts(outcome.forest))
        assert got == tally


def test_training_never_enumerates(monkeypatch):
    def refuse(*_):
        raise AssertionError("training enumerated derivations")

    assert not hasattr(cli, "enumerate_derivations")
    for module in (glr, model_module):
        monkeypatch.setattr(module, "enumerate_derivations", refuse)
    monkeypatch.setattr(model_module, "extract_histories", refuse)
    flat = parse_tree_line("(X %s)" % " ".join(["a"] * 10))
    counts, _, report = train_from_trees(compile_fixture("catalan.gr"), [(flat, 1.0)])
    assert report["used"] == 1 and report["histories"] == 4862
    assert counts.total_histories == pytest.approx(1.0)
