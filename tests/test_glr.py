import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, compile_fixture
from punclr.grammar import END_MARKER, compile_grammar, parse_grammar_file
from punclr.lalr import ACCEPT, REDUCE, SHIFT, build_lalr
from punclr.glr import (
    ROOT_KEY,
    SentenceLattice,
    Token,
    constrained_parse,
    count_parses,
    derivation_to_tree,
    derivation_transitions,
    enumerate_derivations,
    export_forest,
    lattice_from_labels,
    parse_lattice,
)
from punclr.lattice import read_tagged_file, to_lattice
from oracles import (
    children_first,
    count_derivations,
    derivation_signature,
    enumerate_derivations as oracle_derivations,
)

CATALAN = "%start X\nX -> X X ;\nX -> 'a' ;\n"

AGREE = (
    "%start S\n"
    "S -> NP[num=?N] VP[num=?N] ;\n"
    "NP[num=sg] -> 'NN1' ;\n"
    "VP[num=pl] -> 'VV0' ;\n"
)

AGREE_RELAXED = (
    "%start S\n"
    "S -> NP VP ;\n"
    "NP[num=sg] -> 'NN1' ;\n"
    "VP[num=pl] -> 'VV0' ;\n"
)


def setup(text):
    backbone, residues = compile_grammar(parse_grammar_file(text))
    return build_lalr(backbone), backbone, residues


def parse_labels(setup_tuple, labels, **kw):
    table, backbone, residues = setup_tuple
    return parse_lattice(lattice_from_labels(labels), table, residues, **kw)


def test_catalan_counts():
    s = setup(CATALAN)
    expected = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 42}
    for n, want in expected.items():
        outcome = parse_labels(s, ["a"] * n)
        assert outcome.ok
        assert count_parses(outcome.forest) == want, n


def test_counts_match_cky_oracle_catalan():
    table, backbone, residues = setup(CATALAN)
    for n in range(1, 8):
        outcome = parse_lattice(lattice_from_labels(["a"] * n), table, residues)
        oracle = oracle_derivations(backbone, residues, [["a"]] * n)
        assert count_parses(outcome.forest) == len(oracle)


def test_agreement_clash_fails_and_relaxed_parses():
    outcome = parse_labels(setup(AGREE), ["NN1", "VV0"])
    assert outcome.status == "fail"
    outcome = parse_labels(setup(AGREE_RELAXED), ["NN1", "VV0"])
    assert outcome.ok
    assert count_parses(outcome.forest) == 1


def test_unknown_label_fails_gracefully():
    outcome = parse_labels(setup(CATALAN), ["a", "zz"])
    assert outcome.status == "fail"


def test_timeout_only_with_budget():
    s = setup(CATALAN)
    outcome = parse_labels(s, ["a"] * 12, budget=0.0)
    assert outcome.status == "timeout"
    outcome = parse_labels(s, ["a"] * 12)
    assert outcome.ok


def test_derivations_replay_against_table():
    table, backbone, residues = setup(CATALAN)
    outcome = parse_lattice(lattice_from_labels(["a"] * 4), table, residues)
    derivs = enumerate_derivations(outcome.forest)
    assert len(derivs) == 5
    for deriv in derivs:
        replay(table, derivation_transitions(deriv), ["a"] * 4)


def replay(table, transitions, labels):
    """Drive a plain LR stack by the recorded transitions; every step must
    be a legal table action and the run must consume the input then accept."""
    stack = [table.start_state]
    pos = 0
    labels = list(labels) + [END_MARKER]
    for state, lookahead, action in transitions:
        assert state == stack[-1], (state, stack)
        assert lookahead == labels[pos]
        assert action in table.actions.get((state, lookahead), frozenset())
        if action.kind == SHIFT:
            stack.append(action.arg)
            pos += 1
        elif action.kind == REDUCE:
            prod = table.productions[action.arg]
            if len(prod.rhs):
                del stack[-len(prod.rhs):]
            stack.append(table.gotos[(stack[-1], prod.lhs)])
        else:
            assert action.kind == ACCEPT
            assert pos == len(labels) - 1
    assert transitions[-1][2].kind == ACCEPT


def test_signatures_unique_and_deterministic():
    table, backbone, residues = setup(CATALAN)
    outcome = parse_lattice(lattice_from_labels(["a"] * 5), table, residues)
    derivs = enumerate_derivations(outcome.forest)
    sigs = [derivation_signature(d) for d in derivs]
    assert len(set(sigs)) == len(sigs) == 14


def test_trees_have_correct_spans():
    table, backbone, residues = setup(CATALAN)
    outcome = parse_lattice(lattice_from_labels(["a"] * 3), table, residues)
    trees = [derivation_to_tree(d)
             for d in enumerate_derivations(outcome.forest)]
    all_spans = {frozenset(collect_spans(t)) for t in trees}
    # left-branching and right-branching
    assert all_spans == {
        frozenset([(0, 3), (0, 2), (0, 1), (1, 2), (2, 3)]),
        frozenset([(0, 3), (1, 3), (0, 1), (1, 2), (2, 3)]),
    }


def collect_spans(tree):
    out = [(tree.start, tree.end)]
    for c in tree.children:
        out.extend(collect_spans(c))
    return out


# ---------------------------------------------------------------------------
# lattices with multiple hypotheses

AMBIG_TAGS = (
    "%start S\n"
    "S -> N V ;\n"
    "S -> V N ;\n"
    "N -> 'nn' ;\n"
    "V -> 'vv' ;\n"
)


def test_multi_label_lattice_counts():
    table, backbone, residues = setup(AMBIG_TAGS)
    # both tokens ambiguous between nn and vv: exactly two global analyses
    lattice = SentenceLattice(
        (
            Token("w0", 0, (("nn", 0.6), ("vv", 0.4))),
            Token("w1", 1, (("nn", 0.5), ("vv", 0.5))),
        )
    )
    outcome = parse_lattice(lattice, table, residues)
    assert outcome.ok
    oracle = oracle_derivations(backbone, residues, [["nn", "vv"], ["nn", "vv"]])
    assert count_parses(outcome.forest) == len(oracle) == 2


def test_lattice_rejects_a_label_listed_twice():
    # parsed, the repeated label's closure would add every bundle twice
    with pytest.raises(ValueError, match="lists a label twice"):
        SentenceLattice((Token("w0", 0, (("a", 0.5), ("a", 0.3))),))


def test_multi_label_lattice_matches_oracle_ambiguous_grammar():
    table, backbone, residues = setup(CATALAN + "X -> 'b' ;\n")
    for n in range(1, 6):
        lattice = SentenceLattice(
            tuple(Token("w%d" % i, i, (("a", 0.7), ("b", 0.3))) for i in range(n))
        )
        outcome = parse_lattice(lattice, table, residues)
        oracle = oracle_derivations(backbone, residues, [["a", "b"]] * n)
        assert count_parses(outcome.forest) == len(oracle)


# ---------------------------------------------------------------------------
# nullable handling

NULLABLE = (
    "%start S\n"
    "%terminals h x\n"
    "S -> H Arg* ;\n"
    "H -> 'h' ;\n"
    "Arg -> 'x' ;\n"
)


def test_nullable_star_parses():
    s = setup(NULLABLE)
    for n in range(0, 5):
        labels = ["h"] + ["x"] * n
        outcome = parse_labels(s, labels)
        assert outcome.ok, n
        assert count_parses(outcome.forest) == 1, n


def test_nullable_against_oracle():
    table, backbone, residues = setup(NULLABLE)
    for n in range(0, 5):
        labels = ["h"] + ["x"] * n
        outcome = parse_lattice(lattice_from_labels(labels), table, residues)
        oracle = oracle_derivations(backbone, residues, [[l] for l in labels])
        assert count_parses(outcome.forest) == len(oracle) == 1


# ---------------------------------------------------------------------------
# constrained parsing

def test_constrained_parse_left_branching_only():
    table, backbone, residues = setup(CATALAN)
    lattice = lattice_from_labels(["a"] * 3)
    outcome = constrained_parse(lattice, table, residues, {(0, 2)})
    assert outcome.ok
    assert count_parses(outcome.forest) == 1
    (deriv,) = enumerate_derivations(outcome.forest)
    tree = derivation_to_tree(deriv)
    assert (0, 2) in collect_spans(tree)


def test_constrained_parse_empty_skeleton_is_unconstrained():
    table, backbone, residues = setup(CATALAN)
    lattice = lattice_from_labels(["a"] * 3)
    outcome = constrained_parse(lattice, table, residues, set())
    assert count_parses(outcome.forest) == 2


def test_constrained_parse_impossible_skeleton_fails():
    table, backbone, residues = setup(CATALAN)
    lattice = lattice_from_labels(["a"] * 3)
    outcome = constrained_parse(lattice, table, residues, {(0, 2), (1, 3)})
    assert outcome.status == "fail"


def test_constrained_equals_filtered_enumeration():
    table, backbone, residues = setup(CATALAN)
    skeleton = {(1, 4)}
    labels = ["a"] * 5
    lattice = lattice_from_labels(labels)
    full = parse_lattice(lattice, table, residues)
    constrained = constrained_parse(lattice, table, residues, skeleton)

    def consistent(tree_sig):
        return not any(
            (s < a < e < b or a < s < b < e)
            for (s, e) in tree_sig
            for (a, b) in skeleton
        )

    full_sigs = set()
    for d in enumerate_derivations(full.forest):
        spans = tuple(sorted(collect_spans(derivation_to_tree(d))))
        if consistent(spans):
            full_sigs.add(derivation_signature(d))
    got_sigs = {
        derivation_signature(d)
        for d in enumerate_derivations(constrained.forest)
    }
    assert got_sigs == full_sigs


def test_bracket_tables_match_pairwise_crossing():
    import random

    from punclr.glr import _bracket_tables

    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 8)
        skeleton = {tuple(sorted(rng.sample(range(n + 1), 2)))
                    for _ in range(rng.randint(0, 4))}
        last_open, first_close = _bracket_tables(skeleton, n)
        for i in range(n + 1):
            for j in range(i, n + 1):
                pairwise = any(i < a < j < b or a < i < b < j for a, b in skeleton)
                assert (last_open[j] > i or first_close[i] < j) == pairwise, (skeleton, i, j)


def assert_bundles_distinct(forest):
    """No forest node holds two bundles with equal (production, children)."""
    for node in forest.nodes.values():
        bundles = [(production, children)
                   for production, children, _ in getattr(node, "bundles", ())]
        assert len(set(bundles)) == len(bundles), node.key


# rules of four and five symbols, with an empty B* inside one and at the right
# end of the other: reduce paths longer than any fixture grammar's, through
# zero-width edges
LONG_RULES = CATALAN + (
    "X -> 'b' ;\n"
    "X -> 'a' B* X 'b' ;\n"
    "X -> X 'a' 'b' X B* ;\n"
    "B -> 'b' ;\n"
)


@pytest.mark.parametrize("seed", range(4))
def test_random_lattices_match_oracle(seed):
    import random

    rng = random.Random(seed)
    for text in (CATALAN + "X -> 'b' ;\nX -> 'a' 'b' ;\n", LONG_RULES):
        table, backbone, residues = setup(text)
        for _ in range(10):
            n = rng.randint(1, 5)
            cells = []
            for i in range(n):
                labels = rng.sample(["a", "b"], rng.randint(1, 2))
                cells.append(labels)
            lattice = SentenceLattice(
                tuple(
                    Token("w%d" % i, i, tuple((l, 0.5) for l in cells[i]))
                    for i in range(n)
                )
            )
            outcome = parse_lattice(lattice, table, residues)
            oracle = oracle_derivations(backbone, residues, cells)
            got = count_parses(outcome.forest) if outcome.ok else 0
            assert got == len(oracle), (cells, got, len(oracle))
            if outcome.ok:
                assert_bundles_distinct(outcome.forest)


def test_forest_export_mentions_every_node():
    table, backbone, residues = setup(CATALAN)
    outcome = parse_lattice(lattice_from_labels(["a"] * 3), table, residues)
    dump = export_forest(outcome.forest)
    assert dump.count("\n") == len(outcome.forest.nodes)
    assert "trans=" in dump


def test_forest_invariant_all_unifications_succeeded():
    table, backbone, residues = setup(AGREE_RELAXED)
    outcome = parse_labels((table, backbone, residues), ["NN1", "VV0"])
    for node in outcome.forest.nodes.values():
        if hasattr(node, "bundles"):
            assert node.bundles


def test_deep_chain_counts_without_recursion():
    s = setup("%start S\nS -> S 'a' ;\nS -> 'a' ;\n")
    outcome = parse_labels(s, ["a"] * 2000)
    assert outcome.ok
    assert count_parses(outcome.forest) == 1


@pytest.mark.parametrize("grammar", ["catalan.gr", "commatext.gr", "tagseq.gr"])
def test_forest_nodes_children_first(grammar):
    source = {"catalan.gr": None, "commatext.gr": "comma_series.txt",
              "tagseq.gr": "tagged_example.txt"}[grammar]
    if source is None:
        lattices = [lattice_from_labels(["a"] * n) for n in range(1, 9)]
    else:
        lattices = _fixture_lattices(source)
    _, _, residues, table = compile_fixture(grammar)
    for lattice in lattices:
        forest = parse_lattice(lattice, table, residues).forest
        seen = set()
        for key, node in forest.nodes.items():
            for _, children, _ in getattr(node, "bundles", ()):
                assert all(c.key in seen for c in children)
            seen.add(key)
        assert key == ROOT_KEY
        assert_walk_matches_oracle(forest)


def assert_walk_matches_oracle(forest):
    """forest.nodes holds the nodes the key-based walk places, in its
    order, each under its own key."""
    oracle = children_first(forest.root)
    assert list(oracle) == list(forest.nodes)
    assert all(a is b for a, b in zip(oracle.values(), forest.nodes.values()))
    assert all(key == node.key for key, node in forest.nodes.items())


FIXTURE_GRAMMARS = ("agree.gr", "agree_relaxed.gr", "catalan.gr", "commatext.gr",
                    "integrated.gr", "tagseq.gr")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_children_first_walk_matches_key_walk_on_random_lattices(data):
    """On random lattices over each fixture grammar's terminals, with up to
    six distinct hypotheses per token, the walk on node slots places the
    nodes the key-based walk does, in the same order."""
    grammar = data.draw(st.sampled_from(FIXTURE_GRAMMARS))
    _, backbone, residues, table = compile_fixture(grammar)
    terminals = sorted(backbone.terminals)
    tokens = []
    for i in range(data.draw(st.integers(1, 7))):
        labels = data.draw(st.lists(st.sampled_from(terminals), min_size=1, max_size=6,
                                    unique=True))
        tokens.append(Token("w%d" % i, i, tuple((label, 0.5) for label in labels)))
    outcome = parse_lattice(SentenceLattice(tuple(tokens)), table, residues)
    if outcome.ok:
        assert_walk_matches_oracle(outcome.forest)


# Residues that keep an unbound variable: A's mother is never bound, so its
# residue holds a Var and every reduction above it takes the general
# unification path rather than the memo for variable-free residues.
UNBOUND = (
    "%start S\n"
    "S -> A[f=?X] B[f=?X] ;\n"
    "S -> S A[f=?X] ;\n"
    "A[f=?X] -> A[f=?X] A[f=?X] ;\n"
    "A[f=?X] -> 'a' ;\n"
    "A[f=c] -> 'c' ;\n"
    "B[f=b] -> 'b' ;\n"
    "B[f=c] -> 'a' ;\n"
)


def test_unbound_variable_residues_match_oracle():
    table, backbone, residues = setup(UNBOUND)
    for labels in (["a", "b"], ["c", "b"], ["a", "a"], ["c", "a", "a", "c"],
                   ["a", "b", "a", "c", "a"]):
        outcome = parse_lattice(lattice_from_labels(labels), table, residues)
        oracle = oracle_derivations(backbone, residues, [[l] for l in labels])
        got = count_parses(outcome.forest) if outcome.ok else 0
        assert got == len(oracle), (labels, got, len(oracle))


# ---------------------------------------------------------------------------
# forest pins: export_forest bytes and parse counts on every fixture grammar

def _fixture_lattices(name):
    return [to_lattice(tokens) for tokens in read_tagged_file(FIXTURES / name)]


_AGREE_PAIRS = [[n, v] for n in ("NN1", "NN2") for v in ("VVZ", "VV0")]

FOREST_PINS = {
    "tagseq.gr": ("tagged_example.txt", "6f2e093f87a7829b"),
    "integrated.gr": ("tagged_example.txt", "df7e9d740307a36c"),
    "commatext.gr": ("comma_series.txt", "cd85bc2ea4aa6754"),
    "catalan.gr": ("a^1..a^12", "7dc5cd45acbda299"),
    "agree.gr": ("NN/VV pairs", "5af97538ac0a2127"),
    "agree_relaxed.gr": ("NN/VV pairs", "9ce5643bbb7cc7da"),
}


def _pinned_lattices(grammar):
    source = FOREST_PINS[grammar][0]
    if source.endswith(".txt"):
        return _fixture_lattices(source)
    if grammar == "catalan.gr":
        return [lattice_from_labels(["a"] * n) for n in range(1, 13)]
    return [lattice_from_labels(pair) for pair in _AGREE_PAIRS]


@pytest.mark.parametrize("grammar", sorted(FOREST_PINS))
def test_forest_export_pinned(grammar):
    lattices, digest = _pinned_lattices(grammar), FOREST_PINS[grammar][1]
    _, _, residues, table = compile_fixture(grammar)
    h = hashlib.sha256()
    for lattice in lattices:
        outcome = parse_lattice(lattice, table, residues)
        h.update(outcome.status.encode())
        if outcome.ok:
            assert_bundles_distinct(outcome.forest)
            h.update(b"%d\n" % count_parses(outcome.forest))
            h.update(export_forest(outcome.forest).encode())
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("grammar", sorted(FOREST_PINS))
def test_equal_transitions_are_the_tables_one_tuple(grammar):
    """Every bundle and leaf that takes a transition holds the tuple of the
    table cell it came from, so equal transitions are one object."""
    _, _, residues, table = compile_fixture(grammar)
    cells = {}
    for row in table.rows.values():
        for empties, others, shifts, accept in row.values():
            for transition in [e[3] for e in empties + others] + [s[1] for s in shifts]:
                cells[transition] = transition
            if accept is not None:
                cells[accept] = accept
    taken = 0
    for lattice in _pinned_lattices(grammar):
        outcome = parse_lattice(lattice, table, residues)
        if not outcome.ok:
            continue
        for node in outcome.forest.nodes.values():
            for transition in ([t for _, _, t in node.bundles] if hasattr(node, "bundles")
                               else [node.transition]):
                assert cells[transition] is transition
                taken += 1
    assert taken


# rules of four and five daughters with a nullable E* between daughters:
# their reduces pop paths through _pop_paths, across zero-width edges
WIDE_RULES = (
    "%start S\n"
    "S -> S S ;\n"
    "S -> 'a' ;\n"
    "S -> 'a' E* S 'b' ;\n"
    "S -> S E* 'c' E* S ;\n"
    "E -> 'b' ;\n"
)


@pytest.mark.parametrize("seed", range(3))
def test_wide_rules_match_oracles(seed):
    """On random lattices over WIDE_RULES, with and without a random bracket
    skeleton, the count is the chart oracle's and forest.nodes is the
    key-based walk's."""
    import random

    rng = random.Random(seed)
    table, backbone, residues = setup(WIDE_RULES)
    wide = {p.index: len(p.rhs) for p in backbone.productions if len(p.rhs) >= 4}
    arities = set()
    for _ in range(12):
        n = rng.randint(1, 6)
        cells = [rng.sample(["a", "b", "c"], rng.randint(1, 2)) for _ in range(n)]
        lattice = SentenceLattice(tuple(
            Token("w%d" % i, i, tuple((label, 0.5) for label in labels))
            for i, labels in enumerate(cells)
        ))
        skeleton = {tuple(sorted(rng.sample(range(n + 1), 2)))
                    for _ in range(rng.randint(1, 2))}
        for brackets in ((), skeleton):
            outcome = parse_lattice(lattice, table, residues, skeleton=brackets)
            got = count_parses(outcome.forest) if outcome.ok else 0
            assert got == count_derivations(backbone, residues, cells, brackets), (
                cells, brackets)
            if outcome.ok:
                assert_walk_matches_oracle(outcome.forest)
                arities.update(wide.get(production)
                               for node in outcome.forest.nodes.values()
                               for production, _, _ in getattr(node, "bundles", ()))
    assert {4, 5} <= arities
