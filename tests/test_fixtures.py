"""Fixture grammars behave as documented: counts, languages, agreement."""
import pytest

from punclr.glr import (
    count_parses,
    derivation_to_tree,
    enumerate_derivations,
    lattice_from_labels,
    parse_lattice,
)
from punclr.trees import format_tree

from conftest import compile_fixture
from oracles import enumerate_derivations as oracle_derivations
from oracles import language_of_backbone
from test_lalr import enumerate_accepted


def comma_labels(k):
    out = ["W"]
    for _ in range(k):
        out += [",", "W"]
    return out


@pytest.fixture(scope="module")
def commatext():
    return compile_fixture("commatext.gr")


@pytest.fixture(scope="module")
def tagseq():
    return compile_fixture("tagseq.gr")


COMMA_SERIES = {0: 1, 1: 1, 2: 3, 3: 8, 4: 25, 5: 80, 6: 267, 7: 911, 8: 3170}


def test_comma_counts_against_oracle_small(commatext):
    _, backbone, residues, table = commatext
    for k in range(0, 7):
        labels = comma_labels(k)
        outcome = parse_lattice(lattice_from_labels(labels), table, residues)
        oracle = oracle_derivations(backbone, residues, [[l] for l in labels])
        assert count_parses(outcome.forest) == len(oracle) == COMMA_SERIES[k], k


def test_comma_eight_hits_documented_target(commatext):
    _, backbone, residues, table = commatext
    outcome = parse_lattice(lattice_from_labels(comma_labels(8)), table, residues)
    assert count_parses(outcome.forest) == 3170


def test_comma_grammar_is_textual(commatext):
    grammar, _, _, _ = commatext
    assert all(r.textual for r in grammar.rules)


def test_tagseq_parses_idiosyncratic_participle(tagseq):
    _, backbone, residues, table = tagseq
    outcome = parse_lattice(
        lattice_from_labels(["AT", "VVN", "NN1", "VVZ"]), table, residues
    )
    assert outcome.ok
    assert count_parses(outcome.forest) == 1
    (deriv,) = enumerate_derivations(outcome.forest)
    tree = derivation_to_tree(deriv)
    assert tree.label == "S"


def test_tagseq_agreement_prunes(tagseq):
    _, backbone, residues, table = tagseq
    ok = parse_lattice(lattice_from_labels(["NN2", "VV0"]), table, residues)
    assert ok.ok
    clash = parse_lattice(lattice_from_labels(["NN2", "VVZ"]), table, residues)
    assert clash.status == "fail"


def test_tagseq_pp_attachment_ambiguity(tagseq):
    _, backbone, residues, table = tagseq
    labels = ["AT", "NN1", "VVZ", "AT", "NN1", "II", "AT", "NN1"]
    outcome = parse_lattice(lattice_from_labels(labels), table, residues)
    oracle = oracle_derivations(backbone, residues, [[l] for l in labels])
    assert count_parses(outcome.forest) == len(oracle) == 2


def test_tagseq_kleene_star_adjuncts(tagseq):
    _, backbone, residues, table = tagseq
    base = ["NN2", "VV0"]
    for n_pp in range(0, 3):
        labels = base + ["II", "AT", "NN1"] * n_pp
        outcome = parse_lattice(lattice_from_labels(labels), table, residues)
        oracle = oracle_derivations(backbone, residues, [[l] for l in labels])
        assert outcome.ok
        assert count_parses(outcome.forest) == len(oracle)


def test_tagseq_trees_flatten_iterations(tagseq):
    _, backbone, residues, table = tagseq
    labels = ["NN2", "VV0", "II", "AT", "NN1", "II", "AT", "NN1"]
    outcome = parse_lattice(lattice_from_labels(labels), table, residues)
    for deriv in enumerate_derivations(outcome.forest):
        tree = derivation_to_tree(deriv)
        assert "*" not in format_tree(tree)


@pytest.mark.parametrize(
    "name,max_len",
    [("catalan.gr", 8), ("agree.gr", 8), ("agree_relaxed.gr", 8), ("commatext.gr", 8)],
)
def test_language_oracle_fixture_grammars(name, max_len):
    _, backbone, residues, table = compile_fixture(name)
    accepted = enumerate_accepted(table, backbone.terminals, max_len)
    generated = language_of_backbone(backbone, max_len)
    assert accepted == generated


def test_language_oracle_tagseq():
    _, backbone, residues, table = compile_fixture("tagseq.gr")
    accepted = enumerate_accepted(table, backbone.terminals, 6)
    generated = language_of_backbone(backbone, 6)
    assert accepted == generated


def test_comma_derivations_replay(commatext):
    from punclr.glr import derivation_transitions
    from test_glr import replay

    _, backbone, residues, table = commatext
    labels = comma_labels(3)
    outcome = parse_lattice(lattice_from_labels(labels), table, residues)
    derivs = enumerate_derivations(outcome.forest)
    assert len(derivs) == 8
    for d in derivs:
        replay(table, derivation_transitions(d), labels)


def test_multi_label_derivations_replay(tagseq):
    from punclr.glr import SentenceLattice, Token, derivation_transitions
    from test_glr import replay

    _, backbone, residues, table = tagseq
    # 'sleep' ambiguous between VV0 and NN1; only the VV0 reading parses
    lattice = SentenceLattice(
        (
            Token("dogs", 0, (("NN2", 0.95),)),
            Token("sleep", 1, (("VV0", 0.6), ("NN1", 0.3))),
        )
    )
    outcome = parse_lattice(lattice, table, residues)
    assert outcome.ok
    for d in enumerate_derivations(outcome.forest):
        # replay against the label sequence the derivation actually chose
        from punclr.glr import derivation_to_tree

        tree = derivation_to_tree(d)
        leaves = _tree_leaf_labels(tree)
        replay(table, derivation_transitions(d), leaves)


def _tree_leaf_labels(tree):
    if tree.is_leaf():
        return [tree.label]
    out = []
    for c in tree.children:
        out.extend(_tree_leaf_labels(c))
    return out


def test_tagseq_backbone_language_is_a_superset(tagseq):
    from oracles import language_of_grammar

    grammar, backbone, residues, table = tagseq
    checked = language_of_grammar(grammar, 5)
    backbone_lang = language_of_backbone(backbone, 5)
    assert checked <= backbone_lang
    # residue checking only removes strings: agreement clashes survive in
    # the backbone but not in the feature-checked language
    assert ("NN1", "VV0") in backbone_lang
    assert ("NN1", "VV0") not in checked


def test_tagseq_compile_report_counts(tagseq):
    grammar, backbone, residues, table = tagseq
    assert len(grammar.rules) == 15
    assert len(backbone.productions) == 19
    assert table.n_states == 25
    assert table.action_count == 96


def test_integrated_fixture_parses_punctuated_sentence():
    grammar, backbone, residues, table = compile_fixture("integrated.gr")
    by_source = {}
    for r in grammar.rules:
        by_source.setdefault(r.textual, []).append(r)
    assert by_source[True] and by_source[False]
    labels = ["AT", "NN1", "VVZ", ",", "AT", "NN2", "VV0", ",", "AT", "NN1", "VVZ"]
    outcome = parse_lattice(lattice_from_labels(labels), table, residues)
    assert outcome.ok
    oracle = oracle_derivations(backbone, residues, [[l] for l in labels])
    assert count_parses(outcome.forest) == len(oracle) >= 1
