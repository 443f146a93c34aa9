import pytest
from hypothesis import given, strategies as st

from punclr.grammar import (
    Bindings,
    GrammarError,
    Var,
    compile_backbone,
    compile_grammar,
    expand_kleene,
    make_features,
    parse_grammar_file,
    residue_signature,
    unify,
)
from conftest import recursion_headroom, unit_chain_grammar
from oracles import language_of_backbone, language_of_grammar

MINI = "%start S\n%terminals NP VP\nS -> NP[num=?N] VP[num=?N] ;\n"

AMBIG = "%start X\nX -> X X ;\nX -> 'a' ;\n"


def test_parse_minimal_grammar():
    g = parse_grammar_file(MINI)
    assert len(g.rules) == 1
    assert g.start == "S"
    assert g.terminals == {"NP", "VP"}
    rule = g.rules[0]
    vs = rule.variables()
    assert len(vs) == 1
    (v,) = vs
    assert v.name == "N"
    # the same Var object is shared by both daughters
    assert rule.daughters[0].cat.fdict()["num"] is v
    assert rule.daughters[1].cat.fdict()["num"] is v


def test_parse_smallest_ambiguous_grammar():
    g = parse_grammar_file(AMBIG)
    assert len(g.rules) == 2
    assert g.terminals == {"a"}
    assert g.start == "X"


def test_undefined_symbol_is_an_error():
    with pytest.raises(GrammarError) as exc:
        parse_grammar_file("%start S\nS -> Q ;\n")
    assert "Q" in str(exc.value)


def test_duplicate_rule_id_is_an_error():
    text = "%start S\nfoo: S -> 'a' ;\nfoo: S -> 'b' ;\n"
    with pytest.raises(GrammarError) as exc:
        parse_grammar_file(text)
    assert "foo" in str(exc.value)


def test_syntax_error_carries_position():
    with pytest.raises(GrammarError) as exc:
        parse_grammar_file("%start S\nS -> 'a'\nS -> 'b' ;\n")
    assert exc.value.line >= 2


def test_textual_syntactic_feature_overlap_is_an_error():
    text = (
        "%start T\n"
        "S[num=sg] -> 'a' ;\n"
        "%textual\n"
        "T[num=sg] -> S ;\n"
    )
    with pytest.raises(GrammarError) as exc:
        parse_grammar_file(text)
    assert "num" in str(exc.value)


def test_textual_block_marks_rules():
    text = "%start T\nS -> 'a' ;\n%textual\nT[tf=x] -> S ;\n"
    g = parse_grammar_file(text)
    by_mother = {r.mother.name: r for r in g.rules}
    assert not by_mother["S"].textual
    assert by_mother["T"].textual


def test_terminal_as_mother_is_an_error():
    with pytest.raises(GrammarError):
        parse_grammar_file("%start a\n%terminals a\na -> 'b' ;\n")


def test_comment_and_escaped_pipe_free_symbols():
    text = "# a comment\n%start S\nS -> 'a' ; # trailing comment\n"
    g = parse_grammar_file(text)
    assert g.terminals == {"a"}


# ---------------------------------------------------------------------------
# unification

def F(**kw):
    return make_features(kw)


def test_unify_compatible_merge():
    assert unify(F(num="sg"), F(num="sg", per="3")) == F(num="sg", per="3")


def test_unify_constant_clash():
    assert unify(F(num="sg"), F(num="pl")) is None


def test_unify_variable_binding():
    x = Var("X")
    b = Bindings()
    merged = unify(F(agr=x), F(agr="3sg"), b)
    assert merged == F(agr="3sg")
    assert b.resolve(x) == "3sg"


def test_unify_shared_bindings_propagate():
    x = Var("X")
    b = Bindings()
    assert unify(F(num=x), F(num="sg"), b) is not None
    # a later clash through the same variable fails
    assert unify(F(num=x), F(num="pl"), b) is None


atoms = st.sampled_from(["sg", "pl", "3sg", "a", "b"])
names = st.sampled_from(["f", "g", "h", "k"])


@st.composite
def feature_maps(draw):
    n = draw(st.integers(0, 4))
    shared = [Var("U"), Var("V")]
    out = {}
    for _ in range(n):
        name = draw(names)
        if draw(st.booleans()):
            out[name] = draw(atoms)
        else:
            out[name] = draw(st.sampled_from(shared))
    return make_features(out)


def canon(features):
    return residue_signature(features) if features is not None else None


@given(feature_maps(), feature_maps())
def test_unify_commutative_up_to_renaming(a, b):
    assert canon(unify(a, b)) == canon(unify(b, a))


@given(feature_maps(), feature_maps(), feature_maps())
def test_unify_associative_up_to_renaming(a, b, c):
    def seq(x, y, z):
        b1 = Bindings()
        m = unify(x, y, b1)
        if m is None:
            return None
        m2 = unify(m, z, b1)
        if m2 is None:
            return None
        from punclr.grammar import resolve_features

        return resolve_features(m2, b1)

    left = seq(a, b, c)
    right = seq(b, c, a)
    assert canon(left) == canon(right)


@given(feature_maps())
def test_unify_idempotent_on_variable_free_maps(a):
    ground = make_features({f: v for f, v in a if not isinstance(v, Var)})
    assert unify(ground, ground) == ground


# ---------------------------------------------------------------------------
# Kleene expansion and backbone

STAR_GRAMMAR = "%start X1\n%terminals X0 Arg\nX1 -> X0 Arg* ;\n"
PLUS_GRAMMAR = "%start VP\n%terminals V NP\nVP -> V NP+ ;\n"


def test_expand_identity_when_no_marks():
    g = parse_grammar_file("%start NP\n%terminals Det N\nNP -> Det N ;\n")
    assert expand_kleene(g) == g


def test_expand_star_language_preserved():
    g = parse_grammar_file(STAR_GRAMMAR)
    expanded = expand_kleene(g)
    assert all(d.rep == "one" for r in expanded.rules for d in r.daughters)
    assert language_of_grammar(g, 8) == language_of_grammar(expanded, 8)
    # star admits the zero-repetition case
    assert ("X0",) in language_of_grammar(expanded, 6)


def test_expand_plus_language_preserved_and_nonempty():
    g = parse_grammar_file(PLUS_GRAMMAR)
    expanded = expand_kleene(g)
    lang = language_of_grammar(expanded, 8)
    assert lang == language_of_grammar(g, 8)
    assert ("V",) not in lang
    assert ("V", "NP") in lang


def test_expand_threads_shared_variables():
    text = (
        "%start S\n"
        "S[num=?N] -> H[num=?N] D[num=?N]* ;\n"
        "H[num=sg] -> 'h' ;\n"
        "D[num=sg] -> 'd' ;\n"
        "D[num=pl] -> 'e' ;\n"
    )
    g = parse_grammar_file(text)
    lang = language_of_grammar(g, 4)
    # every iteration must agree with the head: only sg daughters survive
    assert ("h",) in lang
    assert ("h", "d") in lang
    assert ("h", "d", "d") in lang
    assert all("e" not in s for s in lang)
    assert lang == language_of_grammar(expand_kleene(g), 4)


def test_backbone_featureless_single_rule():
    g = parse_grammar_file("%start S\nS -> 'a' ;\n")
    backbone, residues = compile_backbone(g)
    assert len(backbone.productions) == 1
    assert residues[0].mother.features == ()


def test_backbone_projects_names_and_keeps_residue():
    g = parse_grammar_file(MINI)
    backbone, residues = compile_backbone(g)
    (p,) = backbone.productions
    assert (p.lhs, p.rhs) == ("S", ("NP", "VP"))
    spec = residues[p.index]
    d0 = dict(spec.daughters[0].features)
    d1 = dict(spec.daughters[1].features)
    assert d0["num"] is d1["num"]  # the ?N link survives compilation


def test_backbone_language_superset_of_grammar():
    text = (
        "%start S\n"
        "S -> NP[num=?N] VP[num=?N] ;\n"
        "NP[num=sg] -> 'n1' ;\n"
        "NP[num=pl] -> 'n2' ;\n"
        "VP[num=sg] -> 'v1' ;\n"
        "VP[num=pl] -> 'v2' ;\n"
    )
    g = parse_grammar_file(text)
    backbone, _ = compile_grammar(g)
    full = language_of_grammar(g, 8)
    cf = language_of_backbone(backbone, 8)
    assert full <= cf
    assert ("n1", "v2") in cf and ("n1", "v2") not in full


def test_backbone_hash_deterministic():
    g1, _ = compile_grammar(parse_grammar_file(MINI))
    g2, _ = compile_grammar(parse_grammar_file(MINI))
    assert g1.content_hash() == g2.content_hash()


def test_unit_cycle_rejected():
    text = "%start X\nX -> Y ;\nY -> X ;\nX -> 'a' ;\n"
    with pytest.raises(GrammarError) as exc:
        compile_grammar(parse_grammar_file(text))
    assert "ambiguous" in str(exc.value)


def test_long_unit_chain_compiles_without_recursion():
    grammar = parse_grammar_file(unit_chain_grammar(1500))
    with recursion_headroom(200):
        backbone, _ = compile_grammar(grammar)
    assert len(backbone.productions) == 1501


def test_unit_cycle_behind_long_chain_rejected():
    grammar = parse_grammar_file(unit_chain_grammar(1500, cyclic=True))
    with recursion_headroom(200), pytest.raises(GrammarError) as exc:
        compile_grammar(grammar)
    assert "grammar is infinitely ambiguous: cyclic unit derivation through 'A" in str(exc.value)


def test_nested_star_nullable_rejected():
    text = "%start X\nX -> Y* ;\nY -> Z* ;\nZ -> 'a' ;\n"
    with pytest.raises(GrammarError):
        compile_grammar(parse_grammar_file(text))
