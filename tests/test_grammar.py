import pytest
from hypothesis import given, settings, strategies as st

from punclr.grammar import (
    Bindings,
    GrammarError,
    Var,
    canonical_residue,
    compile_backbone,
    compile_grammar,
    expand_kleene,
    make_features,
    parse_grammar_file,
    rename_features,
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
    assert dict(rule.daughters[0].cat.features)["num"] is v
    assert dict(rule.daughters[1].cat.features)["num"] is v


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


# (text, message, line, col) of every error the grammar reader and the
# checks after it raise; line and col are 0 for errors about the whole file
GRAMMAR_ERRORS = [
    pytest.param("%start S\nS -> 'a'\nS -> 'b' ;\n",
                 "expected category symbol, found '->'", 3, 3, id="missing-semicolon"),
    pytest.param("%start S\nS -> 'a'", "unexpected end of input", 2, 6, id="end-of-input"),
    pytest.param("S -> 'a' @ ;\n", "unexpected character '@'", 1, 10, id="bad-character"),
    pytest.param("S -> 'a' 'b\n", "unexpected character \"'\"", 1, 10,
                 id="unterminated-quote"),
    pytest.param("S -> 'a' ; %textual\n", "unexpected character '%'", 1, 12,
                 id="percent-mid-line"),
    pytest.param("  %\nS -> 'a' ;\n", "unexpected character '%'", 1, 3, id="bare-percent"),
    pytest.param("%begin S\nS -> 'a' ;\n", "unknown directive %begin", 1, 1,
                 id="unknown-directive"),
    pytest.param("%start # no symbol\nS -> 'a' ;\n", "%start needs a symbol", 1, 1,
                 id="empty-start"),
    pytest.param("foo: S -> 'a' ;\nfoo: S -> 'b' ;\n",
                 "duplicate rule id 'foo' (first defined at line 1)", 2, 1, id="duplicate-id"),
    pytest.param("r: 'a' -> 'b' ;\n", "rule mother cannot be a quoted terminal", 1, 1,
                 id="quoted-mother"),
    pytest.param("S -> ;\n", "rule has no daughters", 1, 1, id="no-daughters"),
    pytest.param("S 'a' ;\n", "expected '->', found \"'a'\"", 1, 3, id="missing-arrow"),
    pytest.param("S[f=a, f=b] -> 'a' ;\n", "duplicate feature 'f'", 1, 8,
                 id="duplicate-feature"),
    pytest.param("S -> 'a'[f=x] ;\n", "terminal 'a' cannot carry features", 1, 6,
                 id="features-on-terminal"),
    pytest.param("S[f='x'] -> 'a' ;\n", "expected feature value, found \"'x'\"", 1, 5,
                 id="bad-feature-value"),
    pytest.param("S[=a] -> 'a' ;\n", "expected sym, found '='", 1, 3, id="no-feature-name"),
    pytest.param("S[f=a -> 'a' ;\n", "expected sym, found '->'", 1, 7,
                 id="unclosed-features"),
    pytest.param("S -> Q ;\n", "undefined symbol 'Q'", 1, 1, id="undefined-symbol"),
    pytest.param("%terminals a\nS -> a ;\na -> 'b' ;\n",
                 "terminal 'a' used as a rule mother", 3, 1, id="terminal-mother"),
    pytest.param("%start T\nS -> 'a' ;\n",
                 "start symbol 'T' is not the mother of any rule", 0, 0, id="start-not-mother"),
    pytest.param("%start T\nS[num=sg] -> 'a' ;\n%textual\nT[num=sg] -> S ;\n",
                 "features num used by both textual and syntactic rules", 0, 0,
                 id="textual-overlap"),
    pytest.param("# nothing\n%start S\n", "grammar has no rules", 0, 0, id="no-rules"),
    # a directive inside a rule is a token the rule cannot take
    pytest.param("S -> 'a'\n%textual\nT -> S ;\n",
                 "expected category symbol, found '%textual'", 2, 1, id="directive-mid-rule"),
    # tokens, tags and treebank leaves are split on whitespace
    pytest.param("S -> 'a b' ;\n", "quoted terminal 'a b' contains whitespace", 1, 6,
                 id="space-in-terminal"),
    pytest.param("S -> 'a\\ b' ;\n", "quoted terminal 'a b' contains whitespace", 1, 6,
                 id="escaped-space-in-terminal"),
    pytest.param("%start S\nS -> 'a' 'b\nc' ;\n", "quoted terminal 'b\\nc' contains whitespace",
                 2, 10, id="newline-in-terminal"),
    # no token, tag or treebank leaf is empty
    pytest.param("S -> '' ;\nS -> 'a' ;\n", "quoted terminal is empty", 1, 6,
                 id="empty-terminal"),
    pytest.param("%start S\nS -> 'a' '' ;\n", "quoted terminal is empty", 2, 10,
                 id="empty-terminal-after-daughter"),
]


@pytest.mark.parametrize("text, message, line, col", GRAMMAR_ERRORS)
def test_grammar_error_message_and_position(text, message, line, col):
    with pytest.raises(GrammarError) as exc:
        parse_grammar_file(text)
    where = "line %d, col %d: " % (line, col) if line else ""
    assert (str(exc.value), exc.value.line, exc.value.col) == (where + message, line, col)


@pytest.mark.parametrize("text, ids", [
    ("S -> 'a' ;\nr1: S -> 'b' ;\n", ["r2", "r1"]),
    ("r2: S -> 'a' ;\nS -> 'b' ;\nS -> 'c' ;\n", ["r2", "r1", "r3"]),
    ("S -> 'a' ;\nx: S -> 'b' ;\nS -> 'c' ;\n", ["r1", "x", "r2"]),
])
def test_unnamed_rules_are_numbered_around_named_ids(text, ids):
    assert [r.id for r in parse_grammar_file(text).rules] == ids


def test_directives_open_their_line_and_take_raw_arguments():
    text = "S -> A ;\n  %terminals NN1 , ( # not a rule\n\t%textual\nA[t=x] -> NN1 ;\n"
    g = parse_grammar_file(text)
    assert g.terminals == {"NN1", ",", "("}
    assert [r.textual for r in g.rules] == [False, True]


def test_rule_variables_are_shared_within_a_rule_only():
    g = parse_grammar_file("S[a=?X, b=?Y] -> T[c=?Y] T[c=?X] ;\nT[c=?X] -> 'a' ;\n")
    s, t = g.rules
    (_, x), (_, y) = s.mother.features
    assert [x.name, y.name] == ["X", "Y"] and x.uid + 1 == y.uid
    assert s.daughters[0].cat.features == (("c", y),)
    assert s.daughters[1].cat.features == (("c", x),)
    (_, tx), = t.mother.features
    assert tx.name == "X" and tx != x


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
    return canonical_residue(features) if features is not None else None


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


def same_up_to_renaming(a, b) -> bool:
    """Whether one bijection between variables, names ignored, turns feature
    tuple a into b."""
    if [f for f, _ in a] != [f for f, _ in b]:
        return False
    forward, backward = {}, {}
    for (_, x), (_, y) in zip(a, b):
        if not isinstance(x, Var) or not isinstance(y, Var):
            if x != y:
                return False
        elif forward.setdefault(x, y) != y or backward.setdefault(y, x) != x:
            return False
    return True


@settings(derandomize=True, database=None)
@given(feature_maps(), feature_maps(), st.sampled_from(["other", "renamed", "merged"]))
def test_canonical_residue_is_equality_up_to_renaming(a, other, how):
    """The canonical form is idempotent, unchanged by rename_features, and
    shared by two residues exactly when they are equal up to renaming
    variables, names ignored: the equality that packs forest nodes."""
    variables = {v for _, v in a if isinstance(v, Var)}
    if how == "renamed":  # new names too
        b = rename_features(a, {v: Var("W%d" % v.uid) for v in variables})
    elif how == "merged":  # every variable made one
        b = rename_features(a, dict.fromkeys(variables, Var("W")))
    else:
        b = other
    canonical = canonical_residue(a)
    assert canonical_residue(canonical) == canonical
    assert canonical_residue(rename_features(a)) == canonical
    assert (canonical_residue(b) == canonical) == same_up_to_renaming(a, b)
    assert [f for f, _ in canonical] == [f for f, _ in a]


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
