import ast
import random

from conftest import FIXTURES, compile_fixture, unit_chain_grammar
from punclr.grammar import (
    END_MARKER,
    GrammarError,
    compile_grammar,
    least_closed,
    nullable_symbols,
    parse_grammar_file,
)
from punclr.lalr import ACCEPT, REDUCE, SHIFT, _first_sets, build_lalr
from oracles import (
    deriving_by_sweeps,
    first_sets_by_sweeps,
    lalr_by_core_merge,
    language_of_backbone,
    on_cycle,
    unchecked_backbone,
    unit_cycle_by_colour_dfs,
    unit_edges,
)


def table_for(text):
    backbone, residues = compile_grammar(parse_grammar_file(text))
    return build_lalr(backbone), backbone, residues


def simulate_accepts(table, string):
    """Brute-force recognizer following every conflict branch on plain
    linear stacks; independent of the production GLR machinery."""

    def closure(stacks, lookahead):
        out = []
        work = list(stacks)
        seen = set(work)
        while work:
            stack = work.pop()
            for action in table.actions.get((stack[-1], lookahead), frozenset()):
                if action.kind == REDUCE:
                    prod = table.productions[action.arg]
                    base = stack[: len(stack) - len(prod.rhs)]
                    target = table.gotos.get((base[-1], prod.lhs))
                    if target is None:
                        continue
                    new = base + (target,)
                    if new not in seen:
                        seen.add(new)
                        work.append(new)
                        out.append(new)
        return list(stacks) + out

    stacks = [(table.start_state,)]
    for sym in string:
        stacks = closure(stacks, sym)
        next_stacks = set()
        for stack in stacks:
            for action in table.actions.get((stack[-1], sym), frozenset()):
                if action.kind == SHIFT:
                    next_stacks.add(stack + (action.arg,))
        stacks = list(next_stacks)
        if not stacks:
            return False
    stacks = closure(stacks, END_MARKER)
    return any(
        any(a.kind == ACCEPT for a in table.actions.get((stack[-1], END_MARKER), frozenset()))
        for stack in stacks
    )


def enumerate_accepted(table, terminals, max_len):
    """Every string up to max_len the table accepts, by exploring viable
    prefixes only."""
    out = set()
    alphabet = sorted(terminals)

    def rec(prefix):
        if simulate_accepts(table, prefix):
            out.add(tuple(prefix))
        if len(prefix) == max_len:
            return
        for t in alphabet:
            candidate = prefix + [t]
            if _viable(table, candidate):
                rec(candidate)

    def _viable(table, string):
        def closure(stacks, lookahead):
            work = list(stacks)
            seen = set(work)
            while work:
                stack = work.pop()
                for action in table.actions.get((stack[-1], lookahead), frozenset()):
                    if action.kind == REDUCE:
                        prod = table.productions[action.arg]
                        base = stack[: len(stack) - len(prod.rhs)]
                        target = table.gotos.get((base[-1], prod.lhs))
                        if target is None:
                            continue
                        new = base + (target,)
                        if new not in seen:
                            seen.add(new)
                            work.append(new)
            return seen

        stacks = {(table.start_state,)}
        for sym in string:
            stacks = closure(stacks, sym)
            stacks = {
                s + (a.arg,)
                for s in stacks
                for a in table.actions.get((s[-1], sym), frozenset())
                if a.kind == SHIFT
            }
            if not stacks:
                return False
        return True

    rec([])
    return out


def test_single_terminal_grammar():
    table, backbone, _ = table_for("%start S\nS -> 'a' ;\n")
    assert simulate_accepts(table, ["a"])
    assert not simulate_accepts(table, [])
    assert not simulate_accepts(table, ["a", "a"])
    assert not simulate_accepts(table, ["b"])


EXPR = "%start E\nE -> E '+' T ;\nE -> T ;\nT -> 'id' ;\n"


def test_expression_grammar_deterministic():
    table, backbone, _ = table_for(EXPR)
    for key, acts in table.actions.items():
        assert len(acts) == 1, (key, acts)
    assert simulate_accepts(table, "id + id + id".split())
    assert not simulate_accepts(table, "+ id".split())
    # cross-check membership against brute-force generation
    lang = language_of_backbone(backbone, 5)
    for n in range(6):
        import itertools

        for s in itertools.product(["id", "+"], repeat=n):
            assert simulate_accepts(table, list(s)) == (s in lang), s


def test_reduce_reduce_conflict_retained():
    table, _, _ = table_for("%start S\nS -> A ;\nS -> B ;\nA -> 'a' ;\nB -> 'a' ;\n")
    # the state reached by shifting 'a' holds two reduces on the end marker
    shift_state = next(
        a.arg
        for (state, label), acts in table.actions.items()
        if state == 0 and label == "a"
        for a in acts
        if a.kind == SHIFT
    )
    acts = table.actions.get((shift_state, END_MARKER), frozenset())
    assert len(acts) == 2
    assert all(a.kind == REDUCE for a in acts)


def test_lookup_unknown_label_is_empty():
    table, _, _ = table_for("%start S\nS -> 'a' ;\n")
    assert table.actions.get((0, "a"), frozenset()) != frozenset()
    assert table.actions.get((0, "zz"), frozenset()) == frozenset()


def test_ambiguous_grammar_language_exact():
    table, backbone, _ = table_for("%start X\nX -> X X ;\nX -> 'a' ;\n")
    accepted = enumerate_accepted(table, backbone.terminals, 8)
    generated = language_of_backbone(backbone, 8)
    assert accepted == generated
    assert ("a",) in accepted and ("a", "a", "a") in accepted


def test_nullable_grammar_language_exact():
    text = "%start X1\n%terminals X0 Arg\nX1 -> X0 Arg* ;\n"
    table, backbone, _ = table_for(text)
    accepted = enumerate_accepted(table, backbone.terminals, 6)
    generated = language_of_backbone(backbone, 6)
    assert accepted == generated
    assert ("X0",) in accepted


def test_construction_deterministic():
    t1, _, _ = table_for(EXPR)
    t2, _, _ = table_for(EXPR)
    assert t1.actions == t2.actions
    assert t1.gotos == t2.gotos
    assert t1.table_hash() == t2.table_hash()


def test_action_count_counts_all_actions():
    table, _, _ = table_for("%start S\nS -> A ;\nS -> B ;\nA -> 'a' ;\nB -> 'a' ;\n")
    assert table.action_count == sum(len(v) for v in table.actions.values())
    assert table.action_count >= table.n_states - 1


def random_grammar_text(rng, size=None):
    """A random grammar with Kleene marks: by default a small one over two to
    four of S A B C and 'a' 'b', with 1-3 daughters a rule; with size, one
    over size nonterminals S N1 N2 ... and five terminals, with 1-4."""
    if size is None:
        nonterminals, terminals, most = ["S", "A", "B", "C"][: rng.randint(2, 4)], "ab", 3
    else:
        nonterminals = ["S"] + ["N%d" % i for i in range(1, size)]
        terminals, most = "abcde", 4
    symbols = nonterminals + ["'%s'" % t for t in terminals]
    lines = ["%start S"]
    for lhs in nonterminals:
        for _ in range(rng.randint(1, 3)):
            daughters = [
                rng.choice(symbols) + rng.choice(["", "", "", "", "*", "+"])
                for _ in range(rng.randint(1, most))
            ]
            lines.append("%s -> %s ;" % (lhs, " ".join(daughters)))
    return "\n".join(lines) + "\n"


def aligned_states(table, start, transitions):
    """Pair each table state with an oracle core by walking both automata
    from their start states; every shift and goto must match a transition."""
    pairs = {table.start_state: start}
    work = [table.start_state]
    while work:
        state = work.pop()
        moves = {sym: target for (s, sym), target in table.gotos.items() if s == state}
        for (s, label), acts in table.actions.items():
            for a in acts:
                if s == state and a.kind == SHIFT:
                    moves[label] = a.arg
        expected = {sym: t for (c, sym), t in transitions.items() if c == pairs[state]}
        assert set(moves) == set(expected)
        for sym, target in moves.items():
            if target not in pairs:
                pairs[target] = expected[sym]
                work.append(target)
            assert pairs[target] == expected[sym]
    assert len(pairs) == table.n_states == len(set(pairs.values()))
    return pairs


def finished_actions(table, state):
    out = {}
    for (s, label), acts in table.actions.items():
        for a in acts:
            if s == state and a.kind != SHIFT:
                out.setdefault(label, set()).add((a.kind, a.arg))
    return out


def assert_reduces_equal_core_merge(table, backbone):
    start, transitions, finals = lalr_by_core_merge(backbone)
    for state, core in aligned_states(table, start, transitions).items():
        assert finished_actions(table, state) == finals.get(core, {})


def compiled_random_backbones(rng, count, size=None):
    """The backbones of the first count random grammars that compile."""
    while count:
        try:
            backbone, _ = compile_grammar(parse_grammar_file(random_grammar_text(rng, size)))
        except GrammarError:
            continue  # undefined symbols, unit cycles or unproductive rules
        yield backbone
        count -= 1


def test_reduces_equal_canonical_lr1_core_merge_on_random_grammars():
    with_empty = with_rr_conflict = 0
    for backbone in compiled_random_backbones(random.Random(20261018), 500):
        table = build_lalr(backbone)
        assert_reduces_equal_core_merge(table, backbone)
        with_empty += any(not p.rhs for p in backbone.productions)
        with_rr_conflict += any(
            sum(a.kind == REDUCE for a in acts) > 1 for acts in table.actions.values()
        )
    assert with_empty >= 250 and with_rr_conflict >= 150, (with_empty, with_rr_conflict)
    # larger ones: eight nonterminals over five terminals
    for backbone in compiled_random_backbones(random.Random(8), 10, size=8):
        assert_reduces_equal_core_merge(build_lalr(backbone), backbone)


def test_fixture_tables_equal_canonical_lr1_core_merge():
    for path in sorted(FIXTURES.glob("*.gr")):
        _, backbone, _, table = compile_fixture(path.name)
        start, transitions, finals = lalr_by_core_merge(backbone)
        for state, core in aligned_states(table, start, transitions).items():
            assert finished_actions(table, state) == finals.get(core, {}), path.name


def analyses_verdict(grammar):
    """Check nullable, productive and FIRST sets and the unit-cycle verdict
    against the production sweeps and the colour DFS; return why compiling
    grammar fails ("cyclic" or "unproductive"), or None when it compiles."""
    backbone = unchecked_backbone(grammar)
    nullable = deriving_by_sweeps(backbone, ())
    productive = deriving_by_sweeps(backbone, backbone.terminals)
    assert nullable_symbols(backbone) == nullable
    clauses = [(p.lhs, p.rhs) for p in backbone.productions]
    assert least_closed(clauses, backbone.terminals) == productive
    assert _first_sets(backbone, nullable) == first_sets_by_sweeps(backbone, nullable)
    edges = unit_edges(backbone, nullable)
    try:
        compile_grammar(grammar)
    except GrammarError as exc:
        message = str(exc)
    else:
        message = None
    if unit_cycle_by_colour_dfs(edges) is not None:
        prefix = "grammar is infinitely ambiguous: cyclic unit derivation through "
        assert (message or "").startswith(prefix), message
        assert on_cycle(edges, ast.literal_eval(message[len(prefix):]))
        return "cyclic"
    unproductive = {p.lhs for p in backbone.productions} - productive
    if unproductive:
        assert message == "nonterminals that derive no terminal string: " + ", ".join(
            repr(n) for n in sorted(unproductive))
        return "unproductive"
    assert message is None
    return None


def test_grammar_analyses_equal_sweeps_on_fixtures():
    for path in sorted(FIXTURES.glob("*.gr")):
        grammar, _, _, _ = compile_fixture(path.name)
        assert analyses_verdict(grammar) is None, path.name


def test_grammar_analyses_equal_sweeps_on_random_grammars():
    # the grammar stream of the core-merge test above: the first 500 that
    # compile are the ones it checks
    rng = random.Random(20261018)
    verdicts = {None: 0, "cyclic": 0, "unproductive": 0}
    while verdicts[None] < 500:
        try:
            grammar = parse_grammar_file(random_grammar_text(rng))
        except GrammarError:
            continue  # undefined symbols
        verdicts[analyses_verdict(grammar)] += 1
    assert verdicts["cyclic"] >= 1000 and verdicts["unproductive"] >= 300, verdicts


def test_grammar_analyses_equal_sweeps_on_long_chains():
    assert analyses_verdict(parse_grammar_file(unit_chain_grammar(1500))) is None
    assert analyses_verdict(parse_grammar_file(unit_chain_grammar(1500, cyclic=True))) == "cyclic"


# ---------------------------------------------------------------------------
# the parser's rows: the same cells as table.actions, precomputed

def assert_rows_match_actions(table):
    """rows holds every action of table.actions once, each list in sorted
    order, empty reduces apart from the rest, every reduce with its
    production's arity and lhs and the lhs's gotos, and every transition the
    cell's (state, label, Action)."""
    cells = 0
    for label, row in table.rows.items():
        for state, (empties, others, shifts, accept) in row.items():
            cells += 1
            acts = sorted(table.actions[(state, label)])
            reduces = [a for a in acts if a.kind == REDUCE]
            assert [e[3][2] for e in empties] == [
                a for a in reduces if not table.productions[a.arg].rhs]
            assert [e[3][2] for e in others] == [
                a for a in reduces if table.productions[a.arg].rhs]
            for index, arity, lhs, transition, goto_row in empties + others:
                prod = table.productions[index]
                assert transition == (state, label, transition[2])
                assert (index, arity, lhs) == (transition[2].arg, len(prod.rhs), prod.lhs)
                assert goto_row == {s: t for (s, sym), t in table.gotos.items() if sym == lhs}
            assert [t for t, _ in shifts] == [a.arg for a in acts if a.kind == SHIFT]
            assert [tr for _, tr in shifts] == [(state, label, a) for a in acts
                                                if a.kind == SHIFT]
            assert [accept] == (
                [(state, label, a) for a in acts if a.kind == ACCEPT] or [None])
    assert cells == len(table.actions)


def test_rows_hold_every_action_once_on_fixture_tables():
    for path in sorted(FIXTURES.glob("*.gr")):
        _, _, _, table = compile_fixture(path.name)
        assert_rows_match_actions(table)


def test_rows_on_random_grammars():
    rng = random.Random(11)
    for _ in range(100):
        try:
            table, _, _ = table_for(random_grammar_text(rng))
        except GrammarError:
            continue
        assert_rows_match_actions(table)
