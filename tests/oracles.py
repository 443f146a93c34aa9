"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive: bounded-length language generation by
fixpoint iteration, and chart-style derivation enumeration with explicit
feature checking.  These never touch the LR table or the forest code, so they
can stand as a second route for the properties the suite checks.
"""
from __future__ import annotations

import itertools
import math

from punclr.grammar import (
    ONE,
    STAR,
    Bindings,
    CFBackbone,
    Production,
    expand_kleene,
    rename_features,
    residue_signature,
    resolve_features,
    unify,
)


def language_of_grammar(grammar, max_len):
    """All terminal strings of length <= max_len the grammar derives,
    with feature residues checked (Kleene marks interpreted directly)."""
    entries = {}  # symbol -> set of (string, residue signature)
    with_res = {}  # symbol -> list of (string, residue features)

    def add(sym, string, residue):
        key = (string, residue_signature(residue))
        bucket = entries.setdefault(sym, set())
        if key in bucket:
            return False
        bucket.add(key)
        with_res.setdefault(sym, []).append((string, residue))
        return True

    for t in grammar.terminals:
        add(t, (t,), ())

    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            for combo in _daughter_combos(rule.daughters, with_res, max_len):
                bindings = Bindings()
                mapping = {}
                ok = True
                parts = []
                for spec, (string, residue) in combo:
                    spec_feats = rename_features(spec.features, mapping)
                    child = rename_features(residue)
                    if unify(spec_feats, child, bindings) is None:
                        ok = False
                        break
                    parts.append(string)
                if not ok:
                    continue
                mother = resolve_features(
                    rename_features(rule.mother.features, mapping), bindings
                )
                string = tuple(itertools.chain.from_iterable(parts))
                if add(rule.mother.name, string, mother):
                    changed = True

    out = set()
    for string, _ in entries.get(grammar.start, ()):
        out.add(string)
    return out


def _daughter_combos(daughters, with_res, max_len):
    """Yield tuples of (daughter spec, (string, residue)) per slot, with
    Kleene marks expanded to explicit repetitions, total length bounded.
    Picks accumulate one at a time so over-length partials prune early."""

    def repetitions(options, used, lo):
        """Sequences of >= lo picks whose total length fits the budget.
        Pick count is capped at budget + 2: beyond that only zero-width
        repetitions remain, which add nothing new."""
        budget = max_len - used
        out = [()] if lo == 0 else []
        frontier = [((), 0)]
        while frontier:
            nxt = []
            for seq, length in frontier:
                if len(seq) >= budget + 2:
                    continue
                for pick in options:
                    l2 = length + len(pick[0])
                    if l2 > budget:
                        continue
                    s2 = seq + (pick,)
                    nxt.append((s2, l2))
                    if len(s2) >= lo:
                        out.append(s2)
            frontier = nxt
        return out

    def rec(idx, used):
        if idx == len(daughters):
            yield ()
            return
        d = daughters[idx]
        options = with_res.get(d.cat.name, [])
        if d.rep == ONE:
            seqs = [(p,) for p in options if used + len(p[0]) <= max_len]
        elif d.rep == STAR:
            seqs = repetitions(options, used, 0)
        else:
            seqs = repetitions(options, used, 1)
        for picks in seqs:
            length = sum(len(s) for s, _ in picks)
            for rest in rec(idx + 1, used + length):
                yield tuple((d.cat, p) for p in picks) + rest

    yield from rec(0, 0)


def language_of_backbone(backbone, max_len):
    """All terminal strings of length <= max_len, features ignored.

    Stratified by length: the layer for length L is closed by fixpoint
    (unit productions and nullables) while shorter layers stay fixed."""
    symbols = backbone.nonterminals() | set(backbone.terminals)
    by_len = {sym: {l: set() for l in range(max_len + 1)} for sym in symbols}
    for t in backbone.terminals:
        if max_len >= 1:
            by_len[t][1].add((t,))

    def compositions(total, k):
        if k == 0:
            return [()] if total == 0 else []
        if k == 1:
            return [(total,)]
        out = []
        for first in range(total + 1):
            for rest in compositions(total - first, k - 1):
                out.append((first,) + rest)
        return out

    for length in range(0, max_len + 1):
        changed = True
        while changed:
            changed = False
            for p in backbone.productions:
                bucket = by_len[p.lhs][length]
                for parts in compositions(length, len(p.rhs)):
                    sets = [by_len[p.rhs[k]][parts[k]] for k in range(len(p.rhs))]
                    if any(not s for s in sets):
                        continue
                    for combo in itertools.product(*sets):
                        s = tuple(itertools.chain.from_iterable(combo))
                        if s not in bucket:
                            bucket.add(s)
                            changed = True
    out = set()
    for l in range(max_len + 1):
        out |= by_len[backbone.start][l]
    return out


def enumerate_derivations(backbone, residues, lattice):
    """Chart-enumerate every derivation over a token lattice.

    lattice: list of lists of labels (the hypotheses per position).
    Returns a list of derivation trees; a tree is (production index,
    residue features, child trees) and a leaf is ('leaf', position, label).
    Feature residues are checked exactly as the rule specs demand.

    Spans are filled in increasing length; within one span a fixpoint loop
    handles unit productions and nullable symbols (entries whose children
    live in the same cell row).  Each entry is one concrete derivation;
    combinations are deduplicated by (production, child entry identities),
    so the loop terminates exactly when no new derivation exists.
    """
    n = len(lattice)
    by_lhs = {}
    for p in backbone.productions:
        by_lhs.setdefault(p.lhs, []).append(p)
    cells: dict = {}  # (sym, i, j) -> list of [tree, residue] entries
    seen_combos: set = set()

    def cell(sym, i, j):
        return cells.setdefault((sym, i, j), [])

    for i in range(n):
        for label in lattice[i]:
            cell(label, i, i + 1).append((("leaf", i, label), ()))

    for length in range(0, n + 1):
        for i in range(0, n - length + 1):
            j = i + length
            changed = True
            while changed:
                changed = False
                for p in backbone.productions:
                    spec = residues[p.index]
                    for split in _splits(len(p.rhs), i, j):
                        child_lists = [
                            cell(p.rhs[k], split[k], split[k + 1])
                            for k in range(len(p.rhs))
                        ]
                        if any(not lst for lst in child_lists):
                            continue
                        for children in itertools.product(*child_lists):
                            combo = (p.index, i, j, tuple(id(c) for c in children))
                            if combo in seen_combos:
                                continue
                            seen_combos.add(combo)
                            bindings = Bindings()
                            mapping = {}
                            ok = True
                            for k, (tree, residue) in enumerate(children):
                                spec_feats = rename_features(
                                    spec.daughters[k].features, mapping
                                )
                                child_feats = rename_features(residue)
                                if unify(spec_feats, child_feats, bindings) is None:
                                    ok = False
                                    break
                            if not ok:
                                continue
                            mother = resolve_features(
                                rename_features(spec.mother.features, mapping), bindings
                            )
                            tree = (p.index, mother, tuple(t for t, _ in children))
                            cell(p.lhs, i, j).append((tree, mother))
                            changed = True

    return [t for t, _ in cell(backbone.start, 0, n)]


def _splits(arity, i, j):
    """All ways to cut [i, j) into `arity` contiguous (possibly empty) spans."""
    if arity == 0:
        return [(i,)] if i == j else []
    out = []
    for cuts in itertools.combinations_with_replacement(range(i, j + 1), arity - 1):
        out.append((i,) + cuts + (j,))
    return out


def count_derivations(backbone, residues, lattice, skeleton=()):
    """How many derivations enumerate_derivations finds, less those with a
    constituent that crosses a (start, end) bracket of skeleton."""
    return sum(
        not any(i < a < j < b or a < i < b < j
                for i, j in tree_spans(tree)[0] for a, b in skeleton)
        for tree in enumerate_derivations(backbone, residues, lattice)
    )


def automaton_language(table, max_len):
    """Every string of length <= max_len the LALR table accepts when all
    conflict branches are followed, by incremental exploration of viable
    prefixes over plain linear stacks (no graph-structured sharing)."""
    from punclr.grammar import END_MARKER
    from punclr.lalr import ACCEPT, REDUCE, SHIFT

    terminals = sorted(
        {label for (_, label) in table.actions if label != END_MARKER}
    )

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

    out = set()

    def explore(prefix, stacks):
        final = closure(stacks, END_MARKER)
        if any(
            a.kind == ACCEPT
            for s in final
            for a in table.actions.get((s[-1], END_MARKER), frozenset())
        ):
            out.add(prefix)
        if len(prefix) == max_len:
            return
        for t in terminals:
            shifted = {
                s + (a.arg,)
                for s in closure(stacks, t)
                for a in table.actions.get((s[-1], t), frozenset())
                if a.kind == SHIFT
            }
            if shifted:
                explore(prefix + (t,), frozenset(shifted))

    explore((), frozenset({(table.start_state,)}))
    return out


def lalr_by_core_merge(backbone, end_marker="$end"):
    """The LALR(1) automaton the textbook way, sharing no code with
    punclr.lalr: build the canonical LR(1) collection, whose items carry one
    lookahead each, then merge the states with equal cores (item sets
    without lookaheads).

    Returns (start core, {(core, symbol): core}, {core: {lookahead: set of
    ("reduce", production index) or ("accept", -1)}}).  Production indices
    are the backbone's; the augmented production $accept -> start comes
    last.
    """
    prods = [(p.lhs, p.rhs) for p in backbone.productions]
    accept = len(prods)
    prods.append(("$accept", (backbone.start,)))
    nonterminals = {lhs for lhs, _ in prods}

    nullable = set()
    first = {}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in prods:
            out = first.setdefault(lhs, set())
            size = len(out)
            for sym in rhs:
                out |= first.get(sym, set()) if sym in nonterminals else {sym}
                if sym not in nullable:
                    break
            else:
                if lhs not in nullable:
                    nullable.add(lhs)
                    changed = True
            changed |= len(out) != size

    def first_of(seq, la):
        out = set()
        for sym in seq:
            out |= first.get(sym, set()) if sym in nonterminals else {sym}
            if sym not in nullable:
                return out
        return out | {la}

    def closure(items):
        items = set(items)
        work = list(items)
        while work:
            prod, dot, la = work.pop()
            rhs = prods[prod][1]
            if dot < len(rhs) and rhs[dot] in nonterminals:
                for b in first_of(rhs[dot + 1 :], la):
                    for q, (lhs, _) in enumerate(prods):
                        if lhs == rhs[dot] and (q, 0, b) not in items:
                            items.add((q, 0, b))
                            work.append((q, 0, b))
        return frozenset(items)

    def core(state):
        return frozenset((prod, dot) for prod, dot, _ in state)

    start = closure({(accept, 0, end_marker)})
    states = {start}
    work = [start]
    transitions = {}
    finals = {}
    while work:
        state = work.pop()
        moves = {}
        for prod, dot, la in state:
            rhs = prods[prod][1]
            if dot < len(rhs):
                moves.setdefault(rhs[dot], set()).add((prod, dot + 1, la))
            else:
                action = ("accept", -1) if prod == accept else ("reduce", prod)
                finals.setdefault(core(state), {}).setdefault(la, set()).add(action)
        for sym, kernel in moves.items():
            target = closure(kernel)
            transitions[(core(state), sym)] = core(target)
            if target not in states:
                states.add(target)
                work.append(target)
    return core(start), transitions, finals


def unchecked_backbone(grammar):
    """The backbone compile_backbone builds from grammar after Kleene
    expansion, without its unit-cycle and productivity checks."""
    rules = expand_kleene(grammar).rules
    productions = tuple(
        Production(i, r.mother.name, tuple(d.cat.name for d in r.daughters), r.id)
        for i, r in enumerate(rules)
    )
    return CFBackbone(productions, grammar.terminals, grammar.start)


def deriving_by_sweeps(backbone, seed):
    """The symbols that derive some string over seed: sweep every production
    until a sweep adds no left-hand side."""
    out = set(seed)
    changed = True
    while changed:
        changed = False
        for p in backbone.productions:
            if p.lhs not in out and all(s in out for s in p.rhs):
                out.add(p.lhs)
                changed = True
    return out


def first_sets_by_sweeps(backbone, nullable):
    """FIRST of every terminal and nonterminal: sweep every production
    until no set grows."""
    first = {t: {t} for t in backbone.terminals}
    for p in backbone.productions:
        first.setdefault(p.lhs, set())
    changed = True
    while changed:
        changed = False
        for p in backbone.productions:
            target = first[p.lhs]
            before = len(target)
            for sym in p.rhs:
                target |= first.get(sym, set())
                if sym not in nullable:
                    break
            changed |= len(target) != before
    return first


def unit_edges(backbone, nullable):
    """The unit-derivation graph: lhs -> each right-hand-side nonterminal
    whose siblings are all nullable."""
    nonterminals = {p.lhs for p in backbone.productions}
    edges = {n: set() for n in nonterminals}
    for p in backbone.productions:
        for i, s in enumerate(p.rhs):
            if s in nonterminals and all(x in nullable for j, x in enumerate(p.rhs) if j != i):
                edges[p.lhs].add(s)
    return edges


def unit_cycle_by_colour_dfs(edges):
    """A symbol on a cycle of edges, or None when there is none: an iterative
    depth-first search that stops at the first grey (open) successor.  Which
    symbol it finds depends on set order."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {n: WHITE for n in edges}
    for root in list(colour):
        if colour[root] != WHITE:
            continue
        colour[root] = GREY
        stack = [(root, iter(edges[root]))]
        while stack:
            n, successors = stack[-1]
            for m in successors:
                if colour[m] == GREY:
                    return m
                if colour[m] == WHITE:
                    colour[m] = GREY
                    stack.append((m, iter(edges[m])))
                    break
            else:
                colour[n] = BLACK
                stack.pop()
    return None


def on_cycle(edges, symbol):
    """Whether symbol reaches itself along edges."""
    seen, work = set(), list(edges[symbol])
    while work:
        n = work.pop()
        if n == symbol:
            return True
        if n not in seen:
            seen.add(n)
            work.extend(edges[n])
    return False


def tree_spans(tree, pos=0):
    """Spans of every internal node of an oracle tree, leftmost-outward."""
    if tree[0] == "leaf":
        return [], pos + 1
    _, _, children = tree
    spans = []
    end = pos
    child_spans = []
    for c in children:
        s, end = tree_spans(c, end)
        child_spans.extend(s)
    spans.append((pos, end))
    spans.extend(child_spans)
    return spans, end


def flat_signature(nested):
    """The flat preorder of a nested derivation signature, as
    RankedAnalysis.signature holds it, (("p", production), child's, ...) or
    (("t", label),): each node's head, then its children's preorders left to
    right, as derivation_signature gives it.  Iterative, so signatures nested
    past the recursion limit flatten too."""
    out = []
    todo = [nested]
    while todo:
        node = todo.pop()
        out.append(node[0])
        todo.extend(node[:0:-1])
    return tuple(out)


def derivation_signature(deriv):
    """The preorder of production ids and leaf labels of a glr derivation,
    nested as (node, bundle index, children) with bundle index None on a
    leaf: unique per derivation and totally ordered, the order rank_nbest
    breaks ties in.  Iterative, so derivations nested past the recursion
    limit give one too."""
    out = []
    todo = [deriv]
    while todo:
        node, bi, children = todo.pop()
        out.append(("t", node.label) if bi is None else ("p", node.bundles[bi][0]))
        todo.extend(reversed(children))
    return tuple(out)


def score_derivation(transitions, model):
    """Sum of log transition probabilities along one parse history, in
    sequence: the canonical score rank_nbest's rescoring is tested against."""
    return sum(math.log(model.prob(s, l, a)) for s, l, a in transitions)


def leaf_likelihood_sum(deriv):
    """Sum of the log tag likelihoods on a glr derivation's leaves, by
    recursion: a leaf's log likelihood, or a node's children's sums added
    left to right to 0."""
    node, bi, children = deriv
    if bi is None:
        return math.log(node.likelihood)
    total = 0
    for child in children:
        total += leaf_likelihood_sum(child)
    return total


def children_first(root):
    """Key -> node for the forest nodes reachable from root, in post-order,
    by the walk that ran on forest keys: a stack of keys still to visit and
    a dict of the keys placed, where each node, once entered, waits beneath
    its unplaced children until they are placed.  Bundles hold child nodes,
    so the key -> node table fills from them as the walk meets them; a key
    met on two different node objects fails an assertion."""
    nodes = {root.key: root}
    order = {}
    stack = [root.key]
    while stack:
        item = stack.pop()
        if type(item) is not tuple:
            order[item.key] = item
        elif item not in order:
            node = nodes[item]
            if not hasattr(node, "bundles"):  # a leaf
                order[item] = node
                continue
            stack.append(node)
            pending = []
            for _, children, _ in node.bundles:
                for c in children:
                    assert nodes.setdefault(c.key, c) is c, c.key
                    if c.key not in order:
                        pending.append(c.key)
            pending.reverse()
            stack.extend(pending)
    return order
