"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive: bounded-length language generation by
fixpoint iteration, and chart-style derivation enumeration with explicit
feature checking.  These never touch the LR table or the forest code, so they
can stand as a second route for the properties the suite checks.
eager_rank_nbest is the exception: the forest ranking that rank_nbest
replaced, kept unchanged so that the two can be compared row for row.
"""
from __future__ import annotations

import heapq
import itertools
import math
import time

from punclr.grammar import (
    ONE,
    STAR,
    Bindings,
    CFBackbone,
    Production,
    canonical_residue,
    expand_kleene,
    rename_features,
    resolve_features,
    unify,
)
from punclr.glr import CLOCK_EVERY, ForestLeaf, derivation_postorder
from punclr.lalr import ModelError
from punclr.model import (RankTimeout, _analyses, _leaf_likelihood_sum, _preorder,
                          _Signature)


def language_of_grammar(grammar, max_len):
    """All terminal strings of length <= max_len the grammar derives,
    with feature residues checked (Kleene marks interpreted directly)."""
    entries = {}  # symbol -> set of (string, residue signature)
    with_res = {}  # symbol -> list of (string, residue features)

    def add(sym, string, residue):
        key = (string, canonical_residue(residue))
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


def eager_rank_nbest(
    forest: ParseForest,
    model: ProbModel,
    n: int,
    include_tag_likelihoods: bool = False,
    budget: Optional[float] = None,
) -> list:
    """punclr.model.rank_nbest as it stood before best entries were built on
    demand, kept unchanged as the reference the lazy one is tested against:
    every node's best entry is built before any pull, and a candidate goes
    on its heap with its _Signature and derivation.

    The n most probable analyses, exactly.

    Packing keys include state, residue, and pending lookahead, so the score
    of a subderivation is context-free within the forest and a lazy k-best
    over the bundle DAG is exact.  Root entries are pulled one at a time, at
    most 2n+16, each re-scored on arrival along its canonical transition
    sequence (the post-order sum()); the answer is their top n by that
    score, ties broken on the lexicographic derivation signature.

    Pulling stops early once no later root entry can place.  Every term is
    a log probability, at most 0, so any float sum of K terms lies within
    gamma |S| of their exact sum S, gamma = K u / (1 - K u), u = 2^-53
    (Higham 1993): an entry's bottom-up and canonical scores both do.  Root
    entries come in non-increasing bottom-up score, float addition being
    monotone.  So once the next one's bottom-up score b has b (1 - gamma) /
    (1 + gamma) below c, the n-th best canonical score so far, every later
    entry scores below c, too low to reach the signature tie-break.  On
    near-ties the rule does not fire and the 2n+16 cap applies as before.

    A score pass, children first, first keeps each node's best bottom-up
    score and the bundles that reach it.  For n = 1 the rule is then tried
    before any entry past a node's best is built.  A preorder walk down
    the best derivation stops at the first node whose bundles tie, where
    the rule cannot fire.  Without a tie, the walk's nodes get their best
    entries and, children first, second best scores summed as lazy next
    would sum them; root entry 0 is rescored, and when the rule fires it
    is the answer.  Otherwise, and for n > 1, every node's best entry is
    built in one loop and root entries are pulled.

    budget, when given, is the CPU time in seconds ranking may take; past it
    RankTimeout is raised.
    """
    t0 = time.process_time()
    if n < 1:
        raise ValueError("n must be positive")
    if model.table_hash and model.table_hash != forest.table_hash:
        raise ModelError(
            "model trained against table %s but forest built with %s"
            % (model.table_hash, forest.table_hash)
        )

    def check_budget():
        if budget is not None and time.process_time() - t0 > budget:
            raise RankTimeout("budget exhausted")

    log_probs: dict = {}  # transition -> log probability, each computed once
    # per node: its best bottom-up score and the indices of the bundles
    # that reach it
    best: dict = {}
    ties: dict = {}
    # per node: the entries ranked so far as (score, nested signature,
    # bundle index, child ranks, derivation); from the first time a second
    # entry is wanted, also the candidate heap of the same tuples with the
    # score negated and the signature a _Signature, and the (bundle, ranks)
    # pairs ever pushed.  All are keyed on the node objects.
    lists: dict = {}
    heaps: dict = {}
    pushed: dict = {}
    exhausted: set = set()  # nodes with no further entries

    # the score pass.  A bundle's score is its own log probability, then
    # each child's best score, added in that order, as push adds them
    clock = 1  # steps left until the next clock read
    for node in forest.nodes.values():
        clock -= 1
        if not clock:
            clock = CLOCK_EVERY
            check_budget()
        if type(node) is ForestLeaf:
            score = log_probs.get(node.transition)
            if score is None:
                score = log_probs[node.transition] = math.log(model.prob(*node.transition))
            if include_tag_likelihoods:
                score += math.log(node.likelihood)
            best[node] = score
            lists[node] = [(score, (("t", node.label),), None, (), (node, None, ()))]
            exhausted.add(node)
            continue
        top = -math.inf
        tied = []
        for i, (_, children, transition) in enumerate(node.bundles):
            score = log_probs.get(transition)
            if score is None:
                score = log_probs[transition] = math.log(model.prob(*transition))
            for child in children:
                score += best[child]
            if score > top:
                top = score
                tied = [i]
            elif score == top:
                tied.append(i)
        best[node] = top
        ties[node] = tied

    def build(nodes):
        """The best entry of each of nodes that has none yet, in that order,
        from its children's: the tied bundle with the smallest signature,
        the lowest index among equal signatures, as a heap of all first
        candidates would pop it.  Tied signatures compare as plain tuples,
        in C, or as flat preorders when that comparison would recurse too
        deep."""
        clock = CLOCK_EVERY
        for node in nodes:
            clock -= 1
            if not clock:
                clock = CLOCK_EVERY
                check_budget()
            if node in lists:
                continue
            bundles = node.bundles
            tied = [((("p", bundles[i][0]), *[lists[child][0][1] for child in bundles[i][1]]),
                     i) for i in ties[node]]
            if len(tied) == 1:
                sig, bi = tied[0]
            else:
                try:
                    sig, bi = min(tied)
                except RecursionError:
                    sig, bi = min(tied, key=lambda e: _preorder(e[0]))
            children = bundles[bi][1]
            lists[node] = [(best[node], sig, bi, (0,) * len(children),
                            (node, bi, tuple([lists[child][0][4] for child in children])))]

    def push(node, bi, ranks):
        """Push the entry of bundle bi over the children's entries at ranks,
        unless pushed before or a child has no entry at its rank."""
        if (bi, ranks) in pushed[node]:
            return
        pushed[node].add((bi, ranks))
        production, children, transition = node.bundles[bi]
        score = log_probs[transition]
        sig = [("p", production)]
        derivs = []
        for child, r in zip(children, ranks):
            if r >= len(lists[child]):
                return
            cs, csig, _, _, cd = lists[child][r]
            score += cs
            sig.append(csig)
            derivs.append(cd)
        heapq.heappush(heaps[node], (-score, _Signature(tuple(sig)), bi, ranks,
                                     (node, bi, tuple(derivs))))

    def pop(node):
        if heaps[node]:
            negscore, sig, bi, ranks, deriv = heapq.heappop(heaps[node])
            lists[node].append((-negscore, sig.nested, bi, ranks, deriv))
        else:
            exhausted.add(node)

    def start_heap(node):
        """node's candidate heap as it stands once its best entry is taken:
        the first candidate of every other bundle."""
        _, _, best_bi, best_ranks, _ = lists[node][0]
        heaps[node] = []
        pushed[node] = {(best_bi, best_ranks)}
        for bi, (_, children, _) in enumerate(node.bundles):
            push(node, bi, (0,) * len(children))

    rescored = []  # (canonical score, _Signature, derivation) per root entry

    def rescore(entry) -> float:
        """Add a root entry to rescored with its canonical score, the log
        probabilities of derivation_transitions(deriv) summed in that order,
        and return that score."""
        _, sig, _, _, deriv = entry
        order = derivation_postorder(deriv)
        canonical = sum([log_probs[node.transition if bi is None else node.bundles[bi][2]]
                         for node, bi, _ in order])
        if include_tag_likelihoods:
            canonical += _leaf_likelihood_sum(order)
        rescored.append((canonical, _Signature(sig), deriv))
        return canonical

    # K: a derivation has at most one transition per node and one tag
    # likelihood per leaf; 8 spare terms raise the threshold by about
    # 16u|b|, more than the 4u|b| its own rounding can take off
    k = 2 * len(forest.nodes) + 8
    gamma = k * 2.0 ** -53 / (1 - k * 2.0 ** -53)
    shrink = (1 - gamma) / (1 + gamma)
    root_node = forest.root
    top_n = []  # min-heap of the n highest canonical scores so far
    if n == 1:
        # try the stop rule on root entry 1 before any entry past a best one
        # is built.  Where a node of the best derivation ties, entry 1 scores
        # as entry 0 by the same sums and the rule cannot fire, so a preorder
        # walk down the best derivation stops at the first tie
        path = []  # its inner nodes
        stack = [root_node]
        while stack:
            clock -= 1
            if not clock:
                clock = CLOCK_EVERY
                check_budget()
            node = stack.pop()
            if type(node) is not ForestLeaf:
                if len(ties[node]) > 1:
                    break
                path.append(node)
                stack += reversed(node.bundles[ties[node][0]][1])
        else:
            # children first, each node's best entry, then the score lazy next
            # would sum for its entry 1, in the same order (-inf for a leaf):
            # the best of another bundle's first candidate and of the best
            # bundle with one child at that child's second best
            path.reverse()
            build(path)
            second = {}
            for node in path:
                clock -= 1
                if not clock:
                    clock = CLOCK_EVERY
                    check_budget()
                (bi,) = ties[node]
                runner = -math.inf
                for i, (_, children, transition) in enumerate(node.bundles):
                    if i != bi:
                        score = log_probs[transition]
                        for child in children:
                            score += best[child]
                        if score > runner:
                            runner = score
                _, children, transition = node.bundles[bi]
                for ci, child in enumerate(children):
                    child_second = second.get(child, -math.inf)
                    if child_second > runner:  # else no sum through it can win
                        score = log_probs[transition]
                        for j, other in enumerate(children):
                            score += child_second if j == ci else best[other]
                        if score > runner:
                            runner = score
                second[node] = runner
            top_n.append(rescore(lists[root_node][0]))
            if second[root_node] * shrink < top_n[0]:
                return _analyses(rescored, n)
    build(forest.nodes.values())
    root = lists[root_node]
    for wanted in range(len(rescored), 2 * n + 16):
        # root entry `wanted` by Huang & Chiang's lazy next on an explicit
        # stack of (node, rank wanted): a node's next entry is popped right
        # after the successors of its last entry are pushed, and each
        # successor may first need one more entry of a child
        stack = [(root_node, wanted)]
        while stack:
            clock -= 1
            if not clock:
                clock = CLOCK_EVERY
                check_budget()
            node, rank = stack[-1]
            if rank < len(lists[node]) or node in exhausted:
                stack.pop()
                continue
            _, _, bi, ranks, _ = lists[node][-1]
            children = node.bundles[bi][1]
            for child, r in zip(children, ranks):
                if r + 1 >= len(lists[child]) and child not in exhausted:
                    stack.append((child, r + 1))
                    break
            else:
                if node not in heaps:
                    start_heap(node)
                for ci in range(len(ranks)):
                    push(node, bi, ranks[:ci] + (ranks[ci] + 1,) + ranks[ci + 1:])
                pop(node)
        if wanted == len(root):
            break
        if len(top_n) == n and root[wanted][0] * shrink < top_n[0]:
            break  # no later root entry can place
        canonical = rescore(root[wanted])
        if len(top_n) < n:
            heapq.heappush(top_n, canonical)
        else:
            heapq.heappushpop(top_n, canonical)
    return _analyses(rescored, n)
