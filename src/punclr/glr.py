"""Generalized LR parsing of tag lattices into packed parse forests.

The parser runs a graph-structured stack over the (possibly conflicting)
LALR(1) table.  Reduce-time unification of rule residues prunes derivations;
pruned derivations never enter the forest.  Forest nodes are keyed by
(symbol, span, stack state beneath, residue, pending lookahead), a key fine
enough that every complete derivation's probability decomposes exactly over
the (state, lookahead, action) transitions recorded on its bundles, at the
cost of somewhat less packing.  A node key holds the canonical residue
(grammar.canonical_residue), its own signature.  Reduction lives in
grammar.Residues, built once per grammar, whose memo every sentence shares.

Multiple label hypotheses per token are handled by running the reduce
closure once per pending label: reductions triggered under one hypothesis
must not feed stack branches that continue with a different one.

Each GSS edge carries the forest node of the symbol it spans; reductions read
child residues and nodes off the popped edges.  Nothing is deduplicated, as
nothing repeats: a forest node fixes the stack node beneath, the goto and the
closure, so only a new forest node brings a new edge; a stack node's reduces
are queued once bare and once per edge; and a path, popped once, differs from
every other path into its forest node in some child.

The forest is held by reference: a bundle holds its child nodes, and every
forest pass keys its tables on node objects, which hash by identity, where a
key tuple would be rehashed on every lookup.  Keys are for what leaves a
parse: ParseForest.nodes maps them to the nodes, export_forest prints them,
and their order (repr) sorts the dump.  No pass compares two nodes or
iterates a set of them, so every order that reaches output comes from
insertion-ordered dicts and lists, never from addresses.

Records are NamedTuples or plain slotted classes, not dataclasses: importing
dataclasses and decorating the classes cost each process tens of
milliseconds, and a frozen dataclass's __init__ sets each field through
object.__setattr__.  A bundle is a plain (production, children, transition)
tuple, the one record built per reduction path: a parse-corpus benchmark
round builds about 126,000, and under CPython 3.11 a tuple takes 31-37 ns
to build where a slotted class took 170-191 ns.  The reduce loop reads
LalrTable.rows, where each reduce carries its arity, lhs, goto row and
transition: a bundle's transition is that table cell's tuple, shared by
every bundle and leaf that takes it, and no (state, symbol) key is built
per task or path.
"""
from __future__ import annotations

import time
from collections import deque
from math import prod
from operator import attrgetter
from typing import NamedTuple, Optional

from .grammar import END_MARKER, Residues
from .lalr import LalrTable


class Token(NamedTuple):
    word: str
    position: int
    labels: tuple  # ((label, likelihood), ...) non-increasing by likelihood


class SentenceLattice:
    __slots__ = ("tokens",)

    def __init__(self, tokens: tuple):
        for i, tok in enumerate(tokens):
            if tok.position != i:
                raise ValueError("token positions must be consecutive from 0")
            if not tok.labels:
                raise ValueError("token %r has no label hypotheses" % tok.word)
            if len({label for label, _ in tok.labels}) < len(tok.labels):
                raise ValueError("token %r lists a label twice" % tok.word)
            for label, lik in tok.labels:
                if not 0 < lik <= 1:
                    raise ValueError(
                        "likelihood %r for %s|%s outside (0, 1]" % (lik, tok.word, label)
                    )
        self.tokens = tokens

    def __len__(self):
        return len(self.tokens)

    def words(self):
        return [t.word for t in self.tokens]


def lattice_from_labels(labels) -> SentenceLattice:
    """Single-hypothesis lattice from a plain label sequence."""
    return SentenceLattice(
        tuple(Token(lab, i, ((lab, 1.0),)) for i, lab in enumerate(labels))
    )


# ForestNode.walk and ForestLeaf.walk: how far _children_first has got
_UNSEEN, _ENTERED, _PLACED = 0, 1, 2
# the reduce loop reads the CPU clock on its first task and every
# CLOCK_EVERY tasks after, not on every task
CLOCK_EVERY = 64


class ForestLeaf:
    __slots__ = ("key", "label", "word", "position", "likelihood", "transition", "walk")
    residue = ()  # not a slot: a leaf carries no features

    def __init__(self, key: tuple, label: str, word: str, position: int,
                 likelihood: float, transition: tuple):
        self.key = key
        self.label = label
        self.word = word
        self.position = position
        self.likelihood = likelihood
        self.transition = transition
        self.walk = _UNSEEN

    @property
    def start(self):
        return self.position

    @property
    def end(self):
        return self.position + 1


class ForestNode:
    __slots__ = ("key", "symbol", "start", "end", "residue", "bundles", "walk")

    def __init__(self, key: tuple, symbol: str, start: int, end: int, residue: tuple,
                 bundles: list):
        self.key = key
        self.symbol = symbol
        self.start = start
        self.end = end
        self.residue = residue
        # (production index, child nodes left to right, (state, lookahead,
        # Action)) tuples; the root's bundles have production -1 (accept)
        self.bundles = bundles
        self.walk = _UNSEEN


ROOT_KEY = ("root",)
_residue = attrgetter("residue")


class ParseForest(NamedTuple):
    """A packed forest of root-spanning analyses.

    nodes maps the key of each node reachable from the root to the node, in
    children-first order: every node comes after all of its bundles'
    children and the root comes last, so a forest pass is one loop over
    nodes.values(), keyed on the nodes themselves.
    """

    nodes: dict
    table: LalrTable

    @property
    def root(self) -> ForestNode:
        return self.nodes[ROOT_KEY]

    @property
    def table_hash(self) -> str:
        return self.table.table_hash()


class ParseOutcome(NamedTuple):
    status: str  # "ok" | "fail" | "timeout"
    forest: Optional[ParseForest] = None
    reason: str = ""
    cpu_seconds: float = 0.0

    @property
    def ok(self):
        return self.status == "ok"


class _GssNode:
    __slots__ = ("state", "position", "serial", "edges")

    def __init__(self, state, position, serial):
        self.state = state
        self.position = position
        self.serial = serial  # deterministic creation index, part of forest keys
        self.edges = []  # (_GssNode beneath, ForestNode or ForestLeaf on the edge)


def _bracket_tables(skeleton, n):
    """Per position p, over the brackets (a, b) with a < p < b: the largest
    a and the smallest b.  Span (i, j) crosses a bracket exactly when
    last_open[j] > i or first_close[i] < j."""
    last_open = [-1] * (n + 1)
    first_close = [n + 1] * (n + 1)
    for a, b in skeleton:
        for p in range(a + 1, b):
            if a > last_open[p]:
                last_open[p] = a
            if b < first_close[p]:
                first_close[p] = b
    return last_open, first_close


def parse_lattice(
    lattice: SentenceLattice,
    table: LalrTable,
    residues: Residues,
    budget: Optional[float] = None,
    skeleton=None,
) -> ParseOutcome:
    """Parse a sentence lattice into a packed forest of root-spanning analyses.

    skeleton, when given, is a collection of (start, end) spans within the
    sentence; reductions whose span would cross one are pruned, which
    implements bracket-constrained parsing.

    Returns fail(no-analysis) when no branch reaches accept and timeout when
    the CPU budget runs out (only if one was set).
    """
    t0 = time.process_time()
    n = len(lattice)
    last_open, first_close = _bracket_tables(skeleton or (), n)
    rows = table.rows
    featureless = residues.featureless
    memo_get = residues.memo.get
    reduce = residues.reduce
    root_bundles: list = []
    serials = iter(range(1 << 60))
    initial = _GssNode(table.start_state, 0, next(serials))
    frontier = {table.start_state: initial}

    def out_of_budget():
        return budget is not None and time.process_time() - t0 > budget

    def fail(reason):
        return ParseOutcome("fail", None, reason, time.process_time() - t0)

    def timeout():
        return ParseOutcome("timeout", None, "budget exhausted", time.process_time() - t0)

    clock = 1  # tasks left until the next clock read
    for j in range(n + 1):
        if out_of_budget():
            return timeout()
        if j < n:
            label_items = lattice.tokens[j].labels
            word = lattice.tokens[j].word
        else:
            label_items = ((END_MARKER, 1.0),)
            word = ""
        crossed = last_open[j]
        next_frontier: dict = {}
        for label, likelihood in label_items:
            row = rows.get(label, {})  # state -> the table's cell
            local: dict = {}
            # nodes: the forest nodes ending at j under this label, by lhs
            # and then by the GSS node beneath, or by (GSS node beneath,
            # residue) when the residue is not empty; leaves: its
            # leaves, keyed by the state shifted from.  j and label are
            # fixed, and the node beneath fixes start, serial and state, so
            # these keys pick a node as its full key does
            nodes: dict = {}
            leaves: dict = {}
            # a task is (GSS node, reduce entry, edge): the node's empty
            # reduces go with no edge, the others once per edge, as the
            # first step of their paths
            tasks = deque()
            for node in frontier.values():
                cell = row.get(node.state)
                if cell is not None:
                    for entry in cell[0]:
                        tasks.append((node, entry, None))
                    for edge in node.edges:
                        for entry in cell[1]:
                            tasks.append((node, entry, edge))

            while tasks:
                clock -= 1
                if not clock:
                    clock = CLOCK_EVERY
                    if out_of_budget():
                        return timeout()
                node, (index, arity, lhs, transition, goto_row), first_edge = tasks.popleft()
                if arity == 2:
                    below, child = first_edge
                    paths = [((kid, child), bottom) for bottom, kid in below.edges]
                elif arity == 1:
                    below, child = first_edge
                    paths = (((child,), below),)
                elif arity == 0:
                    paths = (((), node),)
                else:
                    paths = _pop_paths(first_edge, arity)
                featured = index not in featureless
                lhs_nodes = nodes.get(lhs)
                if lhs_nodes is None:
                    lhs_nodes = nodes[lhs] = {}
                for kids, bottom in paths:
                    span_start = bottom.position
                    if skeleton and (crossed > span_start or first_close[span_start] < j):
                        continue
                    goto = goto_row.get(bottom.state)
                    if goto is None:
                        continue
                    if featured:
                        key = (index, tuple(map(_residue, kids)))
                        mother = memo_get(key, False)
                        if mother is False:
                            mother = reduce(key)
                        if mother is None:
                            continue
                        nkey = (bottom, mother) if mother else bottom
                    else:
                        mother = ()
                        nkey = bottom
                    fnode = lhs_nodes.get(nkey)
                    if fnode is None:
                        # keyed by the GSS node beneath (serial), not merely
                        # its state: same-state nodes from different label
                        # closures have different continuations and must not
                        # be conflated.  Only a new forest node brings a new
                        # edge (see the module docstring)
                        fkey = ("n", lhs, span_start, j, bottom.serial, bottom.state, mother, label)
                        fnode = lhs_nodes[nkey] = ForestNode(fkey, lhs, span_start, j, mother, [])
                        edge = (bottom, fnode)
                        cell = row.get(goto)
                        target = local.get(goto)
                        if target is None:
                            target = local[goto] = _GssNode(goto, j, next(serials))
                            target.edges.append(edge)
                            if cell is not None:
                                for entry in cell[0]:
                                    tasks.append((target, entry, None))
                        else:
                            target.edges.append(edge)
                        if cell is not None:
                            for entry in cell[1]:
                                tasks.append((target, entry, edge))
                    fnode.bundles.append((index, kids, transition))

            if j < n:
                for node in list(frontier.values()) + list(local.values()):
                    cell = row.get(node.state)
                    if cell is None:
                        continue
                    for shifted, transition in cell[2]:
                        leaf = leaves.get(node.state)
                        if leaf is None:
                            leaf = leaves[node.state] = ForestLeaf(
                                ("t", j, label, node.state), label, word, j, likelihood,
                                transition,
                            )
                        target = next_frontier.get(shifted)
                        if target is None:
                            target = next_frontier[shifted] = _GssNode(
                                shifted, j + 1, next(serials))
                        target.edges.append((node, leaf))
            else:
                for node in list(frontier.values()) + list(local.values()):
                    cell = row.get(node.state)
                    if cell is None or cell[3] is None:
                        continue
                    for below, child in node.edges:
                        if below is initial:
                            root_bundles.append((-1, (child,), cell[3]))
        if j < n and not next_frontier:
            return fail("no shift possible at token %d" % j)
        if j < n:
            frontier = next_frontier

    if not root_bundles:
        return fail("no analysis spans the sentence")

    root = ForestNode(ROOT_KEY, "$root", 0, n, (), root_bundles)
    forest = ParseForest(_children_first(root), table)
    return ParseOutcome("ok", forest, "", time.process_time() - t0)


def _pop_paths(first_edge, arity):
    """The reduce paths of `arity` edges whose first step is first_edge, as
    (child forest nodes left to right, GSS node beneath), extended one edge
    at a time."""
    below, child = first_edge
    paths = [((child,), below)]
    for _ in range(arity - 1):
        paths = [((child,) + kids, below)
                 for kids, current in paths for below, child in current.edges]
    return paths


def _children_first(root):
    """Key -> node for the nodes reachable from root, in post-order: depth
    first, on a stack where each node, once entered, waits beneath its
    unplaced children until they are placed.  Each node's walk slot records
    whether it is entered or placed, so a node met again is skipped by its
    slot, not looked up by key."""
    order = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if node.walk == _PLACED:
            stack.pop()
        elif node.walk == _ENTERED or type(node) is ForestLeaf:
            stack.pop()
            node.walk = _PLACED
            order[node.key] = node
        else:
            node.walk = _ENTERED
            pending = [c for _, children, _ in node.bundles for c in children
                       if c.walk != _PLACED]
            pending.reverse()
            stack.extend(pending)
    return order


def constrained_parse(
    lattice: SentenceLattice,
    table: LalrTable,
    residues: Residues,
    skeleton,
) -> ParseOutcome:
    """parse_lattice restricted to derivations consistent with unlabelled
    bracket spans: no parser constituent may cross a skeleton bracket."""
    return parse_lattice(lattice, table, residues, skeleton=skeleton)


# ---------------------------------------------------------------------------
# forest consumers

def count_parses(forest: ParseForest) -> int:
    """Exact derivation count of the whole forest."""
    return inside_counts(forest)[forest.root]


def inside_counts(forest: ParseForest) -> dict:
    """Each node's exact derivation count, keyed by the node: an inside
    sum-product over bundles, in exact integers, one loop over the
    children-first node order."""
    counts: dict = {}
    for node in forest.nodes.values():
        if type(node) is ForestLeaf:
            counts[node] = 1
            continue
        total = 0
        for _, children, _ in node.bundles:
            product = 1
            for child in children:
                product *= counts[child]
            total += product
        counts[node] = total
    return counts


def enumerate_derivations(forest: ParseForest):
    """All derivations as nested (node, bundle index, children) tuples, per
    node bundle by bundle and, within a bundle, in the product order of the
    children's lists.  A leaf's derivation is (leaf, None, ()).

    Exponential in general; meant for small sentences and tests.
    """
    memo: dict = {}
    for node in forest.nodes.values():
        if type(node) is ForestLeaf:
            memo[node] = [(node, None, ())]
            continue
        derivs = []
        for bi, (_, children, _) in enumerate(node.bundles):
            combos = [()]
            for child in children:
                combos = [acc + (d,) for acc in combos for d in memo[child]]
            derivs.extend((node, bi, combo) for combo in combos)
        memo[node] = derivs
    return memo[forest.root]


def nth_derivation(forest: ParseForest, index: int):
    """enumerate_derivations(forest)[index], without the enumeration.

    Top down, a node's index falls in one bundle's range of the running sum
    of the bundles' derivation counts (the products of their children's
    inside counts); its offset in that range splits in mixed radix over the
    children's inside counts, the last child varying fastest, into one index
    per child.
    """
    inside = inside_counts(forest)
    root = forest.root
    if not 0 <= index < inside[root]:
        raise IndexError("derivation %d of %d" % (index, inside[root]))
    built = [[]]  # per open node, the derivations of its finished children
    stack = [(True, root, index)]  # (entering, node, index or bundle)
    while stack:
        entering, node, i = stack.pop()
        if not entering:
            children = tuple(built.pop())
            built[-1].append((node, i, children))
        elif type(node) is ForestLeaf:
            built[-1].append((node, None, ()))
        else:
            for bi, (_, children, _) in enumerate(node.bundles):
                size = prod(inside[c] for c in children)
                if i < size:
                    break
                i -= size
            built.append([])
            stack.append((False, node, bi))
            for c in reversed(children):
                i, rest = divmod(i, inside[c])
                stack.append((True, c, rest))
    return built[0][0]


def derivation_postorder(deriv) -> list:
    """Every subderivation of deriv, each after its children, children left
    to right: the reverse of a preorder that visits children right to left,
    on an explicit stack, so no walk is bounded by the recursion limit."""
    out = []
    todo = [deriv]
    while todo:
        d = todo.pop()
        out.append(d)
        todo.extend(d[2])
    out.reverse()
    return out


def derivation_transitions(deriv):
    """The LR run of one derivation: post-order over the tree gives the
    exact (state, lookahead, action) sequence the parser traversed."""
    return [node.transition if bi is None else node.bundles[bi][2]
            for node, bi, _ in derivation_postorder(deriv)]


class Tree(NamedTuple):
    label: str
    children: tuple
    start: int
    end: int
    word: str = ""

    def is_leaf(self):
        return not self.children


def is_iteration_symbol(symbol: str) -> bool:
    """Auxiliary symbols minted by Kleene expansion carry a '*', which user
    symbols cannot."""
    return "*" in symbol


def derivation_to_tree(deriv, memo: Optional[dict] = None) -> Tree:
    """Labelled tree for one derivation; Kleene iteration auxiliaries are
    spliced away so a starred daughter shows up as a flat sibling list.

    memo maps id() of subderivation tuples to their trees, and is read and
    filled: derivations that share a subderivation object, as k-best entries
    do, then share its tree, built once.  Splicing is local to one node, so
    a subderivation's tree is the same under every parent.  The caller keeps
    the derivations alive while the memo is in use, so no id is reused."""
    if memo is None:
        memo = {}
    stack = [(True, deriv)]
    while stack:
        entering, d = stack.pop()
        if entering:
            if id(d) not in memo:
                stack.append((False, d))
                stack += [(True, child) for child in d[2]]
            continue
        kids = []
        for child in d[2]:
            sub = memo[id(child)]
            if is_iteration_symbol(sub.label):
                kids.extend(sub.children)
            else:
                kids.append(sub)
        node = d[0]
        if d[1] is None:
            tree = Tree(node.label, (), node.start, node.end, node.word)
        elif node.key == ROOT_KEY:
            tree = kids[0]
        else:
            tree = Tree(node.symbol, tuple(kids), node.start, node.end)
        memo[id(d)] = tree
    return memo[id(deriv)]


def export_forest(forest: ParseForest) -> str:
    """Textual shared-forest dump, one node per line."""
    lines = []
    for key in sorted(forest.nodes, key=repr):
        node = forest.nodes[key]
        if isinstance(node, ForestLeaf):
            lines.append(
                "leaf %r label=%s word=%s span=%d:%d p=%g trans=%s"
                % (key, node.label, node.word, node.start, node.end,
                   node.likelihood, _trans_str(node.transition))
            )
        else:
            parts = []
            for production, children, transition in node.bundles:
                parts.append(
                    "[p%d %s trans=%s]"
                    % (production, " ".join(repr(c.key) for c in children),
                       _trans_str(transition))
                )
            lines.append(
                "node %r sym=%s span=%d:%d residue=%s bundles=%s"
                % (key, node.symbol, node.start, node.end,
                   node.residue, " ".join(parts))
            )
    return "\n".join(lines) + "\n"


def _trans_str(transition):
    state, label, action = transition
    return "(%d,%s,%s)" % (state, label, action)
