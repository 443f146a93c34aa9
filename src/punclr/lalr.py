"""LALR(1) table construction over a context-free backbone.

States are the LR(0) canonical collection, numbered in breadth-first
discovery order so that identical input always yields identical numbering;
each state is closed once.  Lookaheads are the least fixpoint of one
propagation over the closure items, on a single worklist: each item passes
its set to its goto successor, and an item A -> a . B b gives the items
that predict B the set FIRST(b), and its own set too when b is nullable
(DeRemer & Pennello 1982 compute the same sets).  Shift/reduce and
reduce/reduce conflicts are kept as action sets: the table drives a
nondeterministic (generalized) parser, so a conflict is data, not an error.
"""
from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .grammar import (END_MARKER, CFBackbone, GrammarError, Production, nullable_symbols,
                      sha256_prefix)

SHIFT = "shift"
REDUCE = "reduce"
ACCEPT = "accept"


class Action(NamedTuple):
    kind: str
    arg: int = -1

    def __str__(self):
        if self.kind == SHIFT:
            return "s%d" % self.arg
        if self.kind == REDUCE:
            return "r%d" % self.arg
        return "acc"


class LalrTable:
    """The LALR(1) table: per (state, label) action sets, gotos and the
    productions that reduce actions index."""

    __slots__ = ("backbone", "n_states", "actions", "gotos", "productions", "rows",
                 "_backbone_hash", "_hash")
    start_state = 0  # build_lalr numbers the $accept item's state first

    def __init__(self, backbone: CFBackbone, n_states: int, actions: dict, gotos: dict,
                 productions: tuple):
        self.backbone = backbone
        self.n_states = n_states
        self.actions = actions  # (state, label) -> frozenset[Action]
        self.gotos = gotos  # (state, nonterminal) -> state
        self.productions = productions  # indexable by Action.arg for reduces
        # the parser's view of the same cells, label -> state -> (empty
        # reduces, other reduces, shifts, accept transition or None).  A
        # reduce is (production index, arity, lhs, transition, the lhs's
        # gotos as state -> state) and a shift (target, transition); a
        # transition is the cell's (state, label, Action), one tuple that
        # every bundle and leaf taking it shares.  Each list is in sorted
        # action order, so the parser's visiting order depends on the
        # table's contents alone
        goto_rows: dict = {}
        for (state, sym), target in gotos.items():
            goto_rows.setdefault(sym, {})[state] = target
        rows: dict = {}
        for (state, label), acts in actions.items():
            empties, others, shifts, accept = [], [], [], None
            for action in sorted(acts):
                transition = (state, label, action)
                if action.kind == REDUCE:
                    prod = productions[action.arg]
                    arity = len(prod.rhs)
                    (others if arity else empties).append(
                        (action.arg, arity, prod.lhs, transition,
                         goto_rows.get(prod.lhs, {}))
                    )
                elif action.kind == SHIFT:
                    shifts.append((action.arg, transition))
                else:
                    accept = transition
            rows.setdefault(label, {})[state] = (
                tuple(empties), tuple(others), tuple(shifts), accept
            )
        self.rows = rows
        # both hashes are computed on first use, so that parse and stats,
        # which print and check none, load no hashing (see sha256_prefix)
        self._backbone_hash = self._hash = ""

    @property
    def action_count(self) -> int:
        return sum(len(v) for v in self.actions.values())

    @property
    def backbone_hash(self) -> str:
        if not self._backbone_hash:
            self._backbone_hash = self.backbone.content_hash()
        return self._backbone_hash

    def table_hash(self) -> str:
        if not self._hash:
            text = "punclr-lalr v1 %s states=%d actions=%d" % (
                self.backbone_hash,
                self.n_states,
                self.action_count,
            )
            self._hash = sha256_prefix(text)
        return self._hash


def _first_sets(backbone: CFBackbone, nullable: set) -> dict:
    """FIRST of every symbol, by a worklist over the `X can begin with Y`
    relation (the digraph view of DeRemer & Pennello 1982): a symbol whose
    set grew passes it on to the symbols that can begin with it."""
    begins: dict = {}  # Y -> the left-hand sides X that can begin with Y
    for p in backbone.productions:
        for sym in p.rhs:
            begins.setdefault(sym, set()).add(p.lhs)
            if sym not in nullable:
                break
    first = {p.lhs: set() for p in backbone.productions}
    first.update((t, {t}) for t in backbone.terminals)
    work = list(backbone.terminals)
    while work:
        sym = work.pop()
        for lhs in begins.get(sym, ()):
            if not first[sym] <= first[lhs]:
                first[lhs] |= first[sym]
                work.append(lhs)
    return first


def build_lalr(backbone: CFBackbone) -> LalrTable:
    """Build the LALR(1) table, conflicts preserved as action sets."""
    if backbone.start not in backbone.nonterminals():
        raise GrammarError("start symbol %r has no productions" % backbone.start)

    aug = Production(len(backbone.productions), "$accept", (backbone.start,), "$aug")
    productions = backbone.productions + (aug,)
    by_lhs: dict = {}
    for p in productions:
        by_lhs.setdefault(p.lhs, []).append(p.index)
    nullable = nullable_symbols(backbone)
    first = _first_sets(backbone, nullable)

    # the LR(0) collection, breadth first with symbols sorted; each state is
    # closed once, as a list of its kernel items followed by the items (q, 0)
    # they predict
    states = [[(aug.index, 0)]]
    state_of = {frozenset(states[0]): 0}
    transitions: dict = {}  # (state, symbol) -> state
    for state, items in enumerate(states):  # states grows as it is walked
        moves: dict = {}
        predicted = set()
        for prod_i, dot in items:  # items grows as it is walked
            rhs = productions[prod_i].rhs
            if dot < len(rhs):
                sym = rhs[dot]
                moves.setdefault(sym, set()).add((prod_i, dot + 1))
                if sym in by_lhs and sym not in predicted:
                    predicted.add(sym)
                    items.extend((index, 0) for index in by_lhs[sym])
        for sym in sorted(moves):
            target = frozenset(moves[sym])
            if target not in state_of:
                state_of[target] = len(states)
                states.append(list(target))
            transitions[(state, sym)] = state_of[target]

    # LALR(1) lookaheads live on nodes: (state, item) for a kernel item, and
    # (state, B) for the predicted items (q, 0) of B's productions, which
    # share one set; the $accept item's node is (0, "$accept").  An
    # unfinished item A -> a . X b passes its set to its successor in the
    # goto state, and when X is a nonterminal, FIRST(b) and, if b is
    # nullable, its own set to (state, X).  One worklist runs that to the
    # least fixpoint
    las = defaultdict(set, {(0, aug.lhs): {END_MARKER}})  # node -> lookahead set
    passes = defaultdict(set)  # node -> the nodes it passes its set to
    finished = []  # (state, production, node) of each finished item
    for state, items in enumerate(states):
        for prod_i, dot in items:
            rhs = productions[prod_i].rhs
            node = (state, (prod_i, dot) if dot else productions[prod_i].lhs)
            if dot == len(rhs):
                finished.append((state, prod_i, node))
                continue
            sym = rhs[dot]
            passes[node].add((transitions[(state, sym)], (prod_i, dot + 1)))
            if sym in by_lhs:
                seeds = las[(state, sym)]
                for later in rhs[dot + 1 :]:
                    seeds |= first[later]
                    if later not in nullable:
                        break
                else:
                    passes[node].add((state, sym))
    work = list(las)
    while work:
        node = work.pop()
        for succ in passes[node]:
            if not las[node] <= las[succ]:
                las[succ] |= las[node]
                work.append(succ)

    # actions: shifts from the transitions, reduces and accept from the
    # finished items' nodes
    actions: dict = {}
    gotos: dict = {}
    for (state, sym), target in transitions.items():
        if sym in by_lhs:
            gotos[(state, sym)] = target
        else:
            actions.setdefault((state, sym), set()).add(Action(SHIFT, target))
    for state, prod_i, node in finished:
        action = Action(ACCEPT) if prod_i == aug.index else Action(REDUCE, prod_i)
        for la in las[node]:
            actions.setdefault((state, la), set()).add(action)

    return LalrTable(
        backbone=backbone,
        n_states=len(states),
        actions={key: frozenset(acts) for key, acts in actions.items()},
        gotos=gotos,
        productions=productions,
    )


# ---------------------------------------------------------------------------
# artifacts

def dump_table(table: LalrTable, path):
    """Write the table as text for inspection (compile -o); nothing reads it
    back, since every command builds its table from the grammar."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("punclr-table v1\n")
        fh.write("backbone %s\n" % table.backbone_hash)
        fh.write("states %d\n" % table.n_states)
        for p in table.productions:
            rhs = " ".join(esc(s) for s in p.rhs)
            fh.write("prod %d %s %s : %s\n" % (p.index, esc(p.lhs), esc(p.rule_id), rhs))
        for (state, label), acts in sorted(table.actions.items()):
            for a in sorted(acts):
                fh.write("action %d %s %s %d\n" % (state, esc(label), a.kind, a.arg))
        for (state, sym), target in sorted(table.gotos.items()):
            fh.write("goto %d %s %d\n" % (state, esc(sym), target))


class ModelError(Exception):
    """A malformed or mismatched model file (read_records raises it
    for the model module, and the CLI catches it without importing that)."""


def read_records(path, kind: str, fields: dict, error=ValueError):
    """Yield (record name, converted values) for each line after the
    "punclr-<kind> v1" header of a model file.

    fields maps a record name to its value converters, one per field.  A bad
    header or a malformed line raises error, with the line number.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "punclr-%s v1" % kind:
            raise error("not a punclr %s file: %r" % (kind, header))
        for lineno, line in enumerate(fh, 2):
            parts = line.split()
            if not parts:
                raise error("line %d: blank line" % lineno)
            converters = fields.get(parts[0])
            if converters is None:
                raise error("line %d: unknown record %r" % (lineno, parts[0]))
            if len(parts) - 1 != len(converters):
                raise error(
                    "line %d: %s record needs %d fields, found %d"
                    % (lineno, parts[0], len(converters), len(parts) - 1)
                )
            try:
                values = [conv(x) for conv, x in zip(converters, parts[1:])]
            except FieldError as exc:
                raise error("line %d: %s" % (lineno, exc)) from None
            except ValueError:
                raise error(
                    "line %d: non-numeric field in %r" % (lineno, line.strip())
                ) from None
            yield parts[0], values


class FieldError(ValueError):
    """A field a read_records converter rejects, with the reason to report."""


def action_kind(field: str) -> str:
    """The read_records converter for an action kind."""
    if field not in (SHIFT, REDUCE, ACCEPT):
        raise FieldError(
            "expected shift or reduce or accept for the action kind, found %r" % field
        )
    return field


def esc(label: str) -> str:
    """A symbol or label as one whitespace-free field of an artifact line."""
    return label.replace("%", "%25").replace(" ", "%20")


def unesc(label: str) -> str:
    return label.replace("%20", " ").replace("%25", "%")
