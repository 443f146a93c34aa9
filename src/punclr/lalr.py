"""LALR(1) table construction over a context-free backbone.

States are the LR(0) canonical collection, numbered in breadth-first
discovery order so that identical input always yields identical numbering.
Lookaheads are the least fixpoint of passing each closure item's lookaheads
to its goto successor (DeRemer & Pennello 1982 compute the same sets).
Shift/reduce and reduce/reduce conflicts are kept as action
sets: the table drives a nondeterministic (generalized) parser, so a
conflict is data, not an error.
"""
from __future__ import annotations

from typing import NamedTuple

from .grammar import END_MARKER, CFBackbone, GrammarError, Production, nullable_symbols

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

    __slots__ = ("backbone", "n_states", "actions", "gotos", "productions",
                 "start_state", "rows", "_backbone_hash", "_hash")

    def __init__(self, backbone: CFBackbone, n_states: int, actions: dict, gotos: dict,
                 productions: tuple, start_state: int = 0):
        self.backbone = backbone
        self.n_states = n_states
        self.actions = actions  # (state, label) -> frozenset[Action]
        self.gotos = gotos  # (state, nonterminal) -> state
        self.productions = productions  # indexable by Action.arg for reduces
        self.start_state = start_state
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
        # which print and check none, never load hashlib
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
            import hashlib

            text = "punclr-lalr v1 %s states=%d actions=%d" % (
                self.backbone_hash,
                self.n_states,
                self.action_count,
            )
            self._hash = hashlib.sha256(text.encode()).hexdigest()[:16]
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


def _first_of_seq(seq, first, nullable):
    """FIRST of a symbol sequence plus a transparency flag."""
    out = set()
    for sym in seq:
        out |= first.get(sym, set())
        if sym not in nullable:
            return out, False
    return out, True


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

    def closure(kernel: dict) -> dict:
        """LR(1) closure of kernel items (item -> lookahead set), with the
        lookaheads of each item merged into one set."""
        items = {item: set(las) for item, las in kernel.items()}
        work = list(items)
        while work:
            prod_i, dot = item = work.pop()
            rhs = productions[prod_i].rhs
            if dot == len(rhs) or rhs[dot] not in by_lhs:
                continue
            las, transparent = _first_of_seq(rhs[dot + 1 :], first, nullable)
            if transparent:
                las |= items[item]
            for index in by_lhs[rhs[dot]]:
                new = (index, 0)
                if new not in items:
                    items[new] = set(las)
                    work.append(new)
                elif not las <= items[new]:
                    items[new] |= las
                    work.append(new)
        return items

    # the LR(0) collection, breadth first with symbols sorted; a state's
    # kernel maps its kernel items to their lookaheads, filled in below
    kernels = [{(aug.index, 0): set()}]
    state_of = {frozenset(kernels[0]): 0}
    transitions: dict = {}  # (state, symbol) -> state
    for state, kernel in enumerate(kernels):  # kernels grows as it is walked
        moves: dict = {}
        for prod_i, dot in closure(kernel):
            rhs = productions[prod_i].rhs
            if dot < len(rhs):
                moves.setdefault(rhs[dot], set()).add((prod_i, dot + 1))
        for sym in sorted(moves):
            target = frozenset(moves[sym])
            if target not in state_of:
                state_of[target] = len(kernels)
                kernels.append({item: set() for item in target})
            transitions[(state, sym)] = state_of[target]

    # LALR(1) lookaheads as a least fixpoint: each unfinished item of a
    # state's closure passes its lookaheads to its successor in the goto
    # kernel, and a state whose kernel sets grew is closed again
    kernels[0][(aug.index, 0)].add(END_MARKER)
    closed = [None] * len(kernels)
    pending = set(range(len(kernels)))
    while pending:
        state = pending.pop()
        closed[state] = items = closure(kernels[state])
        for (prod_i, dot), las in items.items():
            rhs = productions[prod_i].rhs
            if dot == len(rhs):
                continue
            target = transitions[(state, rhs[dot])]
            bucket = kernels[target][(prod_i, dot + 1)]
            if not las <= bucket:
                bucket |= las
                pending.add(target)

    # actions: shifts from the transitions, reduces and accept from the
    # finished items of each state's final closure
    actions: dict = {}
    gotos: dict = {}
    for (state, sym), target in transitions.items():
        if sym in by_lhs:
            gotos[(state, sym)] = target
        else:
            actions.setdefault((state, sym), set()).add(Action(SHIFT, target))
    for state, items in enumerate(closed):
        for (prod_i, dot), las in items.items():
            if dot < len(productions[prod_i].rhs):
                continue
            action = Action(ACCEPT) if prod_i == aug.index else Action(REDUCE, prod_i)
            for la in las:
                actions.setdefault((state, la), set()).add(action)

    return LalrTable(
        backbone=backbone,
        n_states=len(kernels),
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
    "punclr-<kind> v1" header of a counts or model file.

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
