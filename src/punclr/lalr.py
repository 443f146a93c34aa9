"""LALR(1) table construction over a context-free backbone.

States are the LR(0) canonical collection, numbered in breadth-first
discovery order so that identical input always yields identical numbering.
Lookaheads come from the standard spontaneous-generation-and-propagation
computation.  Shift/reduce and reduce/reduce conflicts are kept as action
sets: the table drives a nondeterministic (generalized) parser, so a
conflict is data, not an error.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain, repeat

from .grammar import END_MARKER, CFBackbone, GrammarError, Production, nullable_symbols

SHIFT = "shift"
REDUCE = "reduce"
ACCEPT = "accept"


@dataclass(frozen=True, order=True)
class Action:
    kind: str
    arg: int = -1

    def __str__(self):
        if self.kind == SHIFT:
            return "s%d" % self.arg
        if self.kind == REDUCE:
            return "r%d" % self.arg
        return "acc"


EMPTY_ROW = ((), (), None)


@dataclass(frozen=True)
class LalrTable:
    backbone_hash: str
    n_states: int
    actions: dict  # (state, label) -> frozenset[Action]
    gotos: dict  # (state, nonterminal) -> state
    productions: tuple  # indexable by Action.arg for reduces
    start_state: int = 0
    # (state, label) -> (((reduce Action, arity), ...), (shift Action, ...),
    # accept Action or None), each in the iteration order of the action set,
    # so the parser visits actions exactly as a scan of `actions` would
    rows: dict = field(init=False, repr=False, compare=False)
    _hash: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = {}
        for key, acts in self.actions.items():
            reduces = tuple(
                (a, len(self.productions[a.arg].rhs)) for a in acts if a.kind == REDUCE
            )
            shifts = tuple(a for a in acts if a.kind == SHIFT)
            accept = next((a for a in acts if a.kind == ACCEPT), None)
            rows[key] = (reduces, shifts, accept)
        object.__setattr__(self, "rows", rows)

    @property
    def action_count(self) -> int:
        return sum(len(v) for v in self.actions.values())

    def table_hash(self) -> str:
        if not self._hash:
            text = "punclr-lalr v1 %s states=%d actions=%d" % (
                self.backbone_hash,
                self.n_states,
                self.action_count,
            )
            object.__setattr__(self, "_hash", hashlib.sha256(text.encode()).hexdigest()[:16])
        return self._hash


def lookup_actions(table: LalrTable, state: int, lookahead: str) -> frozenset:
    """Action set for (state, lookahead); empty when nothing applies.

    Unknown lookahead labels yield the empty set rather than an error, so
    unseen tags merely kill the stack branches that meet them.
    """
    return table.actions.get((state, lookahead), frozenset())


def _first_sets(backbone: CFBackbone, nullable: set) -> dict:
    first = {t: {t} for t in backbone.terminals}
    nts = backbone.nonterminals()
    for nt in nts:
        first.setdefault(nt, set())
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
            if len(target) != before:
                changed = True
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

    n_user = len(backbone.productions)
    aug = Production(n_user, "$accept", (backbone.start,), "$aug")
    productions = backbone.productions + (aug,)
    by_lhs: dict = {}
    for p in productions:
        by_lhs.setdefault(p.lhs, []).append(p)
    nonterminals = {p.lhs for p in productions}
    nullable = nullable_symbols(backbone)
    first = _first_sets(backbone, nullable)

    def closure_lr0(kernel):
        items = set(kernel)
        work = list(kernel)
        while work:
            prod_i, dot = work.pop()
            rhs = productions[prod_i].rhs
            if dot < len(rhs) and rhs[dot] in nonterminals:
                for p in by_lhs[rhs[dot]]:
                    item = (p.index, 0)
                    if item not in items:
                        items.add(item)
                        work.append(item)
        return items

    # breadth-first construction of the LR(0) collection, kernels as keys
    start_kernel = frozenset({(aug.index, 0)})
    kernels = [start_kernel]
    state_of = {start_kernel: 0}
    transitions: dict = {}  # (state, symbol) -> state
    head = 0
    while head < len(kernels):
        state = head
        kernel = kernels[head]
        head += 1
        items = closure_lr0(kernel)
        moves: dict = {}
        for prod_i, dot in items:
            rhs = productions[prod_i].rhs
            if dot < len(rhs):
                moves.setdefault(rhs[dot], set()).add((prod_i, dot + 1))
        for sym in sorted(moves):
            target_kernel = frozenset(moves[sym])
            if target_kernel not in state_of:
                state_of[target_kernel] = len(kernels)
                kernels.append(target_kernel)
            transitions[(state, sym)] = state_of[target_kernel]

    # lookaheads: spontaneous generation and propagation between kernel items
    DUMMY = object()
    lookaheads: dict = {}  # (state, kernel item) -> set of labels
    propagate: dict = {}  # (state, kernel item) -> set of (state, kernel item)
    for state, kernel in enumerate(kernels):
        for item in kernel:
            lookaheads.setdefault((state, item), set())
    lookaheads[(0, (aug.index, 0))].add(END_MARKER)

    for state, kernel in enumerate(kernels):
        for kitem in kernel:
            # closure of [kitem, DUMMY] with lookaheads
            seen = {(kitem, DUMMY)}
            work = [(kitem, DUMMY)]
            while work:
                (prod_i, dot), la = work.pop()
                rhs = productions[prod_i].rhs
                if dot >= len(rhs):
                    continue
                sym = rhs[dot]
                target = transitions.get((state, sym))
                if target is not None:
                    titem = (prod_i, dot + 1)
                    if la is DUMMY:
                        propagate.setdefault((state, kitem), set()).add((target, titem))
                    else:
                        lookaheads.setdefault((target, titem), set()).add(la)
                if sym in nonterminals:
                    rest = rhs[dot + 1 :]
                    fs, transparent = _first_of_seq(rest, first, nullable)
                    las = set(fs)
                    if transparent:
                        las.add(la)
                    for p in by_lhs[sym]:
                        for new_la in las:
                            entry = ((p.index, 0), new_la)
                            if entry not in seen:
                                seen.add(entry)
                                work.append(entry)

    changed = True
    while changed:
        changed = False
        for source, targets in propagate.items():
            las = lookaheads.get(source, ())
            for target in targets:
                bucket = lookaheads.setdefault(target, set())
                before = len(bucket)
                bucket |= las
                if len(bucket) != before:
                    changed = True

    # assemble actions and gotos
    actions: dict = {}
    gotos: dict = {}

    def add_action(state, label, action):
        key = (state, label)
        actions[key] = actions.get(key, frozenset()) | {action}

    for (state, sym), target in transitions.items():
        if sym in nonterminals:
            gotos[(state, sym)] = target
        else:
            add_action(state, sym, Action(SHIFT, target))

    for state, kernel in enumerate(kernels):
        # final items need full closure: completed items can be non-kernel
        # (empty productions) whose lookaheads come from the predicting item
        items = closure_lr0(kernel)
        la_of: dict = {}
        for item in kernel:
            la_of[item] = lookaheads.get((state, item), set())
        # recompute closure lookaheads from kernel lookaheads
        work = [(item, la) for item in kernel for la in la_of[item]]
        seen = set(work)
        while work:
            (prod_i, dot), la = work.pop()
            rhs = productions[prod_i].rhs
            if dot >= len(rhs) or rhs[dot] not in nonterminals:
                continue
            rest = rhs[dot + 1 :]
            fs, transparent = _first_of_seq(rest, first, nullable)
            las = set(fs)
            if transparent:
                las.add(la)
            for p in by_lhs[rhs[dot]]:
                for new_la in las:
                    entry = ((p.index, 0), new_la)
                    if entry not in seen:
                        seen.add(entry)
                        work.append(entry)
        by_item: dict = {}
        for (prod_i, dot), la in seen:
            by_item.setdefault((prod_i, dot), set()).add(la)
        for (prod_i, dot), las in by_item.items():
            rhs = productions[prod_i].rhs
            if dot < len(rhs):
                continue
            for la in las:
                if prod_i == aug.index:
                    add_action(state, la, Action(ACCEPT))
                else:
                    add_action(state, la, Action(REDUCE, prod_i))

    return LalrTable(
        backbone_hash=backbone.content_hash(),
        n_states=len(kernels),
        actions=actions,
        gotos=gotos,
        productions=productions,
    )


# ---------------------------------------------------------------------------
# serialization

def dump_table(table: LalrTable, path):
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


def load_table(path) -> LalrTable:
    actions: dict = {}
    gotos: dict = {}
    productions: list = []
    backbone_hash = None
    n_states = 0
    fields = {
        "backbone": (str,),
        "states": (int,),
        # index lhs rule-id ':' rhs
        "prod": (int, unesc, unesc, one_of("prod separator", ":"), unesc, ...),
        "action": (int, unesc, ACTION_KIND, int),
        "goto": (int, unesc, int),
    }
    for record, values in read_records(path, "table", fields):
        if record == "backbone":
            (backbone_hash,) = values
        elif record == "states":
            (n_states,) = values
        elif record == "prod":
            idx, lhs, rule_id, _, *rhs = values
            productions.append(Production(idx, lhs, tuple(rhs), rule_id))
        elif record == "action":
            state, label, kind, arg = values
            key = (state, label)
            actions[key] = actions.get(key, frozenset()) | {Action(kind, arg)}
        else:
            state, sym, target = values
            gotos[(state, sym)] = target
    return LalrTable(backbone_hash, n_states, actions, gotos, tuple(productions))


def read_records(path, kind: str, fields: dict, error=ValueError):
    """Yield (record name, converted values) for each line after the
    "punclr-<kind> v1" header of a table, counts or model file.

    fields maps a record name to its value converters; converters ending in
    ``...`` accept any number of further fields, converted by the converter
    before the ``...``.  A bad header or a malformed line raises error, with
    the line number.
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
            tail = converters[-2] if converters[-1] is ... else None
            fixed = converters[:-2] if tail else converters
            found = len(parts) - 1
            if found < len(fixed) or (found > len(fixed) and not tail):
                raise error(
                    "line %d: %s record needs %s%d fields, found %d"
                    % (lineno, parts[0], "at least " if tail else "", len(fixed), found)
                )
            try:
                values = [
                    conv(x) for conv, x in zip(chain(fixed, repeat(tail)), parts[1:])
                ]
            except FieldError as exc:
                raise error("line %d: %s" % (lineno, exc)) from None
            except ValueError:
                raise error(
                    "line %d: non-numeric field in %r" % (lineno, line.strip())
                ) from None
            yield parts[0], values


class FieldError(ValueError):
    """A field a read_records converter rejects, with the reason to report."""


def one_of(what: str, *allowed: str):
    """A read_records converter that accepts only the words allowed."""
    def convert(field: str) -> str:
        if field not in allowed:
            raise FieldError(
                "expected %s for the %s, found %r" % (" or ".join(allowed), what, field)
            )
        return field
    return convert


ACTION_KIND = one_of("action kind", SHIFT, REDUCE, ACCEPT)


def esc(label: str) -> str:
    """A symbol or label as one whitespace-free field of an artifact line."""
    return label.replace("%", "%25").replace(" ", "%20")


def unesc(label: str) -> str:
    return label.replace("%20", " ").replace("%25", "%")
