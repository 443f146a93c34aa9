"""Feature-annotated phrase-structure grammars over PoS and punctuation labels.

A grammar is a set of rules whose categories carry flat feature maps
(feature -> atomic value or rule-scoped variable).  Daughters may be marked
with Kleene star/plus.  Grammars compile into a context-free backbone (bare
category names, Kleene expanded) plus a residue table giving, for each
backbone production, the feature constraints to unify when it is reduced.
"""
from __future__ import annotations

import bisect
import hashlib
import itertools
import re
from typing import Mapping, NamedTuple, Optional

ONE = "one"
STAR = "star"
PLUS = "plus"

END_MARKER = "$end"


class GrammarError(Exception):
    """Raised for malformed grammar files or inconsistent grammars."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = "line %d, col %d: %s" % (line, col, message)
        super().__init__(message)


_var_counter = itertools.count(1)


class _VarFields(NamedTuple):
    name: str
    uid: int


class Var(_VarFields):
    """A rule-scoped feature variable such as ?N.

    Identity, not name, is what matters: instantiating a rule makes fresh
    variables, so bindings never leak between reductions.  Var(name) takes
    the next uid from a process-wide counter.
    """

    __slots__ = ()

    def __new__(cls, name: str, uid: Optional[int] = None):
        return super().__new__(cls, name, next(_var_counter) if uid is None else uid)

    def __repr__(self):
        return "?%s#%d" % (self.name, self.uid)


def make_features(mapping: Mapping) -> tuple:
    """Canonical feature storage: name-sorted tuple of (name, value) pairs."""
    return tuple(sorted(mapping.items()))


class Category(NamedTuple):
    """A backbone symbol plus its flat feature constraints."""

    name: str
    features: tuple = ()

    def fdict(self) -> dict:
        return dict(self.features)

    def __str__(self):
        if not self.features:
            return self.name
        inner = ", ".join(
            "%s=%s" % (f, "?" + v.name if isinstance(v, Var) else v)
            for f, v in self.features
        )
        return "%s[%s]" % (self.name, inner)


class Daughter(NamedTuple):
    cat: Category
    rep: str = ONE


class Rule(NamedTuple):
    id: str
    mother: Category
    daughters: tuple
    textual: bool = False

    def variables(self) -> set:
        out = set()
        for cat in [self.mother] + [d.cat for d in self.daughters]:
            out.update(v for _, v in cat.features if isinstance(v, Var))
        return out

    def __str__(self):
        rhs = " ".join(
            str(d.cat) + {ONE: "", STAR: "*", PLUS: "+"}[d.rep]
            for d in self.daughters
        )
        return "%s: %s -> %s" % (self.id, self.mother, rhs)


class Grammar(NamedTuple):
    rules: tuple
    terminals: frozenset
    start: str


class Production(NamedTuple):
    """One backbone production; index is its id in the LR table."""

    index: int
    lhs: str
    rhs: tuple
    rule_id: str

    def __str__(self):
        return "p%d: %s -> %s" % (self.index, self.lhs, " ".join(self.rhs) or "<empty>")


class ResidueSpec(NamedTuple):
    """Feature constraints checked when a production is reduced."""

    mother: Category
    daughters: tuple  # Category per rhs position


class CFBackbone(NamedTuple):
    productions: tuple
    terminals: frozenset
    start: str

    def nonterminals(self) -> set:
        return {p.lhs for p in self.productions}

    def content_hash(self) -> str:
        lines = ["punclr-backbone v1", "start " + self.start]
        lines += ["terminal " + t for t in sorted(self.terminals)]
        lines += [
            "prod %d %s -> %s" % (p.index, p.lhs, " ".join(p.rhs))
            for p in self.productions
        ]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# unification

class Bindings:
    """Union-find over variables with optional constant values."""

    def __init__(self):
        self._parent: dict = {}
        self._value: dict = {}

    def resolve(self, v):
        if not isinstance(v, Var):
            return v
        root = v
        while root in self._parent:
            root = self._parent[root]
        return self._value.get(root, root)

    def _root(self, v: Var) -> Var:
        while v in self._parent:
            v = self._parent[v]
        return v

    def bind(self, a, b) -> bool:
        """Make a and b equal; False on constant clash."""
        a, b = self.resolve(a), self.resolve(b)
        if isinstance(a, Var) and isinstance(b, Var):
            if a is not b:
                self._parent[a] = b
            return True
        if isinstance(a, Var):
            self._value[self._root(a)] = b
            return True
        if isinstance(b, Var):
            self._value[self._root(b)] = a
            return True
        return a == b


def unify(a, b, bindings: Optional[Bindings] = None):
    """Most general merge of two flat feature maps.

    Accepts dicts or feature tuples; returns the merged feature tuple with
    values resolved through the bindings, or None on clash.  Passing a shared
    Bindings keeps variable bindings consistent across several calls (one
    rule instantiation).
    """
    if bindings is None:
        bindings = Bindings()
    fa = dict(a) if not isinstance(a, dict) else a
    fb = dict(b) if not isinstance(b, dict) else b
    for f in fa.keys() & fb.keys():
        if not bindings.bind(fa[f], fb[f]):
            return None
    merged = {f: bindings.resolve(fa.get(f, fb.get(f))) for f in fa.keys() | fb.keys()}
    return make_features(merged)


def resolve_features(features, bindings: Bindings) -> tuple:
    return make_features({f: bindings.resolve(v) for f, v in features})


def rename_features(features, mapping: Optional[dict] = None) -> tuple:
    """Copy features giving every variable a fresh identity."""
    if mapping is None:
        mapping = {}
    out = {}
    for f, v in features:
        if isinstance(v, Var):
            if v not in mapping:
                mapping[v] = Var(v.name)
            v = mapping[v]
        out[f] = v
    return make_features(out)


def residue_signature(features) -> tuple:
    """Canonical form of a residue: variables numbered by first occurrence."""
    order: dict = {}
    sig = []
    for f, v in features:  # features are sorted by name already
        if isinstance(v, Var):
            num = order.setdefault(v, len(order))
            sig.append((f, ("?", num)))
        else:
            sig.append((f, v))
    return tuple(sig)


# ---------------------------------------------------------------------------
# grammar file parsing

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<arrow>->)
      | (?P<quoted>'(?:[^'\\]|\\.)*')
      | (?P<var>\?[A-Za-z0-9_]+)
      | (?P<sym>[A-Za-z0-9_][A-Za-z0-9_.]*)
      | (?P<punct>[\[\]=,;*+:])
    """,
    re.VERBOSE,
)

_DIRECTIVE_RE = re.compile(r"^%(\w+)\s*(.*)$")


def _tokenize_rule_text(text: str, line_offsets):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            line, col = line_offsets(pos)
            raise GrammarError("unexpected character %r" % text[pos], line, col)
        pos = m.end()
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        line, col = line_offsets(m.start())
        tokens.append((kind, m.group(), line, col))
    return tokens


class _RuleParser:
    """Recursive-descent parser for the rule portion of a grammar file."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.quoted_terminals: set = set()

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, expect_kind=None, expect_text=None):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else ("", "", 0, 0)
            raise GrammarError("unexpected end of input", last[2], last[3])
        kind, text, line, col = tok
        if expect_kind and kind != expect_kind:
            raise GrammarError("expected %s, found %r" % (expect_kind, text), line, col)
        if expect_text and text != expect_text:
            raise GrammarError("expected %r, found %r" % (expect_text, text), line, col)
        self.i += 1
        return tok

    def at(self, text) -> bool:
        tok = self.peek()
        return tok is not None and tok[1] == text

    def parse_rules(self, textual: bool):
        rules = []
        while self.peek() is not None:
            rules.append(self.parse_rule(textual))
        return rules

    def parse_rule(self, textual: bool):
        rule_id = None
        kind, text, line, col = self.peek()
        if kind == "sym" and self.i + 1 < len(self.tokens) and self.tokens[self.i + 1][1] == ":":
            self.next()
            self.next(expect_text=":")
        else:
            text = None
        rule_id = text
        mother, quoted = self.parse_category()
        if quoted:
            raise GrammarError("rule mother cannot be a quoted terminal", line, col)
        self.next(expect_text="->")
        daughters = []
        while not self.at(";"):
            cat, _ = self.parse_category()
            rep = ONE
            if self.at("*"):
                self.next()
                rep = STAR
            elif self.at("+"):
                self.next()
                rep = PLUS
            daughters.append(Daughter(cat, rep))
        self.next(expect_text=";")
        if not daughters:
            raise GrammarError("rule has no daughters", line, col)
        return rule_id, Rule("", mother, tuple(daughters), textual), (line, col)

    def parse_category(self):
        kind, text, line, col = self.next()
        if kind == "quoted":
            name = re.sub(r"\\(.)", r"\1", text[1:-1])
            if self.at("["):
                raise GrammarError("terminal %r cannot carry features" % name, line, col)
            self.quoted_terminals.add(name)
            return Category(name), True
        if kind != "sym":
            raise GrammarError("expected category symbol, found %r" % text, line, col)
        feats: dict = {}
        if self.at("["):
            self.next()
            while not self.at("]"):
                _, fname, fline, fcol = self.next(expect_kind="sym")
                self.next(expect_text="=")
                vkind, vtext, vline, vcol = self.next()
                if vkind not in ("var", "sym"):
                    raise GrammarError("expected feature value, found %r" % vtext, vline, vcol)
                if fname in feats:
                    raise GrammarError("duplicate feature %r" % fname, fline, fcol)
                feats[fname] = ("var", vtext[1:]) if vkind == "var" else ("const", vtext)
                if self.at(","):
                    self.next()
            self.next(expect_text="]")
        return Category(text, make_features(feats)), False


def _resolve_rule_vars(rule: Rule) -> Rule:
    """Replace ('var', name) placeholders with Var objects shared per rule."""
    vars_by_name: dict = {}

    def fix(cat: Category) -> Category:
        out = {}
        for f, v in cat.features:
            tag, val = v
            if tag == "var":
                if val not in vars_by_name:
                    vars_by_name[val] = Var(val)
                out[f] = vars_by_name[val]
            else:
                out[f] = val
        return Category(cat.name, make_features(out))

    return Rule(
        rule.id,
        fix(rule.mother),
        tuple(Daughter(fix(d.cat), d.rep) for d in rule.daughters),
        rule.textual,
    )


def parse_grammar_file(text: str) -> Grammar:
    """Parse grammar-file content into a validated Grammar.

    Raises GrammarError with line/column positions on syntax errors,
    duplicate rule ids, undefined symbols, or textual/syntactic feature
    overlap.
    """
    start = None
    declared_terminals: list = []
    sections: list = []  # (textual flag, rule-text, start line)
    current: list = []
    current_textual = False
    current_start_line = 1

    def flush(next_textual, next_line):
        nonlocal current, current_textual, current_start_line
        if current:
            sections.append((current_textual, current, current_start_line))
        current = []
        current_textual = next_textual
        current_start_line = next_line

    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        m = _DIRECTIVE_RE.match(stripped)
        if m:
            word, rest = m.group(1), m.group(2).strip()
            if word == "start":
                if not rest:
                    raise GrammarError("%start needs a symbol", lineno, 1)
                start = rest.split()[0]
            elif word == "terminals":
                declared_terminals.extend(rest.split())
            elif word == "textual":
                flush(True, lineno)
            elif word == "syntactic":
                flush(False, lineno)
            else:
                raise GrammarError("unknown directive %%%s" % word, lineno, 1)
            current.append("")  # keep line numbering aligned
            continue
        current.append(raw)

    flush(False, 0)

    rules: list = []
    seen_ids: dict = {}
    quoted_terminals: set = set()
    auto = itertools.count(1)
    for textual, lines, start_line in sections:
        body = "\n".join(lines)
        offsets = _make_line_offsets(body, start_line)
        tokens = _tokenize_rule_text(body, offsets)
        parser = _RuleParser(tokens)
        parsed = parser.parse_rules(textual)
        quoted_terminals |= parser.quoted_terminals
        for rule_id, rule, (line, col) in parsed:
            if rule_id is None:
                rule_id = "r%d" % next(auto)
            if rule_id in seen_ids:
                raise GrammarError(
                    "duplicate rule id %r (first defined at line %d)"
                    % (rule_id, seen_ids[rule_id]),
                    line,
                    col,
                )
            seen_ids[rule_id] = line
            rule = Rule(rule_id, rule.mother, rule.daughters, rule.textual)
            rules.append((_resolve_rule_vars(rule), line, col))

    if not rules:
        raise GrammarError("grammar has no rules")

    mothers = {r.mother.name for r, _, _ in rules}
    terminals = set(declared_terminals) | quoted_terminals
    for r, line, col in rules:
        if r.mother.name in terminals:
            raise GrammarError(
                "terminal %r used as a rule mother" % r.mother.name, line, col
            )
    # Feature specs on terminal daughters are legal but vacuous: a leaf has no
    # features, so unification against it only links variables.
    for r, line, col in rules:
        for d in r.daughters:
            name = d.cat.name
            if name not in mothers and name not in terminals:
                raise GrammarError("undefined symbol %r" % name, line, col)

    if start is None:
        start = rules[0][0].mother.name
    if start not in mothers:
        raise GrammarError("start symbol %r is not the mother of any rule" % start)

    syntactic_feats = set()
    textual_feats = set()
    for r, line, col in rules:
        names = {f for f, _ in r.mother.features}
        for d in r.daughters:
            names |= {f for f, _ in d.cat.features}
        (textual_feats if r.textual else syntactic_feats).update(names)
    overlap = syntactic_feats & textual_feats
    if overlap:
        raise GrammarError(
            "features %s used by both textual and syntactic rules"
            % ", ".join(sorted(overlap))
        )

    grammar = Grammar(tuple(r for r, _, _ in rules), frozenset(terminals), start)
    return grammar


def _make_line_offsets(text: str, first_line: int):
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)

    def locate(pos: int):
        idx = bisect.bisect_right(starts, pos) - 1
        return first_line + idx, pos - starts[idx] + 1

    return locate


def load_grammar(path) -> Grammar:
    with open(path, encoding="utf-8") as fh:
        return parse_grammar_file(fh.read())


# ---------------------------------------------------------------------------
# Kleene expansion and backbone compilation

def expand_kleene(grammar: Grammar) -> Grammar:
    """Rewrite star/plus daughters via fresh left-recursive auxiliary symbols.

    A shared variable on an iterated daughter (one that also occurs elsewhere
    in the rule) is threaded through the auxiliary, so every repetition must
    agree on it; variables local to the daughter stay local to each
    repetition.  The empty case of star becomes an internal zero-daughter
    rule, which compiles to an empty backbone production.
    """
    out: list = []
    for rule in grammar.rules:
        if all(d.rep == ONE for d in rule.daughters):
            out.append(rule)
            continue
        occurrences = [
            {v for _, v in d.cat.features if isinstance(v, Var)} for d in rule.daughters
        ]
        mother_vars = {v for _, v in rule.mother.features if isinstance(v, Var)}
        new_daughters = []
        for idx, d in enumerate(rule.daughters):
            if d.rep == ONE:
                new_daughters.append(d)
                continue
            elsewhere = mother_vars.union(
                *(occ for i, occ in enumerate(occurrences) if i != idx)
            )
            shared = {
                f: v
                for f, v in d.cat.features
                if isinstance(v, Var) and v in elsewhere
            }
            aux_name = "%s*%s@%d" % (d.cat.name, rule.id, idx)
            aux_cat = Category(aux_name, make_features(shared))
            new_daughters.append(Daughter(aux_cat))
            iter_rule = Rule(
                "%s@%d.iter" % (rule.id, idx),
                aux_cat,
                (Daughter(aux_cat), Daughter(d.cat)),
                rule.textual,
            )
            if d.rep == STAR:
                base = Rule("%s@%d.none" % (rule.id, idx), Category(aux_name), (), rule.textual)
            else:
                base = Rule(
                    "%s@%d.first" % (rule.id, idx),
                    aux_cat,
                    (Daughter(d.cat),),
                    rule.textual,
                )
            out.append(_freshen_rule(base))
            out.append(_freshen_rule(iter_rule))
        out.append(Rule(rule.id, rule.mother, tuple(new_daughters), rule.textual))
    return Grammar(tuple(out), grammar.terminals, grammar.start)


def _freshen_rule(rule: Rule) -> Rule:
    mapping: dict = {}
    mother = Category(rule.mother.name, rename_features(rule.mother.features, mapping))
    daughters = tuple(
        Daughter(Category(d.cat.name, rename_features(d.cat.features, mapping)), d.rep)
        for d in rule.daughters
    )
    return Rule(rule.id, mother, daughters, rule.textual)


def compile_backbone(grammar: Grammar):
    """Project rule categories to bare names; return (CFBackbone, residues).

    residues maps production index -> ResidueSpec.  The grammar must already
    be Kleene-expanded.  Rejects grammars whose unit-derivation relation is
    cyclic (those have infinitely ambiguous strings, which a counting parser
    cannot represent) and grammars with a nonterminal that derives no
    terminal string (its rules could never take part in a parse).
    """
    productions = []
    residues = {}
    for rule in grammar.rules:
        for d in rule.daughters:
            if d.rep != ONE:
                raise GrammarError("grammar is not Kleene-expanded: %s" % (rule,))
        idx = len(productions)
        productions.append(
            Production(idx, rule.mother.name, tuple(d.cat.name for d in rule.daughters), rule.id)
        )
        residues[idx] = ResidueSpec(rule.mother, tuple(d.cat for d in rule.daughters))
    backbone = CFBackbone(tuple(productions), grammar.terminals, grammar.start)
    _check_unit_cycles(backbone)
    productive = least_closed(((p.lhs, p.rhs) for p in productions), grammar.terminals)
    unproductive = backbone.nonterminals() - productive
    if unproductive:
        raise GrammarError(
            "nonterminals that derive no terminal string: %s"
            % ", ".join(repr(n) for n in sorted(unproductive))
        )
    return backbone, residues


def least_closed(clauses, seed=()) -> set:
    """The least set that holds seed and the head of every clause (head,
    body) whose body lies wholly in it.  Each clause counts its body symbols
    still outside, and each symbol added counts down the clauses it occurs
    in (Dowling & Gallier 1984), so the cost is linear in the clauses' size."""
    heads, missing, occurs = [], [], {}
    work = list(seed)
    for head, body in clauses:
        if not body:
            work.append(head)
        for sym in body:
            occurs.setdefault(sym, []).append(len(heads))
        heads.append(head)
        missing.append(len(body))
    out = set()
    while work:
        sym = work.pop()
        if sym not in out:
            out.add(sym)
            for i in occurs.get(sym, ()):
                missing[i] -= 1
                if not missing[i]:
                    work.append(heads[i])
    return out


def nullable_symbols(backbone: CFBackbone) -> set:
    return least_closed((p.lhs, p.rhs) for p in backbone.productions)


def _check_unit_cycles(backbone: CFBackbone):
    """Reject cyclic unit derivations.  n's unit successors are the
    nonterminals in n's right-hand sides whose siblings are all nullable.
    Outside the least set closed under `n <- n's unit successors` lie the
    nonterminals on a cycle or leading to one; walking from the first of
    them along first successors outside, in production order, repeats a
    symbol on a cycle, and the error names it."""
    nullable = nullable_symbols(backbone)
    successors = {p.lhs: {} for p in backbone.productions}  # insertion-ordered sets
    for p in backbone.productions:
        blocking = [s for s in p.rhs if s not in nullable]
        if len(blocking) < 2:  # the one non-nullable symbol, or all when none is
            successors[p.lhs].update((s, None) for s in blocking or p.rhs if s in successors)
    acyclic = least_closed(successors.items())
    left = [n for n in successors if n not in acyclic]
    if left:
        n, seen = left[0], set()
        while n not in seen:
            seen.add(n)
            n = next(m for m in successors[n] if m not in acyclic)
        raise GrammarError(
            "grammar is infinitely ambiguous: cyclic unit derivation through %r" % n
        )


def compile_grammar(grammar: Grammar):
    """Convenience: expand Kleene marks then compile the backbone."""
    return compile_backbone(expand_kleene(grammar))
