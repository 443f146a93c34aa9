"""Feature-annotated phrase-structure grammars over PoS and punctuation labels.

A grammar is a set of rules whose categories carry flat feature maps
(feature -> atomic value or rule-scoped variable).  Daughters may be marked
with Kleene star/plus.  Grammars compile into a context-free backbone (bare
category names, Kleene expanded) plus a residue table giving, for each
backbone production, the feature constraints to unify when it is reduced.
A grammar file is read by one tokenizer pass over its whole text and one
recursive-descent reader (parse_grammar_file; the README gives the format).
"""
from __future__ import annotations

import bisect
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

    Var(name) takes the next uid from a process-wide counter, so the
    variables a grammar file or rename_features makes are all distinct.
    Residues in a forest hold canonical variables instead, Var("", n)
    (canonical_residue), so that equal residues compare equal.
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
        # imported here: hashlib loads OpenSSL (about 2 ms and 3.7 MB), and
        # only the commands that print or store a hash need it
        import hashlib

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


def canonical_residue(features) -> tuple:
    """Features with their variables renamed Var("", 0), Var("", 1), ... by
    first occurrence: shared by two residues exactly when they are equal up
    to renaming variables, names ignored."""
    order: dict = {}
    return tuple((f, order.setdefault(v, Var("", len(order))) if isinstance(v, Var) else v)
                 for f, v in features)


class Residues(dict):
    """Production index -> ResidueSpec, built once per compiled grammar.
    featureless: the productions whose spec has no feature, whose mother's
    residue is ().  memo: (production index, canonical child residues) ->
    the mother's canonical residue, or None on a clash; its keys range over
    the productions and the canonical residues over the grammar's atoms, so
    it is bounded by the grammar, not by the sentences it serves."""

    __slots__ = ("featureless", "memo")

    def __init__(self, specs: dict):
        super().__init__(specs)
        self.featureless = {
            index for index, spec in specs.items()
            if not spec.mother.features and not any(d.features for d in spec.daughters)
        }
        self.memo: dict = {}

    def reduce(self, key):
        """Fill and return memo[key]: unify each child, renamed apart, with its
        daughter under one set of bindings; resolve the mother through them."""
        index, children = key
        spec = self[index]
        bindings = Bindings()
        mother = None
        for daughter, child in zip(spec.daughters, children):
            if unify(daughter.features, rename_features(child), bindings) is None:
                break
        else:
            mother = canonical_residue(resolve_features(spec.mother.features, bindings))
        self.memo[key] = mother
        return mother


# ---------------------------------------------------------------------------
# grammar file reading

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<directive>%(?P<word>\w+)(?P<args>[^\n#]*))
      | (?P<arrow>->)
      | (?P<quoted>'(?:[^'\\]|\\.)*')
      | (?P<var>\?[A-Za-z0-9_]+)
      | (?P<sym>[A-Za-z0-9_][A-Za-z0-9_.]*)
      | (?P<punct>[\[\]=,;*+:])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list:
    """The tokens of a whole grammar file, as (kind, text, line, col).  A
    directive runs from its '%' to a '#' or the end of its line, and must
    open its line: any other '%' is an unexpected character."""
    line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        kind = m and m.lastgroup
        if kind not in ("ws", "comment"):
            line = bisect.bisect_right(line_starts, pos)
            col = pos - line_starts[line - 1] + 1
            if not m or kind == "directive" and text[line_starts[line - 1]:pos].strip():
                raise GrammarError("unexpected character %r" % text[pos], line, col)
            tokens.append((kind, m.group().rstrip(), line, col))
        pos = m.end()
    return tokens


class _Reader:
    """Recursive-descent reader over a grammar file's tokens.  Directives
    take effect where they stand, and each rule's variables are made as its
    categories are read: one Var per name per rule, in the order of the
    categories and of their (name-sorted) features."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.start = None
        self.terminals: set = set()  # declared and quoted
        self.textual = False
        self.vars: dict = {}  # name -> Var, for the rule being read

    def next(self, kind=None, text=None):
        if self.i == len(self.tokens):
            _, _, line, col = self.tokens[-1]
            raise GrammarError("unexpected end of input", line, col)
        tok = self.tokens[self.i]
        if kind and tok[0] != kind:
            raise GrammarError("expected %s, found %r" % (kind, tok[1]), *tok[2:])
        if text and tok[1] != text:
            raise GrammarError("expected %r, found %r" % (text, tok[1]), *tok[2:])
        self.i += 1
        return tok

    def at(self, text, ahead=0) -> bool:
        i = self.i + ahead
        return i < len(self.tokens) and self.tokens[i][1] == text

    def read(self) -> list:
        """(explicit rule id or None, mother, daughters, textual, line, col)
        for each rule in file order."""
        rules = []
        while self.i < len(self.tokens):
            kind, text, line, _ = self.tokens[self.i]
            if kind == "directive":
                self.i += 1
                self.directive(text, line)
            else:
                rules.append(self.rule())
        return rules

    def directive(self, text, line):
        # errors point at the start of the directive's line
        word, args = _TOKEN_RE.match(text).group("word", "args")
        args = args.split()
        if word == "start":
            if not args:
                raise GrammarError("%start needs a symbol", line, 1)
            self.start = args[0]
        elif word == "terminals":
            self.terminals.update(args)
        elif word in ("textual", "syntactic"):
            self.textual = word == "textual"
        else:
            raise GrammarError("unknown directive %%%s" % word, line, 1)

    def rule(self):
        kind, rule_id, line, col = self.tokens[self.i]
        if kind == "sym" and self.at(":", 1):
            self.i += 2
        else:
            rule_id = None
        self.vars = {}
        mother, quoted = self.category()
        if quoted:
            raise GrammarError("rule mother cannot be a quoted terminal", line, col)
        self.next(text="->")
        daughters = []
        while not self.at(";"):
            cat, _ = self.category()
            rep = ONE
            if self.at("*") or self.at("+"):
                rep = STAR if self.next()[1] == "*" else PLUS
            daughters.append(Daughter(cat, rep))
        self.next(text=";")
        if not daughters:
            raise GrammarError("rule has no daughters", line, col)
        return rule_id, mother, tuple(daughters), self.textual, line, col

    def category(self):
        """The next category, and whether it is a quoted terminal."""
        kind, text, line, col = self.next()
        if kind == "quoted":
            name = re.sub(r"\\(.)", r"\1", text[1:-1])
            if not name:
                raise GrammarError("quoted terminal is empty", line, col)
            if any(map(str.isspace, name)):
                raise GrammarError("quoted terminal %r contains whitespace" % name, line, col)
            if self.at("["):
                raise GrammarError("terminal %r cannot carry features" % name, line, col)
            self.terminals.add(name)
            return Category(name), True
        if kind != "sym":
            raise GrammarError("expected category symbol, found %r" % text, line, col)
        feats: dict = {}
        if self.at("["):
            self.i += 1
            while not self.at("]"):
                _, fname, fline, fcol = self.next("sym")
                self.next(text="=")
                vkind, value, vline, vcol = self.next()
                if vkind not in ("var", "sym"):
                    raise GrammarError("expected feature value, found %r" % value, vline, vcol)
                if fname in feats:
                    raise GrammarError("duplicate feature %r" % fname, fline, fcol)
                feats[fname] = value
                if self.at(","):
                    self.i += 1
            self.next(text="]")
        return Category(text, tuple((f, self.var(v[1:]) if v[0] == "?" else v)
                                    for f, v in sorted(feats.items()))), False

    def var(self, name: str) -> Var:
        v = self.vars.get(name)
        if v is None:
            v = self.vars[name] = Var(name)
        return v


def parse_grammar_file(text: str) -> Grammar:
    """Read grammar-file content into a validated Grammar.

    One tokenizer pass covers the whole text and one reader consumes its
    tokens.  Rules without an id are numbered r1, r2, ... in file order,
    skipping the ids the file names.  Raises GrammarError, with line/column
    positions where they apply, on syntax errors, duplicate rule ids,
    terminals used as mothers, undefined symbols, a start symbol that is no
    rule's mother, or textual/syntactic feature overlap.
    """
    reader = _Reader(_tokenize(text))
    parsed = reader.read()
    named: dict = {}  # explicit rule id -> its line
    for rule_id, *_, line, col in parsed:
        if rule_id in named:
            raise GrammarError("duplicate rule id %r (first defined at line %d)"
                               % (rule_id, named[rule_id]), line, col)
        if rule_id is not None:
            named[rule_id] = line
    auto = (rid for rid in map("r%d".__mod__, itertools.count(1)) if rid not in named)
    rules = [(Rule(rule_id or next(auto), mother, daughters, textual), line, col)
             for rule_id, mother, daughters, textual, line, col in parsed]

    if not rules:
        raise GrammarError("grammar has no rules")

    mothers = {r.mother.name for r, _, _ in rules}
    terminals = reader.terminals
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

    start = reader.start
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

    return Grammar(tuple(r for r, _, _ in rules), frozenset(terminals), start)


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
    """Project rule categories to bare names; return (CFBackbone, Residues).

    The grammar must already be Kleene-expanded.  Rejects grammars whose
    unit-derivation relation is cyclic (those have infinitely ambiguous
    strings, which a counting parser cannot represent) and grammars with a
    nonterminal that derives no terminal string (its rules could never take
    part in a parse).
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
    return backbone, Residues(residues)


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
