"""Parenthesis-nested treebank reading.

One tree per line, labels optional: ``(S (NP the dog) (VP barks))`` or
``((NP the dog) (VP barks))``.
"""
from __future__ import annotations

from .glr import Tree


class TreebankError(ValueError):
    pass


def parse_tree_line(line: str) -> Tree:
    """Parse one parenthesis tree.

    An atom directly after '(' is the node label (a '(' there means the
    label was omitted).  Open constituents live on an explicit stack, so
    nesting depth is not bounded by the interpreter's recursion limit.
    """
    tokens = line.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise TreebankError("unexpected end of tree")
    open_nodes = []  # (label, children so far) per unclosed '('
    leaf_index = 0
    pos = 0
    while True:
        if pos == len(tokens):
            raise TreebankError("missing ')'")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            label = ""
            if pos < len(tokens) and tokens[pos] not in ("(", ")"):
                label = tokens[pos]
                pos += 1
            open_nodes.append((label, []))
            continue
        if tok == ")":
            if not open_nodes:
                raise TreebankError("unexpected ')'")
            label, children = open_nodes.pop()
            if not children:
                raise TreebankError("empty constituent")
            tree = Tree(label, tuple(children), children[0].start, children[-1].end)
        else:
            tree = Tree(tok, (), leaf_index, leaf_index + 1, tok)
            leaf_index += 1
        if not open_nodes:
            break
        open_nodes[-1][1].append(tree)
    if pos != len(tokens):
        raise TreebankError("trailing material after tree: %r" % tokens[pos:])
    return tree


def read_treebank(path):
    """Yield (lineno, Tree) per non-empty line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                yield lineno, parse_tree_line(line)
            except TreebankError as exc:
                raise TreebankError("line %d: %s" % (lineno, exc)) from None


def preorder(tree: Tree):
    """Every subtree, parents before children, left to right."""
    stack = [tree]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(t.children))


def tree_leaves(tree: Tree):
    return [t.word or t.label for t in preorder(tree) if t.is_leaf()]


def internal_spans(tree: Tree):
    """Spans of every internal node, root included, as a list (multiset)."""
    return [(t.start, t.end) for t in preorder(tree) if not t.is_leaf()]


def format_tree(tree: Tree) -> str:
    out = []
    stack = [tree]  # subtrees still to print, and the text between them
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.is_leaf():
            out.append(item.word or item.label)
        else:
            out.append("(%s " % item.label if item.label else "(")
            stack.append(")")
            for i, child in enumerate(reversed(item.children)):
                if i:
                    stack.append(" ")
                stack.append(child)
    return "".join(out)
