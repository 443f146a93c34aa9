import contextlib
import sys
import traceback
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

FIXTURES = ROOT / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def compile_fixture(name):
    from punclr.grammar import compile_grammar, load_grammar
    from punclr.lalr import build_lalr

    grammar = load_grammar(FIXTURES / name)
    backbone, residues = compile_grammar(grammar)
    return grammar, backbone, residues, build_lalr(backbone)


def unit_chain_grammar(links, cyclic=False):
    """A0 -> A1 -> ... -> A<links> -> 'a', each a unit production; with
    cyclic, also A<links> -> A0."""
    rules = ["A%d -> A%d ;\n" % (i, i + 1) for i in range(links)]
    rules.append("A%d -> 'a' ;\n" % links)
    if cyclic:
        rules.append("A%d -> A0 ;\n" % links)
    return "%start A0\n" + "".join(rules)


@contextlib.contextmanager
def recursion_headroom(frames):
    """Lower the interpreter's recursion limit to `frames` above the caller's
    depth, so that code recursing once per input item fails on any input
    longer than that, whatever order it happens to visit the items in."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)
