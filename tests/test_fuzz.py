"""Fuzz gate: mutated input files reach a one-line error, never a traceback.

Each case mutates a fixture grammar by deleting spans, inserting syntax
characters, duplicating spans and truncating, and runs the result through
cli.main in process.
"""
import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from punclr import cli
from conftest import FIXTURES
from test_lalr import assert_reduces_equal_core_merge

GRAMMARS = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.gr"))]
SYNTAX = "()[]=?*+;:'|%#\n\0"
# truncating leaves few rules, so it is drawn least
EDITS = ("delete", "insert", "duplicate") * 3 + ("truncate",)


@st.composite
def mutated_grammar(draw):
    """A fixture grammar after one to four random edits."""
    text = draw(st.sampled_from(GRAMMARS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        edit = draw(st.sampled_from(EDITS))
        if edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "insert":
            text = text[:i] + draw(st.text(SYNTAX, min_size=1, max_size=3)) + text[i:]
        elif edit == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i]
    return text


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=mutated_grammar())
def test_mutated_grammar_compiles_or_fails_on_one_line(path, text):
    # each grammar that compiles must give the core-merge oracle's table
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["compile", str(path)])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "" and "table hash" in out
        _, backbone, _, table = cli.load_artifacts(path)
        assert_reduces_equal_core_merge(table, backbone)
    else:
        assert code == 2, (code, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
