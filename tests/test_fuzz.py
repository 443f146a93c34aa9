"""Fuzz gate: mutated input files reach a one-line error, never a traceback.

Each case mutates a fixture file (a grammar, a tagged input in either
format, or a model trained from a fixture treebank) by deleting spans,
inserting syntax characters, duplicating spans and truncating, and runs the
result through cli.main in process, under every command that reads that
kind of file.
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
# word|LABEL:prob and word_LABEL tokens: their separators, escapes, numbers
# and the floats a likelihood must not be
TAGGED_SYNTAX = st.one_of(
    st.text("|:_\\ #\n\0.-e0123456789", min_size=1, max_size=3),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "2", "-0.5"]),
)
# model records' names, action kinds, separators, escapes and numbers, and
# the floats a probability must not be
MODEL_SYNTAX = st.one_of(
    st.text(" \n\0%.-e0123456789", min_size=1, max_size=3),
    st.sampled_from(["prob", "unseen", "table", "shift", "reduce", "accept", "nan", "inf",
                     "1e400", "0", "2", "-0.5"]),
)
# truncating leaves few rules, so it is drawn least
EDITS = ("delete", "insert", "duplicate") * 3 + ("truncate",)


@st.composite
def mutated(draw, texts, inserts):
    """One of texts after one to four random edits, each insert drawn from
    inserts."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        edit = draw(st.sampled_from(EDITS))
        if edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "insert":
            text = text[:i] + draw(inserts) + text[i:]
        elif edit == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i]
    return text


def run_main(argv):
    """cli.main(argv) in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_ok_or_one_error_line(code, err):
    if code == 0:
        assert err == ""
    else:
        assert code == 2, (code, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated"


TAGSEQ = FIXTURES / "tagseq.gr"


@pytest.fixture(scope="module")
def tagseq_model(tmp_path_factory):
    """The model the train command writes for tagseq.gr from tagseq_gold.tb."""
    model = tmp_path_factory.mktemp("model") / "tagseq.model"
    code, _, err = run_main(["train", "--grammar", str(TAGSEQ), "--treebank",
                             str(FIXTURES / "tagseq_gold.tb"), "--model-out", str(model)])
    assert code == 0, err
    return model


def assert_ranks_or_fails_on_one_line(model, flags, path):
    for nbest in ("1", "10"):
        code, _, err = run_main(["rank", "--grammar", str(TAGSEQ), "--model", str(model),
                                 "--nbest", nbest, *flags, str(path)])
        assert_ok_or_one_error_line(code, err)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=mutated(GRAMMARS, st.text(SYNTAX, min_size=1, max_size=3)))
def test_mutated_grammar_compiles_or_fails_on_one_line(path, text):
    # each grammar that compiles must give the core-merge oracle's table
    path.write_text(text, encoding="utf-8")
    code, out, err = run_main(["compile", str(path)])
    assert_ok_or_one_error_line(code, err)
    if code == 0:
        assert "table hash" in out
        _, backbone, _, table = cli.load_artifacts(path)
        assert_reduces_equal_core_merge(table, backbone)


# the fixture inputs of each format, keyed by --plain
TAGGED = {False: [(FIXTURES / "tagged_example.txt").read_text(encoding="utf-8")],
          True: [(FIXTURES / "tagged_plain.txt").read_text(encoding="utf-8")]}


@pytest.mark.parametrize("plain", [False, True], ids=["tagged", "plain"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_tagged_input_parses_or_fails_on_one_line(path, tagseq_model, plain, data):
    path.write_text(data.draw(mutated(TAGGED[plain], TAGGED_SYNTAX)), encoding="utf-8")
    flags = ["--plain"] if plain else []
    for command in ("parse", "stats"):
        code, _, err = run_main([command, "--grammar", str(TAGSEQ), *flags, str(path)])
        assert_ok_or_one_error_line(code, err)
    assert_ranks_or_fails_on_one_line(tagseq_model, flags, path)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_model_ranks_or_fails_on_one_line(path, tagseq_model, data):
    text = tagseq_model.read_text(encoding="utf-8")
    path.write_text(data.draw(mutated([text], MODEL_SYNTAX)), encoding="utf-8")
    assert_ranks_or_fails_on_one_line(path, [], FIXTURES / "tagged_example.txt")
