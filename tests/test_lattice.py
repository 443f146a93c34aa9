import pytest
from hypothesis import given, strategies as st

from punclr.lattice import (
    TaggedInputError,
    TaggedToken,
    parse_plain_line,
    parse_tagged_line,
    threshold_labels,
    to_lattice,
)


def test_parse_two_single_hypothesis_tokens():
    toks = parse_tagged_line("The|AT:0.99 dog|NN1:0.97")
    assert len(toks) == 2
    assert toks[0].word == "The"
    assert toks[0].hypotheses == (("AT", 0.99),)
    assert toks[1].hypotheses == (("NN1", 0.97),)


def test_parse_multi_hypothesis_sorted():
    (tok,) = parse_tagged_line("head|VV0:0.3|NN1:0.6")
    assert tok.hypotheses == (("NN1", 0.6), ("VV0", 0.3))


def test_likelihood_out_of_range_rejected():
    with pytest.raises(TaggedInputError):
        parse_tagged_line("dog|NN1:1.5")
    with pytest.raises(TaggedInputError):
        parse_tagged_line("dog|NN1:0.0")


def test_repeated_label_rejected():
    with pytest.raises(TaggedInputError, match="token 'a' lists label a twice"):
        parse_tagged_line("a|a:0.5|a:0.3")
    with pytest.raises(TaggedInputError, match="lists label NN1 twice"):
        TaggedToken("head", (("NN1", 0.6), ("VV0", 0.3), ("NN1", 0.6)))


def test_malformed_token_rejected():
    with pytest.raises(TaggedInputError):
        parse_tagged_line("bareword")
    with pytest.raises(TaggedInputError):
        parse_tagged_line("dog|NN1")


def test_escaped_pipe_in_word():
    (tok,) = parse_tagged_line(r"a\|b|NN1:0.5")
    assert tok.word == "a|b"
    assert tok.hypotheses == (("NN1", 0.5),)


def test_plain_mode():
    toks = parse_plain_line("The_AT disembodied_VVN head_NN1")
    assert [t.word for t in toks] == ["The", "disembodied", "head"]
    assert all(t.hypotheses[0][1] == 1.0 for t in toks)
    assert [t.hypotheses[0][0] for t in toks] == ["AT", "VVN", "NN1"]


def test_plain_mode_rejects_unlabelled():
    with pytest.raises(TaggedInputError):
        parse_plain_line("word")


# ---------------------------------------------------------------------------
# thresholding

def T(**labels):
    return TaggedToken("w", tuple(labels.items()))


def kept_labels(token):
    return {label for label, _ in token.hypotheses}


def test_threshold_confident_top_only():
    assert kept_labels(threshold_labels(T(A=0.95, B=0.04))) == {"A"}


def test_threshold_factor_rule():
    tok = T(A=0.60, B=0.013, C=0.011)
    assert kept_labels(threshold_labels(tok)) == {"A", "B"}


def test_threshold_single_hypothesis():
    assert kept_labels(threshold_labels(T(A=0.90))) == {"A"}


def test_threshold_boundary_exactly_point_nine_is_confident():
    # "less than 0.9" is strict: a top of exactly 0.9 keeps only the top
    tok = T(A=0.90, B=0.5)
    assert kept_labels(threshold_labels(tok)) == {"A"}


def test_threshold_factor_boundary_inclusive():
    tok = T(A=0.5, B=0.01)
    assert kept_labels(threshold_labels(tok)) == {"A", "B"}


likelihoods = st.lists(
    st.floats(min_value=0.001, max_value=1.0, allow_nan=False), min_size=1, max_size=6
)


@given(likelihoods)
def test_threshold_keeps_nonempty_prefix(liks):
    tok = TaggedToken("w", tuple(("L%d" % i, p) for i, p in enumerate(liks)))
    out = threshold_labels(tok)
    assert len(out.hypotheses) >= 1
    kept = [h[1] for h in out.hypotheses]
    all_sorted = [h[1] for h in tok.hypotheses]
    assert kept == all_sorted[: len(kept)]
    # anything dropped is no more likely than anything kept
    dropped = all_sorted[len(kept):]
    assert all(d <= min(kept) for d in dropped)


@given(likelihoods)
def test_threshold_idempotent(liks):
    tok = TaggedToken("w", tuple(("L%d" % i, p) for i, p in enumerate(liks)))
    once = threshold_labels(tok)
    twice = threshold_labels(once)
    assert once == twice


@given(likelihoods)
def test_threshold_identity_and_top_only_extremes(liks):
    tok = TaggedToken("w", tuple(("L%d" % i, p) for i, p in enumerate(liks)))
    identity = threshold_labels(tok, certainty=1.0, ratio=float("inf"))
    if tok.hypotheses[0][1] < 1.0:
        assert identity == tok
    top_only = threshold_labels(tok, certainty=0.0)
    top = tok.hypotheses[0][1]
    assert all(p == top for _, p in top_only.hypotheses)


def test_to_lattice_applies_threshold():
    toks = parse_tagged_line("x|A:0.95|B:0.04 y|C:0.5|D:0.2")
    lat = to_lattice(toks)
    assert [t.word for t in lat.tokens] == ["x", "y"]
    assert {l for l, _ in lat.tokens[0].labels} == {"A"}
    assert {l for l, _ in lat.tokens[1].labels} == {"C", "D"}
