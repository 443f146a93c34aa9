"""Tagged-text ingestion: multiple label hypotheses per word, thresholded.

Input lines hold whitespace-separated tokens of the form
``word|LABEL:prob|LABEL:prob``; a literal ``|`` in a word is escaped as
``\\|``.  A plain mode accepts pre-disambiguated ``word_LABEL`` tokens with
implicit likelihood 1.0.  Punctuation marks are ordinary tokens carrying
punctuation labels; what they do is the grammar's business, not the
reader's.

Thresholding keeps the highest-ranked label always; when the top label's
likelihood is below the certainty cutoff (strictly), every label within the
given factor of the top one is kept as well, boundary inclusive.
"""
from __future__ import annotations

import re

from .glr import SentenceLattice, Token


class TaggedInputError(ValueError):
    pass


class TaggedToken:
    __slots__ = ("word", "hypotheses")

    def __init__(self, word: str, hypotheses: tuple):
        if not hypotheses:
            raise TaggedInputError("token %r has no label hypotheses" % word)
        seen = set()
        for label, lik in hypotheses:
            if label in seen:
                raise TaggedInputError("token %r lists label %s twice" % (word, label))
            seen.add(label)
            if not 0 < lik <= 1:
                raise TaggedInputError(
                    "likelihood %r of %s|%s outside (0, 1]" % (lik, word, label)
                )
        self.word = word
        # ((label, likelihood), ...) non-increasing
        self.hypotheses = tuple(sorted(hypotheses, key=lambda h: (-h[1], h[0])))

    def __eq__(self, other):
        if not isinstance(other, TaggedToken):
            return NotImplemented
        return (self.word, self.hypotheses) == (other.word, other.hypotheses)


_SPLIT_RE = re.compile(r"(?<!\\)\|")


def parse_tagged_line(line: str):
    """One sentence of word|LABEL:prob tokens -> list of TaggedToken."""
    tokens = []
    for field in line.split():
        parts = _SPLIT_RE.split(field)
        if len(parts) < 2:
            raise TaggedInputError("token %r has no label hypotheses" % field)
        word = parts[0].replace("\\|", "|")
        hyps = []
        for part in parts[1:]:
            if ":" not in part:
                raise TaggedInputError("malformed hypothesis %r in %r" % (part, field))
            label, _, raw = part.rpartition(":")
            try:
                lik = float(raw)
            except ValueError:
                raise TaggedInputError("bad likelihood %r in %r" % (raw, field)) from None
            if not label:
                raise TaggedInputError("empty label in %r" % field)
            hyps.append((label, lik))
        tokens.append(TaggedToken(word, tuple(hyps)))
    return tokens


def parse_plain_line(line: str):
    """Pre-disambiguated word_LABEL tokens, likelihood 1.0."""
    tokens = []
    for field in line.split():
        word, sep, label = field.rpartition("_")
        if not sep or not label:
            raise TaggedInputError("token %r is not word_LABEL" % field)
        tokens.append(TaggedToken(word, ((label, 1.0),)))
    return tokens


def threshold_labels(token: TaggedToken, certainty: float = 0.9, ratio: float = 50.0) -> TaggedToken:
    """Apply the retention rule to one token's hypotheses.

    The top label always survives.  If its likelihood reaches the certainty
    cutoff, only labels tied with it survive; otherwise everything within
    the given factor of the top likelihood survives (inclusive).
    """
    top = token.hypotheses[0][1]
    if top >= certainty:
        kept = tuple(h for h in token.hypotheses if h[1] == top)
    else:
        kept = tuple(h for h in token.hypotheses if h[1] * ratio >= top)
    return TaggedToken(token.word, kept)


def to_lattice(tokens, certainty: float = 0.9, ratio: float = 50.0) -> SentenceLattice:
    """TaggedTokens -> SentenceLattice, each token thresholded."""
    out = []
    for i, tok in enumerate(tokens):
        tok = threshold_labels(tok, certainty, ratio)
        out.append(Token(tok.word, i, tok.hypotheses))
    return SentenceLattice(tuple(out))


def read_tagged_file(path, plain: bool = False):
    """Yield one list of TaggedTokens per non-empty line."""
    parse = parse_plain_line if plain else parse_tagged_line
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                yield parse(line)
            except TaggedInputError as exc:
                raise TaggedInputError("line %d: %s" % (lineno, exc)) from None
