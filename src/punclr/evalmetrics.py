"""GEIG bracketing metrics, the average parse base, and coverage statistics.

Bracket comparison is over unlabelled spans.  Spans of length one are
excluded from extraction (they can neither cross nor discriminate); the
whole-sentence span is kept.  Recall and precision aggregate micro-style:
matched over all gold brackets, matched over all candidate brackets.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .glr import Tree
from .trees import internal_spans


class BracketSet:
    __slots__ = ("length", "spans")

    def __init__(self, length: int, spans: tuple):
        for start, end in spans:
            if not 0 <= start < end <= length:
                raise ValueError("span (%d, %d) outside sentence of length %d"
                                 % (start, end, length))
        self.length = length
        self.spans = tuple(sorted(spans))  # multiset of (start, end)


def extract_brackets(tree: Tree) -> BracketSet:
    """One span per internal node of length >= 2; labels discarded."""
    spans = [(start, end) for start, end in internal_spans(tree) if end - start >= 2]
    return BracketSet(tree.end - tree.start, tuple(spans))


def spans_cross(a, b) -> bool:
    return a[0] < b[0] < a[1] < b[1] or b[0] < a[0] < b[1] < a[1]


def crossing_count(candidate: BracketSet, gold: BracketSet) -> int:
    """Candidate spans that cross at least one gold span."""
    if candidate.length != gold.length:
        raise ValueError("bracket sets cover different sentence lengths")
    gold_spans = set(gold.spans)
    return sum(
        1 for span in candidate.spans if any(spans_cross(span, g) for g in gold_spans)
    )


class GeigReport(NamedTuple):
    zero_crossings: float  # fraction of sentences with no crossing
    mean_crossings: float
    recall: float
    precision: float
    sentences: int

    def format(self) -> str:
        lines = [
            "sentences        %6d" % self.sentences,
            "zero crossings   %6.1f%%" % (100.0 * self.zero_crossings),
            "mean crossings   %6.2f" % self.mean_crossings,
            "recall           %6.1f%%" % (100.0 * self.recall),
            "precision        %6.1f%%" % (100.0 * self.precision),
        ]
        return "\n".join(lines)

    def tsv(self) -> str:
        header = "sentences\tzero_crossings\tmean_crossings\trecall\tprecision"
        row = "%d\t%r\t%r\t%r\t%r" % (
            self.sentences,
            self.zero_crossings,
            self.mean_crossings,
            self.recall,
            self.precision,
        )
        return header + "\n" + row


def geig_report(pairs) -> GeigReport:
    """pairs: (candidate BracketSet, gold BracketSet) per sentence."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("geig_report needs at least one sentence")
    matched = gold_total = cand_total = 0
    crossings = []
    for cand, gold in pairs:
        matched += sum((Counter(cand.spans) & Counter(gold.spans)).values())
        gold_total += len(gold.spans)
        cand_total += len(cand.spans)
        crossings.append(crossing_count(cand, gold))
    return GeigReport(
        zero_crossings=sum(1 for x in crossings if x == 0) / len(pairs),
        mean_crossings=sum(crossings) / len(pairs),
        recall=matched / gold_total if gold_total else 0.0,
        precision=matched / cand_total if cand_total else 0.0,
        sentences=len(pairs),
    )


# ---------------------------------------------------------------------------
# ambiguity measures

def apb(records) -> float:
    """Average parse base: geometric mean over sentences of the n-th root of
    the parse count.  records: (n tokens, p parses), parse failures excluded
    upstream."""
    records = list(records)
    if not records:
        raise ValueError("apb of an empty record list")
    total = 0.0
    for n, p in records:
        if n < 1 or p < 1:
            raise ValueError("apb needs n >= 1 and p >= 1, got (%r, %r)" % (n, p))
        total += math.log(p) / n
    return math.exp(total / len(records))


BUCKETS = (
    ("1-9", 1, 9),
    ("10-99", 10, 99),
    ("100-999", 100, 999),
    ("1K-9.9K", 1000, 9999),
    ("10K-99K", 10000, 99999),
    ("100K+", 100000, None),
)


class CoverageStats(NamedTuple):
    buckets: dict  # bucket name -> sentence count, incl. "fails"/"time-outs"
    sentences: int
    mean_length: float
    mean_length_fails: float
    mean_length_timeouts: float
    apb: float  # geometric-mean parse base over parsed sentences; 0 if none

    def format(self) -> str:
        lines = []
        order = ["fails"] + [name for name, _, _ in BUCKETS] + ["time-outs"]
        label = {
            "fails": "Parse fails",
            "1-9": "1-9 parses",
            "10-99": "10-99 parses",
            "100-999": "100-999 parses",
            "1K-9.9K": "1K-9.9K parses",
            "10K-99K": "10K-99K parses",
            "100K+": "100K+ parses",
            "time-outs": "Time-outs",
        }
        for name in order:
            count = self.buckets.get(name, 0)
            pct = 100.0 * count / self.sentences if self.sentences else 0.0
            lines.append("%-16s %6d %5.1f%%" % (label[name], count, pct))
        lines.append("%-16s %6d" % ("Sentences", self.sentences))
        lines.append("%-16s %8.1f" % ("MSL", self.mean_length))
        lines.append("%-16s %8.1f" % ("MSL fails", self.mean_length_fails))
        lines.append("%-16s %8.1f" % ("MSL time-outs", self.mean_length_timeouts))
        lines.append("%-16s %8.3f" % ("APB", self.apb))
        return "\n".join(lines)

    def tsv(self) -> str:
        order = ["fails"] + [name for name, _, _ in BUCKETS] + ["time-outs"]
        header = "\t".join(order + ["sentences", "msl", "msl_fails", "msl_timeouts", "apb"])
        row = "\t".join(
            [str(self.buckets.get(name, 0)) for name in order]
            + [
                str(self.sentences),
                repr(self.mean_length),
                repr(self.mean_length_fails),
                repr(self.mean_length_timeouts),
                repr(self.apb),
            ]
        )
        return header + "\n" + row


def bucket_name(parse_count: int) -> str:
    for name, lo, hi in BUCKETS:
        if parse_count >= lo and (hi is None or parse_count <= hi):
            return name
    raise ValueError("parse count %r not bucketable" % parse_count)


def coverage_stats(outcomes) -> CoverageStats:
    """outcomes: (status, n tokens, parse count or None) per sentence,
    status in {ok, fail, timeout}."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("coverage_stats of an empty run")
    buckets: dict = {"fails": 0, "time-outs": 0}
    lengths = []
    fail_lengths = []
    timeout_lengths = []
    apb_records = []
    for status, n, count in outcomes:
        lengths.append(n)
        if status == "fail":
            buckets["fails"] += 1
            fail_lengths.append(n)
        elif status == "timeout":
            buckets["time-outs"] += 1
            timeout_lengths.append(n)
        else:
            name = bucket_name(count)
            buckets[name] = buckets.get(name, 0) + 1
            if n >= 1 and count >= 1:
                apb_records.append((n, count))

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    return CoverageStats(
        buckets=buckets,
        sentences=len(outcomes),
        mean_length=mean(lengths),
        mean_length_fails=mean(fail_lengths),
        mean_length_timeouts=mean(timeout_lengths),
        apb=apb(apb_records) if apb_records else 0.0,
    )
