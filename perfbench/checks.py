"""Correctness checks on punclr's CLI outputs.

Expected values come from routes that share no code with the program under
test: the closed-form Catalan numbers, the brute-force chart oracle in
tests/oracles.py, and the product-of-Catalan count of bracket-consistent
training derivations.  Input files are re-read here with readers of their
own.  Every check returns (attempted, failed, problems): one operation per
sentence or tree, failed when the program reports fail/timeout, drops it,
or prints something the check does not expect.
"""
from __future__ import annotations

import math

ORACLE_MAX_TOKENS = 15  # the chart oracle enumerates; keep it to short inputs
HISTORY_CAP = 5000  # punclr train's default --max-histories


def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# independent input readers

def read_tagged(path, certainty=0.9, ratio=50.0):
    """Per sentence, (words, kept label lists) under the documented rule:
    the top label always survives; below the certainty cutoff every label
    within `ratio` of the top survives too."""
    out = []
    for line in open(path, encoding="utf-8"):
        if not line.strip() or line.startswith("#"):
            continue
        words, kept = [], []
        for field in line.split():
            word, *hyps = field.split("|")
            hyps = sorted(((float(p), lab) for lab, p in (h.rsplit(":", 1) for h in hyps)),
                          key=lambda h: (-h[0], h[1]))
            top = hyps[0][0]
            keep = [lab for p, lab in hyps
                    if (p == top if top >= certainty else p * ratio >= top)]
            words.append(word)
            kept.append(keep)
        out.append((words, kept))
    return out


def read_trees(path):
    """Labelled parenthesis trees as nested lists of leaf strings."""
    trees = []
    for line in open(path, encoding="utf-8"):
        if line.startswith("#"):
            continue
        toks = line.replace("(", " ( ").replace(")", " ) ").split()
        stack = []
        for prev, tok in zip([None] + toks, toks):
            if tok == "(":
                stack.append([])
            elif tok == ")":
                node = stack.pop()
                (stack[-1] if stack else trees).append(node)
            elif prev != "(":  # the token right after "(" is the label
                stack[-1].append(tok)
    return trees


def tree_tokens(tree) -> int:
    return 1 if isinstance(tree, str) else sum(tree_tokens(c) for c in tree)


def tree_histories(tree) -> int:
    """Derivations of catalan.gr that cross no bracket of the tree: each
    node with k children is bracketed in Catalan(k - 1) ways."""
    if isinstance(tree, str):
        return 1
    out = catalan_number(len(tree) - 1)
    for c in tree:
        out *= tree_histories(c)
    return out


def tree_leaves_text(rendered: str):
    return [t.rstrip(")") for t in rendered.split() if not t.startswith("(")]


# ---------------------------------------------------------------------------
# expected parse counts

def expected_counts(kind, path, oracle_artifacts=None):
    """Expected parse count per sentence, None where no oracle applies.

    kind "catalan": the closed form C(n-1); "oracle": tests/oracles.py on
    sentences of at most ORACLE_MAX_TOKENS tokens, given (backbone,
    residues)."""
    sentences = read_tagged(path)
    if kind == "catalan":
        return [catalan_number(len(words) - 1) for words, _ in sentences]
    import oracles

    backbone, residues = oracle_artifacts
    return [
        oracles.count_derivations(backbone, residues, kept)
        if len(words) <= ORACLE_MAX_TOKENS else None
        for words, kept in sentences
    ]


# ---------------------------------------------------------------------------
# output checks (tsv format)

def parse_counts(stdout: str):
    """(status, count or None) per sentence of `punclr parse --format tsv`."""
    lines = stdout.splitlines()
    if not lines or lines[0] != "sentence\tstatus\tparses":
        raise ValueError("parse output has no tsv header")
    out = []
    for i, line in enumerate(lines[1:]):
        idx, status, cell = line.split("\t")
        if int(idx) != i:
            raise ValueError("parse output row %d is sentence %s" % (i, idx))
        out.append((status, int(cell) if cell != "-" else None))
    return out


def check_parse(stdout, expected, label):
    problems = []
    try:
        rows = parse_counts(stdout)
    except ValueError as exc:
        return len(expected), len(expected), ["%s: %s" % (label, exc)]
    if len(rows) != len(expected):
        problems.append("%s: %d rows for %d sentences" % (label, len(rows), len(expected)))
    failed = abs(len(rows) - len(expected))
    for i, ((status, count), want) in enumerate(zip(rows, expected)):
        if status != "ok":
            failed += 1
        elif want is not None and count != want:
            failed += 1
            problems.append("%s sentence %d: %s parses, expected %s" % (label, i, count, want))
    return len(expected), failed, problems


def check_rank(stdout, sentences, expected, nbest, label):
    """sentences: word lists; expected: parse count per sentence (catalan
    closed form) or None where it is known to be at least nbest."""
    by_sentence = {}
    problems = []
    for line in stdout.splitlines():
        idx, rank, logp, rendered = line.split("\t")
        by_sentence.setdefault(int(idx), []).append((rank, logp, rendered))
    failed = 0
    for i, words in enumerate(sentences):
        rows = by_sentence.get(i, [])
        want = min(nbest, expected[i]) if expected[i] is not None else nbest
        ok = [r[0] for r in rows] == [str(k) for k in range(1, want + 1)]
        ok = ok and all(tree_leaves_text(r[2]) == words for r in rows)
        logps = [float(r[1]) for r in rows] if ok else []
        ok = ok and all(a >= b for a, b in zip(logps, logps[1:]))
        if not ok:
            failed += 1
            problems.append("%s sentence %d: bad %d-best list (%d rows, want %d)"
                            % (label, i, nbest, len(rows), want))
    return len(sentences), failed, problems


def _tsv_row(stdout):
    lines = stdout.splitlines()
    if len(lines) < 2:
        raise ValueError("expected a tsv header and a row")
    return dict(zip(lines[0].split("\t"), lines[1].split("\t"))), lines[2:]


def check_train(stdout, trees, label="train"):
    """The report must account for every tree, drop exactly the trees over
    the history cap, and extract exactly the product-of-Catalan count of
    histories from the rest."""
    histories = [tree_histories(t) for t in trees]
    want = {
        "treebank trees": len(trees),
        "sentences used": sum(1 for h in histories if h <= HISTORY_CAP),
        "histories extracted": sum(h for h in histories if h <= HISTORY_CAP),
        "skeleton-inconsistent": 0,
        "unparseable": 0,
        "over history cap": sum(1 for h in histories if h > HISTORY_CAP),
    }
    try:
        row, _ = _tsv_row(stdout)
        got = {k: int(row[k]) for k in want}
    except (ValueError, KeyError) as exc:
        return len(trees), len(trees), ["%s: unreadable report (%s)" % (label, exc)]
    problems = ["%s: %s = %d, expected %d" % (label, k, got[k], v)
                for k, v in want.items() if got[k] != v]
    parts = sum(got[k] for k in ("sentences used", "skeleton-inconsistent",
                                 "unparseable", "over history cap"))
    if parts != got["treebank trees"]:
        problems.append("%s: report rows add up to %d of %d trees"
                        % (label, parts, got["treebank trees"]))
    failed = len(trees) - got["sentences used"] + (1 if problems else 0)
    return len(trees), min(failed, len(trees)), problems


def check_eval(stdout, n_gold, label="eval"):
    try:
        row, rest = _tsv_row(stdout)
        values = [float(row[k]) for k in ("zero_crossings", "recall", "precision")]
        sentences = int(row["sentences"])
    except (ValueError, KeyError) as exc:
        return n_gold, n_gold, ["%s: unreadable report (%s)" % (label, exc)]
    problems = []
    if sentences != n_gold or rest:
        problems.append("%s: %d of %d gold sentences evaluated %s"
                        % (label, sentences, n_gold, " ".join(rest)))
    if not all(0.0 <= v <= 1.0 for v in values):
        problems.append("%s: rates outside [0, 1]: %s" % (label, values))
    failed = n_gold - sentences + (1 if problems and sentences == n_gold else 0)
    return n_gold, min(max(failed, 0), n_gold), problems
