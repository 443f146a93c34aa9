#!/usr/bin/env python3
"""Seeded input generator for the punclr benchmark.

    python3 perfbench/gen.py SEED [--out DIR] [--quick]

writes every input file of the three workloads (parse-corpus, rank-nbest,
train-eval) under DIR (default .perfbench/inputs-SEED) and prints the input
sizes as JSON.  The same seed gives byte-identical files.  The two ranking
models are trained here, in process, so model training never falls inside a
timed region.

Sizes are stratified: each list of sentence lengths (or flat-node widths) is
fixed and comes in a fixed order; the seed fills in the details (tags, tagger
hypotheses, words, tree shapes).  Per-round work and the memory peak are then
nearly the same for every seed, so run-to-run spread measures the machine
rather than the draw.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from checks import HISTORY_CAP, tree_histories, tree_tokens

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


# Sizes per workload.  "full" is one timed round; "quick" is the pinned
# small input checked on every run and by the quick mode.
SIZES = {
    "full": {
        "parse_tagseq_lengths": [6 + (i * 54) // 31 for i in range(32)],
        "parse_commas": list(range(13)),
        "parse_catalan": list(range(4, 31)),
        "rank_tagseq_lengths": [20 + (i * 30) // 11 for i in range(12)],
        "rank_catalan": list(range(10, 33, 2)),
        "rank_train_trees": 240,
        "train_binary_lengths": [3 + i % 23 for i in range(230)],
        "train_flat_widths": [4, 5, 6, 7, 8, 9, 10, 10, 11, 11],
        "eval_lengths": [3 + (i * 22) // 29 for i in range(30)],
    },
    "quick": {
        "parse_tagseq_lengths": [6, 9, 12],
        "parse_commas": [0, 3, 6],
        "parse_catalan": [4, 7, 10],
        "rank_tagseq_lengths": [20, 23],
        "rank_catalan": [10, 12],
        "rank_train_trees": 8,
        "train_binary_lengths": [3, 5, 8, 12],
        "train_flat_widths": [4, 6, 11],
        "eval_lengths": [4, 6, 9],
    },
}

# Tagger confusions: the true tag and the label a tagger mistakes it for.
CONFUSABLE = {
    "NN1": "VV0", "VV0": "NN1", "VVZ": "NN2", "NN2": "VVZ", "JJ": "VVN", "VVN": "JJ",
}
WORD_PREFIX = {
    "AT": "the", "II": "on", "NN1": "dog", "NN2": "dogs", "VVZ": "sees",
    "VV0": "see", "JJ": "big", "VVN": "worn",
}


# ---------------------------------------------------------------------------
# tag lattices

def _np_tags(rng, size, num):
    """Noun phrase of `size` tokens (1..4): [AT] AP* N0."""
    n0 = "NN1" if num == "sg" else "NN2"
    if size == 1:
        return [n0]
    return ["AT"] + [rng.choice(("JJ", "VVN")) for _ in range(size - 2)] + [n0]


def tagseq_tags(rng, length, min_pps=1):
    """A grammatical tagseq.gr label sequence of exactly `length` tokens:
    subject NP, verb agreeing with it, optional object NP, then a chain of
    PPs whose number is fixed by the length (attachment ambiguity, and so
    the forest size, grows with it)."""
    pps = max(min_pps, round((length - 5) / 3.5))
    num = rng.choice(("sg", "pl"))
    verb = "VVZ" if num == "sg" else "VV0"
    while True:
        subj = rng.randint(1, 3)
        obj = rng.choice((0, 1, 2, 3))
        rest = length - subj - 1 - obj
        if 2 * pps <= rest <= 5 * pps:
            break
    sizes = [2] * pps
    for _ in range(rest - 2 * pps):
        sizes[rng.choice([i for i, sz in enumerate(sizes) if sz < 5])] += 1
    tags = _np_tags(rng, subj, num) + [verb]
    if obj:
        tags += _np_tags(rng, obj, rng.choice(("sg", "pl")))
    for size in sizes:
        tags += ["II"] + _np_tags(rng, size - 1, rng.choice(("sg", "pl")))
    return tags


# Tagger behaviour on confusable tokens, as shares of each sentence's
# confusable tokens (fixed shares keep the lattice ambiguity per sentence
# steady from seed to seed).
TAGGER_MIX = (
    (0.40, "certain"),  # one hypothesis
    (0.70, "confident"),  # top label over the certainty cutoff: the other is cut
    (0.85, "uncertain"),  # both kept
    (0.93, "error"),  # the confusion wins, the truth is kept
    (1.00, "faint"),  # the confusion falls below the ratio and is cut
)


def _hypotheses(rng, tag, kind):
    """Tagger-style label hypotheses whose thresholded set keeps `tag`."""
    other = CONFUSABLE.get(tag)
    if other is None or kind == "certain":
        return [(tag, 0.99)]
    if kind == "confident":
        return [(tag, 0.93), (other, 0.05)]
    if kind == "uncertain":
        return [(tag, rng.choice((0.55, 0.62, 0.7, 0.8))), (other, rng.choice((0.05, 0.1, 0.2)))]
    if kind == "error":
        return [(other, 0.6), (tag, rng.choice((0.1, 0.3)))]
    return [(tag, 0.8), (other, 0.01)]


def tagged_line(rng, tags):
    confusable = [i for i, tag in enumerate(tags) if tag in CONFUSABLE]
    rng.shuffle(confusable)
    kinds = {}
    for rank, i in enumerate(confusable):
        kinds[i] = next(k for share, k in TAGGER_MIX if rank < share * len(confusable))
    fields = []
    for i, tag in enumerate(tags):
        word = "%s%d" % (WORD_PREFIX.get(tag, tag.lower()), rng.randrange(100))
        hyps = _hypotheses(rng, tag, kinds.get(i, "certain"))
        fields.append(word + "".join("|%s:%g" % h for h in hyps))
    return " ".join(fields)


def plain_line(rng, labels, stem):
    return " ".join("%s%d|%s:1" % (stem, rng.randrange(100), lab) for lab in labels)


def comma_labels(commas):
    return ["W"] + [",", "W"] * commas


# ---------------------------------------------------------------------------
# catalan trees (nested lists of leaves; a leaf is the string "a")

def random_binary(rng, n):
    if n == 1:
        return "a"
    k = rng.randint(1, n - 1)
    return [random_binary(rng, k), random_binary(rng, n - k)]


def partial_tree(rng, width):
    """A flat node with `width` children, up to two of them two-leaf
    subtrees, embedded beside one more leaf when there is room: 7..12
    tokens and exactly Catalan(width - 1) consistent derivations.  Sizes
    depend on the width alone, so the memory peak does too."""
    tokens = min(12, width + 3)
    extra = min(2, tokens - width)
    kids = ["a"] * width
    for i in rng.sample(range(width), extra):
        kids[i] = ["a", "a"]
    if width + extra < tokens:
        return [kids, "a"] if rng.random() < 0.5 else ["a", kids]
    return kids


def format_tree(tree):
    if isinstance(tree, str):
        return tree
    return "(X %s)" % " ".join(format_tree(c) for c in tree)


# ---------------------------------------------------------------------------

def _write(path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _train_model(grammar, treebank, model_out):
    sys.path.insert(0, str(ROOT / "src"))
    from punclr.cli import load_artifacts, train_model_from_treebanks
    from punclr.model import save_model

    _, model, _ = train_model_from_treebanks(load_artifacts(grammar), [treebank], [1.0])
    save_model(model, model_out)


def generate(seed: int, out: Path, quick: bool = False) -> dict:
    """Write all inputs for `seed` under `out`; return the input sizes."""
    sz = SIZES["quick" if quick else "full"]
    rng = random.Random(seed)
    out = Path(out)

    # parse-corpus
    tagseq = [tagseq_tags(rng, n) for n in sz["parse_tagseq_lengths"]]
    _write(out / "parse-corpus" / "tagseq.txt", [tagged_line(rng, t) for t in tagseq])
    commas = sz["parse_commas"]
    _write(out / "parse-corpus" / "comma.txt",
           [plain_line(rng, comma_labels(k), "w") for k in commas])
    cat_parse = sz["parse_catalan"]
    _write(out / "parse-corpus" / "catalan.txt",
           [plain_line(rng, ["a"] * n, "a") for n in cat_parse])

    # rank-nbest: every tagseq sentence has >= 4 PPs, so >= 14 analyses
    rank_tags = [tagseq_tags(rng, n, min_pps=4) for n in sz["rank_tagseq_lengths"]]
    _write(out / "rank-nbest" / "tagseq.txt", [tagged_line(rng, t) for t in rank_tags])
    cat_rank = sz["rank_catalan"]
    _write(out / "rank-nbest" / "catalan.txt",
           [plain_line(rng, ["a"] * n, "a") for n in cat_rank])
    # The catalan model's treebank comes from a fixed seed: with a model per
    # run seed, the 10-best search on a^n (its time and memory) varied by
    # 15% from seed to seed, which would swamp the bounds.
    fixed = random.Random(0)
    rank_train = [random_binary(fixed, 3 + i % 18) for i in range(sz["rank_train_trees"])]
    _write(out / "rank-nbest" / "catalan_train.tb", [format_tree(t) for t in rank_train])

    # train-eval: binary trees in seeded order, plus a minority of partly
    # flat trees at evenly spaced fixed places, widest last, so that the
    # histories accumulated before each one do not depend on the seed.
    lengths = list(sz["train_binary_lengths"])
    rng.shuffle(lengths)
    binary = [random_binary(rng, n) for n in lengths]
    partial = [partial_tree(rng, w) for w in sz["train_flat_widths"]]
    step = len(binary) // len(partial)
    train = []
    for j, tree in enumerate(partial):
        train += binary[j * step:(j + 1) * step] + [tree]
    train += binary[len(partial) * step:]
    _write(out / "train-eval" / "train.tb", [format_tree(t) for t in train])
    gold = [random_binary(rng, n) for n in sz["eval_lengths"]]
    _write(out / "train-eval" / "gold.tb", [format_tree(t) for t in gold])

    _train_model(FIXTURES / "tagseq.gr", FIXTURES / "tagseq_gold.tb",
                 out / "rank-nbest" / "tagseq.model")
    _train_model(FIXTURES / "catalan.gr", out / "rank-nbest" / "catalan_train.tb",
                 out / "rank-nbest" / "catalan.model")

    histories = [tree_histories(t) for t in train]
    sizes = {
        "parse-corpus": {
            "sentences": 2 * len(tagseq) + len(commas) + len(cat_parse),
            "tokens": 2 * sum(map(len, tagseq)) + sum(2 * k + 1 for k in commas)
            + sum(cat_parse),
        },
        "rank-nbest": {
            "sentences": len(rank_tags) + len(cat_rank),
            "tokens": sum(map(len, rank_tags)) + sum(cat_rank),
        },
        "train-eval": {
            "trees": len(train) + len(gold),
            "tokens": sum(map(tree_tokens, train)) + sum(map(tree_tokens, gold)),
            "histories_expected": sum(h for h in histories if h <= HISTORY_CAP),
            "over_history_cap": sum(1 for h in histories if h > HISTORY_CAP),
        },
    }
    (out / "sizes.json").write_text(json.dumps(sizes, indent=1, sort_keys=True) + "\n")
    return sizes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("seed", type=int)
    p.add_argument("--out", type=Path)
    p.add_argument("--quick", action="store_true", help="the small pinned inputs")
    args = p.parse_args(argv)
    out = args.out or ROOT / ".perfbench" / ("inputs-%d" % args.seed)
    print(json.dumps(generate(args.seed, out, args.quick), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
