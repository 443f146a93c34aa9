#!/usr/bin/env python3
"""Check that the working tree's CLI prints and writes what a base commit's does.

    python3 scripts/same_output.py --base HEAD

The base commit is exported with git archive (bench_pairs.export) into a
temporary directory; the change is the working tree this script sits in.
perfbench/gen.py writes the benchmark's seed-5 inputs once, and both trees
read those, the inputs the script writes (a 750-link unit chain, a seeded
200-rule grammar whose table is large and full of conflicts, a grammar
with a unit cycle, six malformed grammars, the left-recursive chain
S -> S 'a' with three training trees and one 2000-token sentence, a
grammar of 4- and 5-daughter rules with nullable daughters between them,
with five sentences of it, three plain sentences of the fixture
unbound.gr, whose forest residues hold a variable, and those copies of the
rank models) and the working tree's
fixtures, so only the code differs.  A fixed list of default-format
invocations runs in each
tree: `punclr --help` and `punclr CMD --help` for each of the seven
subcommands, and four usage errors (no subcommand, an unknown one, parse
without its required --grammar, and rank --nbest 0), which pin every
subcommand's parser byte for byte; compile (of the malformed grammars
too, so the reader's error messages are compared, and with -o for the
fixture, chain and 200-rule
tables, so every action is compared: the printed table hash counts the
actions without reading them), parse --dump-forest and stats (each also
with --jobs 2, through the process pool), rank (--nbest 1 and 10,
--tag-likelihoods), train, eval, eval --parsed and ablate; eval and rank
also in tsv, whose %r figures show every bit (eval's default report rounds
to 0.1%): eval on each gold set, rank at --nbest 1 and 10, with and
without --tag-likelihoods (whose leaf sums nest subtree by subtree), also
on the 2000-token chain (deep trees), and with --nbest 50 on the seed-5
catalan sentences, whose scores tie often.  Those sentences are also ranked
(tsv --nbest 1, with and without --tag-likelihoods, tsv --nbest 10 and
--nbest 50) with a model each tree trains from the seed-5 catalan rank
treebank, since the benchmark's own rank models are trained once, by
gen.py, with the working tree's code.  The seed-5 catalan and tagseq rank
sentences are also ranked (tsv --nbest 10 and --nbest 50) under copies of
their benchmark models with every prob record set to 0.5, where whole
groups of analyses tie and the tie-break decides their order.  Each runs
as `python -m punclr.cli`
in a directory of its own, without writing bytecode and with
PYTHONUNBUFFERED unset, so that stdout is block-buffered and flushed when the process ends: once in the
base tree under PYTHONHASHSEED=1, and twice in the working tree, under
PYTHONHASHSEED=1 and 2, so output that follows string hashing shows as a
difference too.  The script compares the runs' stdout, their stderr (each
tree's and each output directory's path replaced by a placeholder), their
exit codes and every file they wrote, prints one line per invocation, and
exits 1 when any of them differs, naming each that does.

Standard library only.
"""
from __future__ import annotations

import argparse
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

FIX = ROOT / "fixtures"


# (side, PYTHONHASHSEED) of the three runs of every invocation; the first
# is compared with the second, and the second with the third
RUNS = (("base", "1"), ("change", "1"), ("change", "2"))
CHAIN_LINKS = 750
SCALE_RULES = 200
CYCLIC = "%start X\nX -> Y ;\nY -> X ;\nX -> 'a' ;\n"
DEEP_TOKENS = 2000
SUBCOMMANDS = ("compile", "parse", "train", "rank", "eval", "stats", "ablate")
# file stem -> text of a grammar that compile rejects
MALFORMED = {
    "unknown-directive": "%begin S\nS -> 'a' ;\n",
    "missing-semicolon": "%start S\nS -> 'a'\nS -> 'b' ;\n",
    "undefined-symbol": "%start S\nS -> 'a' Q ;\n",
    "duplicate-feature": "S[f=a, f=b] -> 'a' ;\n",
    "percent-mid-line": "S -> 'a' ; %textual\n",
    "terminal-mother": "%terminals a\nS -> a ;\na -> 'b' ;\n",
}
# rules whose reduces pop paths of 4 and 5 edges, across the zero-width
# edges of E*, and sentences of it, some with two labels on a token
WIDE = ("%start S\nS -> S S ;\nS -> 'a' ;\nS -> 'a' E* S 'b' ;\n"
        "S -> S E* 'c' E* S ;\nE -> 'b' ;\n")
WIDE_SENTENCES = (
    "a|a:1.0 a|a:1.0 b|b:1.0\n"
    "a|a:1.0 b|b:1.0 b|b:1.0 a|a:1.0 b|b:1.0\n"
    "a|a:1.0 c|c:1.0 a|a:1.0 b|b:1.0 c|c:1.0 b|b:1.0 a|a:1.0\n"
    "a|a:1.0 x|b:0.5|c:0.5 a|a:1.0 x|c:0.5|b:0.5 a|a:1.0 b|b:1.0\n"
    "a|a:1.0 a|a:1.0 x|b:0.5|c:0.5 a|a:1.0 x|c:0.6|b:0.4 x|b:0.5|a:0.5 a|a:1.0 b|b:1.0\n"
)
# plain sentences of fixtures/unbound.gr: each NP's residue holds a variable
UNBOUND_SENTENCES = "x_AT y_VVZ\n" * 3


def scale_grammar(rules: int, seed: int) -> str:
    """A seeded grammar of `rules` rules over rules // 10 + 5 nonterminals
    N0 N1 ... and the 40 terminals t0 ... t39, with 1-4 daughters a rule,
    each a nonterminal or a terminal with even odds.  A nonterminal's first
    rule and every unit rule name only later nonterminals, so that each
    nonterminal derives a string and no unit derivation cycles."""
    rng = random.Random(seed)
    n = rules // 10 + 5
    lines = ["%start N0"]
    for r in range(rules):
        lhs, arity = r % n, rng.randint(1, 4)
        low = lhs + 1 if r < n or arity == 1 else 0
        daughters = ["N%d" % rng.randrange(low, n) if low < n and rng.random() < 0.5
                     else "'t%d'" % rng.randrange(40) for _ in range(arity)]
        lines.append("N%d -> %s ;" % (lhs, " ".join(daughters)))
    return "\n".join(lines) + "\n"


def write_inputs(gen: Path):
    """In gen: the unit chain A0 -> A1 -> ... -> A750 -> 'a', the
    SCALE_RULES-rule scale grammar of seed 5, a grammar whose unit
    derivations X -> Y -> X form a cycle, each MALFORMED grammar
    as <stem>.gr, the left-recursive chain S -> S 'a' with a treebank of
    three short chains and a sentence of 2000 a's, the WIDE grammar with
    its sentences, the UNBOUND_SENTENCES, and as <grammar>-halves.model
    each seed-5 rank model with every prob record's probability set to
    0.5."""
    chain = "".join("A%d -> A%d ;\n" % (i, i + 1) for i in range(CHAIN_LINKS))
    (gen / "chain.gr").write_text("%%start A0\n%sA%d -> 'a' ;\n" % (chain, CHAIN_LINKS))
    (gen / "scale.gr").write_text(scale_grammar(SCALE_RULES, 5))
    (gen / "cyclic.gr").write_text(CYCLIC)
    for stem, text in MALFORMED.items():
        (gen / (stem + ".gr")).write_text(text)
    (gen / "deep.gr").write_text("%start S\nS -> S 'a' ;\nS -> 'a' ;\n")
    (gen / "deep.tb").write_text("(S a)\n(S (S a) a)\n(S (S (S a) a) a)\n")
    (gen / "deep.txt").write_text(" ".join(["a|a:1.0"] * DEEP_TOKENS) + "\n")
    (gen / "wide.gr").write_text(WIDE)
    (gen / "wide.txt").write_text(WIDE_SENTENCES)
    (gen / "unbound.txt").write_text(UNBOUND_SENTENCES)
    for g in ("catalan", "tagseq"):
        lines = (gen / "rank-nbest" / (g + ".model")).read_text().splitlines()
        (gen / (g + "-halves.model")).write_text("".join(
            "%s 0.5\n" % line.rsplit(" ", 1)[0] if line.startswith("prob ") else line + "\n"
            for line in lines))


def invocations(gen: Path) -> list:
    """(name, argv) pairs, in the order they run.  An argv may read what an
    earlier invocation wrote through ../NAME/FILE."""
    pc, rn, te = gen / "parse-corpus", gen / "rank-nbest", gen / "train-eval"
    out = [("--help", ["--help"])]
    out += [(cmd + " --help", [cmd, "--help"]) for cmd in SUBCOMMANDS]
    out += [
        ("usage error: no subcommand", []),
        ("usage error: unknown subcommand", ["translate", FIX / "tagged_example.txt"]),
        ("usage error: parse without --grammar", ["parse", FIX / "tagged_example.txt"]),
        ("usage error: rank --nbest 0",
         ["rank", "--grammar", FIX / "tagseq.gr", "--model", rn / "tagseq.model",
          "--nbest", "0", rn / "tagseq.txt"]),
    ]
    out += [("compile " + g, ["compile", FIX / (g + ".gr"), "-o", "table.txt"])
            for g in ("agree", "agree_relaxed", "catalan", "commatext", "integrated",
                      "tagseq")]
    out.append(("compile %d-link unit chain" % CHAIN_LINKS,
                ["compile", gen / "chain.gr", "-o", "table.txt"]))
    out.append(("compile %d-rule scale grammar" % SCALE_RULES,
                ["compile", gen / "scale.gr", "-o", "table.txt"]))
    out.append(("compile unit cycle", ["compile", gen / "cyclic.gr"]))
    out += [("compile " + stem, ["compile", gen / (stem + ".gr")]) for stem in MALFORMED]
    sentences = [
        ("fixture tagseq", FIX / "tagseq.gr", FIX / "tagged_example.txt", []),
        ("fixture integrated", FIX / "integrated.gr", FIX / "tagged_example.txt", []),
        ("fixture plain", FIX / "tagseq.gr", FIX / "tagged_plain.txt", ["--plain"]),
        ("fixture commas", FIX / "commatext.gr", FIX / "comma_series.txt", []),
        ("seed-5 tagseq", FIX / "tagseq.gr", pc / "tagseq.txt", []),
        ("seed-5 integrated", FIX / "integrated.gr", pc / "tagseq.txt", []),
        ("seed-5 commas", FIX / "commatext.gr", pc / "comma.txt", []),
        ("seed-5 catalan", FIX / "catalan.gr", pc / "catalan.txt", []),
        ("wide rules", gen / "wide.gr", gen / "wide.txt", []),
        ("unbound variables", FIX / "unbound.gr", gen / "unbound.txt", ["--plain"]),
    ]
    for name, g, path, extra in sentences:
        grammar = ["--grammar", g, *extra, path]
        out.append(("parse " + name, ["parse", *grammar, "--dump-forest", "forests"]))
        out.append(("stats " + name, ["stats", *grammar]))
        out.append(("parse --jobs 2 " + name,
                    ["parse", *grammar, "--jobs", "2", "--dump-forest", "forests"]))
        out.append(("stats --jobs 2 " + name, ["stats", *grammar, "--jobs", "2"]))
    for name, tb in (("fixture catalan", FIX / "catalan_train.tb"),
                     ("fixture tagseq", FIX / "tagseq_gold.tb"),
                     ("seed-5", te / "train.tb"),
                     ("seed-5 rank catalan", rn / "catalan_train.tb")):
        g = "tagseq" if "tagseq" in name else "catalan"
        out.append(("train " + name, ["train", "--grammar", FIX / (g + ".gr"),
                                      "--treebank", tb, "--model-out", "model",
                                      "--counts-out", "counts"]))
    out.append(("train chain", ["train", "--grammar", gen / "deep.gr", "--treebank",
                                gen / "deep.tb", "--model-out", "model",
                                "--counts-out", "counts"]))
    ranks = [
        ("fixture tagseq", "tagseq", "../train fixture tagseq/model",
         FIX / "tagged_example.txt"),
        ("fixture catalan", "catalan", "../train fixture catalan/model",
         rn / "catalan.txt"),
        ("seed-5 tagseq", "tagseq", rn / "tagseq.model", rn / "tagseq.txt"),
        ("seed-5 catalan", "catalan", rn / "catalan.model", rn / "catalan.txt"),
    ]
    for name, g, model, path in ranks:
        base = ["rank", "--grammar", FIX / (g + ".gr"), "--model", model, path]
        out.append(("rank --nbest 1 " + name, base))
        out.append(("rank --nbest 1 --format tsv " + name, [*base, "--format", "tsv"]))
        out.append(("rank --nbest 1 --tag-likelihoods --format tsv " + name,
                    [*base, "--tag-likelihoods", "--format", "tsv"]))
        out.append(("rank --nbest 10 " + name, [*base, "--nbest", "10"]))
        out.append(("rank --nbest 10 --tag-likelihoods " + name,
                    [*base, "--nbest", "10", "--tag-likelihoods"]))
        out.append(("rank --nbest 10 --format tsv " + name,
                    [*base, "--nbest", "10", "--format", "tsv"]))
        out.append(("rank --nbest 10 --tag-likelihoods --format tsv " + name,
                    [*base, "--nbest", "10", "--tag-likelihoods", "--format", "tsv"]))
    deep = ["rank", "--grammar", gen / "deep.gr", "--model", "../train chain/model",
            gen / "deep.txt", "--format", "tsv"]
    for nbest in ("1", "10"):
        out.append(("rank --nbest %s --format tsv %d-token chain" % (nbest, DEEP_TOKENS),
                    [*deep, "--nbest", nbest]))
        out.append(("rank --nbest %s --tag-likelihoods --format tsv %d-token chain"
                    % (nbest, DEEP_TOKENS), [*deep, "--nbest", nbest, "--tag-likelihoods"]))
    out.append(("rank --nbest 50 seed-5 catalan",
                ["rank", "--grammar", FIX / "catalan.gr", "--model", rn / "catalan.model",
                 rn / "catalan.txt", "--nbest", "50"]))
    # catalan.model above is trained once, by gen.py with the working tree's
    # code; this model is trained in each tree from the same treebank
    trained = ["rank", "--grammar", FIX / "catalan.gr", "--model",
               "../train seed-5 rank catalan/model", rn / "catalan.txt"]
    out.append(("rank --nbest 1 --format tsv seed-5 catalan, trained in tree",
                [*trained, "--format", "tsv"]))
    out.append(("rank --nbest 1 --tag-likelihoods --format tsv seed-5 catalan, trained in tree",
                [*trained, "--tag-likelihoods", "--format", "tsv"]))
    out.append(("rank --nbest 10 --format tsv seed-5 catalan, trained in tree",
                [*trained, "--nbest", "10", "--format", "tsv"]))
    out.append(("rank --nbest 50 seed-5 catalan, trained in tree",
                [*trained, "--nbest", "50"]))
    for g in ("catalan", "tagseq"):
        halves = ["rank", "--grammar", FIX / (g + ".gr"), "--model",
                  gen / (g + "-halves.model"), rn / (g + ".txt")]
        out.append(("rank --nbest 10 --format tsv seed-5 %s, every prob 0.5" % g,
                    [*halves, "--nbest", "10", "--format", "tsv"]))
        out.append(("rank --nbest 50 seed-5 %s, every prob 0.5" % g,
                    [*halves, "--nbest", "50"]))
    for name, g, model, gold in (
        ("fixture catalan", "catalan", "../train fixture catalan/model",
         FIX / "catalan_test.tb"),
        ("fixture tagseq", "tagseq", "../train fixture tagseq/model",
         FIX / "tagseq_gold.tb"),
        ("seed-5", "catalan", "../train seed-5/model", te / "gold.tb"),
    ):
        evaluate = ["eval", "--grammar", FIX / (g + ".gr"), "--model", model, "--gold", gold]
        out.append(("eval " + name, evaluate))
        out.append(("eval --format tsv " + name, [*evaluate, "--format", "tsv"]))
        out.append(("eval --parsed " + name, ["eval", "--gold", gold, "--parsed", gold]))
    out.append(("ablate fixture", ["ablate", "--grammar", FIX / "catalan.gr",
                                   "--treebank", FIX / "catalan_train.tb",
                                   "--gold", FIX / "catalan_test.tb"]))
    out.append(("ablate seed-5", ["ablate", "--grammar", FIX / "catalan.gr",
                                  "--treebank", te / "train.tb", "--gold", te / "gold.tb",
                                  "--seeds", "1"]))
    return out


def run(tree: Path, outdir: Path, name: str, argv, hash_seed: str) -> dict:
    """One invocation in tree, run in outdir/name under PYTHONHASHSEED
    hash_seed: its stdout, normalised stderr, exit code and written files
    (relative path -> bytes)."""
    cwd = outdir / name
    cwd.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED=hash_seed)
    env.pop("PYTHONUNBUFFERED", None)  # so stdout is block-buffered, as by default
    proc = subprocess.run([sys.executable, "-m", "punclr.cli", *map(str, argv)], cwd=cwd,
                          env=env, capture_output=True)
    stderr = proc.stderr.replace(str(tree).encode(), b"<tree>")
    stderr = stderr.replace(str(outdir).encode(), b"<out>")
    files = {str(p.relative_to(cwd)): p.read_bytes()
             for p in sorted(cwd.rglob("*")) if p.is_file()}
    return {"stdout": proc.stdout, "stderr": stderr, "exit code": proc.returncode,
            "files": files}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="the base commit, e.g. HEAD or a hash")
    args = p.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="same-output-"))
    try:
        trees = {"base": export(args.base, scratch / "base"), "change": ROOT}
        gen = scratch / "inputs"
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"), "5",
                        "--out", str(gen)], check=True, capture_output=True,
                       env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        write_inputs(gen)
        outdirs = {key: scratch / ("out-%s-%s" % key) for key in RUNS}
        for outdir in outdirs.values():
            outdir.mkdir()
        differ = []
        for name, cmd in invocations(gen):
            base, change, reseeded = (run(trees[side], outdirs[side, seed], name, cmd, seed)
                                      for side, seed in RUNS)
            what = [k for k in base if base[k] != change[k]]
            what += [k + " under seed 2" for k in change if change[k] != reseeded[k]]
            print("%-6s %s%s" % ("DIFFER" if what else "same", name,
                                 "  (%s)" % ", ".join(what) if what else ""), flush=True)
            if what:
                differ.append(name)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if differ:
        print("%d invocations differ: %s" % (len(differ), "; ".join(differ)))
        return 1
    print("all invocations identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
