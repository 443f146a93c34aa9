import errno
import gc
import hashlib
import itertools
import math
import os
import subprocess
import sys
import time

import pytest

from punclr import cli
from punclr.cli import main
from conftest import FIXTURES, recursion_headroom, unit_chain_grammar


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_reports_counts(capsys, tmp_path):
    table_file = tmp_path / "catalan.tbl"
    code, out, err = run(capsys, "compile", FIXTURES / "catalan.gr", "-o", table_file)
    assert code == 0
    assert "grammar rules" in out and "table actions" in out
    assert table_file.exists()


def test_compile_deterministic_hash(capsys, tmp_path):
    _, out1, _ = run(capsys, "compile", FIXTURES / "catalan.gr", "--format", "tsv")
    _, out2, _ = run(capsys, "compile", FIXTURES / "catalan.gr", "--format", "tsv")
    assert out1 == out2


def test_compile_malformed_grammar_exits_nonzero(capsys, tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_text("%start S\nS -> 'a'\n")  # missing semicolon
    code, out, err = run(capsys, "compile", bad)
    assert code == 2
    assert err


def test_parse_counts_comma_series(capsys):
    code, out, err = run(
        capsys, "parse", "--grammar", FIXTURES / "commatext.gr",
        FIXTURES / "comma_series.txt", "--format", "tsv",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("sentence\t")]
    counts = [int(l.split("\t")[2]) for l in lines]
    assert counts == [1, 1, 3, 8, 25, 80, 267, 911, 3170]


@pytest.mark.parametrize("command", ["parse", "rank"])
def test_label_listed_twice_is_a_data_error(capsys, tmp_path, command):
    """A token that lists a label twice is rejected with its line, exit 2;
    parsed, it used to double every analysis through that label."""
    text = tmp_path / "dup.txt"
    text.write_text("a|a:1.0 a|a:1.0\na|a:0.5|a:0.3 a|a:1.0 a|a:1.0\n")
    given = []
    if command == "rank":
        given = ["--model", tmp_path / "model"]
        run(capsys, "train", "--grammar", FIXTURES / "catalan.gr",
            "--treebank", FIXTURES / "catalan_train.tb", "--model-out", given[1])
    code, out, err = run(capsys, command, "--grammar", FIXTURES / "catalan.gr",
                         *given, text)
    assert code == 2
    assert err == "error: line 2: token 'a' lists label a twice\n"
    assert out == ""


def test_parse_strict_fails_on_unparseable(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("w|W:1.0 ,|,:1.0\n")  # dangling comma
    code, out, err = run(
        capsys, "parse", "--grammar", FIXTURES / "commatext.gr", bad, "--strict"
    )
    assert code == 3


def test_parse_jobs_parallel_same_output(capsys):
    argv = ["parse", "--grammar", FIXTURES / "commatext.gr",
            FIXTURES / "comma_series.txt", "--format", "tsv"]
    _, seq, _ = run(capsys, *argv)
    _, par, _ = run(capsys, *argv, "--jobs", "2")
    assert seq == par


def test_train_rank_eval_round_trip(capsys, tmp_path):
    model = tmp_path / "toy.model"
    counts = tmp_path / "toy.counts"
    code, out, err = run(
        capsys, "train", "--grammar", FIXTURES / "catalan.gr",
        "--treebank", FIXTURES / "catalan_train.tb",
        "--model-out", model, "--counts-out", counts,
    )
    assert code == 0, err
    assert "sentences used" in out
    assert model.exists() and counts.exists()

    sent = tmp_path / "sents.txt"
    sent.write_text("a|a:1.0 a|a:1.0 a|a:1.0\n")
    code, out, err = run(
        capsys, "rank", "--grammar", FIXTURES / "catalan.gr",
        "--model", model, sent, "--nbest", "2",
    )
    assert code == 0, err
    lines = [l for l in out.splitlines() if "rank" in l]
    assert len(lines) == 2
    assert "(X (X (X a) (X a)) (X a))" in lines[0]  # left-branching ranked first

    code, out, err = run(
        capsys, "eval", "--grammar", FIXTURES / "catalan.gr",
        "--model", model, "--gold", FIXTURES / "catalan_test.tb",
    )
    assert code == 0, err
    assert "recall" in out


def test_eval_gold_vs_gold_perfect(capsys):
    code, out, err = run(
        capsys, "eval", "--gold", FIXTURES / "catalan_test.tb",
        "--parsed", FIXTURES / "catalan_test.tb",
    )
    assert code == 0
    assert "recall            100.0%" in out
    assert "precision         100.0%" in out
    assert "mean crossings     0.00" in out


def test_eval_parsed_length_mismatch_names_both_lines(capsys, tmp_path):
    gold = tmp_path / "gold.tb"
    gold.write_text("# gold\n(X (X a a) a)\n\n(X a (X a a))\n")
    parsed = tmp_path / "parsed.tb"
    parsed.write_text("(X (X a a) a)\n(X (X a a) (X a a))\n")
    code, out, err = run(capsys, "eval", "--gold", gold, "--parsed", parsed)
    assert code == 2
    assert err == ("error: parsed tree at line 2 has 4 tokens "
                   "but gold tree at line 4 has 3\n")
    assert out == ""


def test_train_subsample_seeded(capsys, tmp_path):
    m1 = tmp_path / "m1.model"
    m2 = tmp_path / "m2.model"
    for m in (m1, m2):
        code, out, err = run(
            capsys, "train", "--grammar", FIXTURES / "catalan.gr",
            "--treebank", FIXTURES / "catalan_train.tb",
            "--model-out", m, "--subsample", "1/2", "--seed", "7",
        )
        assert code == 0
    assert m1.read_text() == m2.read_text()


def test_train_zero_usable_is_error(capsys, tmp_path):
    bad_tb = tmp_path / "bad.tb"
    bad_tb.write_text("(X b b)\n")  # 'b' is not in the catalan grammar
    code, out, err = run(
        capsys, "train", "--grammar", FIXTURES / "catalan.gr",
        "--treebank", bad_tb, "--model-out", tmp_path / "m.model",
    )
    assert code == 2
    assert "usable" in err


def test_model_hash_mismatch_detected(capsys, tmp_path):
    model = tmp_path / "toy.model"
    run(
        capsys, "train", "--grammar", FIXTURES / "catalan.gr",
        "--treebank", FIXTURES / "catalan_train.tb", "--model-out", model,
    )
    sent = tmp_path / "s.txt"
    sent.write_text("w|W:1.0\n")
    code, out, err = run(
        capsys, "rank", "--grammar", FIXTURES / "commatext.gr",
        "--model", model, sent,
    )
    assert code == 2
    assert "table" in err


@pytest.mark.parametrize("command", ["rank", "eval"])
def test_model_table_mismatch_reported_alike(capsys, tmp_path, command):
    model = tmp_path / "catalan.model"
    run(capsys, "train", "--grammar", FIXTURES / "catalan.gr",
        "--treebank", FIXTURES / "catalan_train.tb", "--model-out", model)
    grammar = FIXTURES / "commatext.gr"
    trained = cli.load_artifacts(FIXTURES / "catalan.gr")[3].table_hash()
    wanted = cli.load_artifacts(grammar)[3].table_hash()
    sent = tmp_path / "s.txt"
    sent.write_text("w|W:1.0\n")
    given = {"rank": [sent], "eval": ["--gold", FIXTURES / "catalan_test.tb"]}[command]
    code, out, err = run(capsys, command, "--grammar", grammar, "--model", model, *given)
    assert code == 2
    assert out == ""
    assert err == (
        "error: model %s was trained against table %s, not the grammar's table %s\n"
        % (model, trained, wanted)
    )


def test_stats_bucket_table(capsys, tmp_path):
    code, out, err = run(
        capsys, "stats", "--grammar", FIXTURES / "commatext.gr",
        FIXTURES / "comma_series.txt",
    )
    assert code == 0
    assert "Parse fails" in out
    assert "APB" in out
    # comma series: counts 1,1,3,8,25,80,267,911,3170
    # -> 1-9: six sentences, 10-99: two, 100-999: zero, 1K-9.9K: one
    assert "1-9 parses            5" in out or "1-9 parses" in out


def test_stats_tsv_deterministic(capsys):
    argv = ["stats", "--grammar", FIXTURES / "commatext.gr",
            FIXTURES / "comma_series.txt", "--format", "tsv"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_ablate_curve_runs_and_is_seeded(capsys):
    argv = [
        "ablate", "--grammar", FIXTURES / "catalan.gr",
        "--treebank", FIXTURES / "catalan_train.tb",
        "--gold", FIXTURES / "catalan_test.tb",
        "--seeds", "2", "--format", "tsv",
    ]
    code, out1, err = run(capsys, *argv)
    assert code == 0, err
    code, out2, err = run(capsys, *argv)
    assert out1 == out2
    rows = [l.split("\t") for l in out1.splitlines()[1:]]
    sizes = [int(r[0]) for r in rows]
    assert sizes == [16, 8, 4, 2, 1, 0]
    recalls = {int(r[0]): float(r[1]) for r in rows}
    assert recalls[16] > recalls[0]


def test_usage_error_exit_code(capsys):
    code, out, err = run(capsys, "parse")
    assert code == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "punclr.cli", "compile", str(FIXTURES / "catalan.gr")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "lalr states" in proc.stdout


def _process_env(unbuffered=False):
    """The environment of a `python -m punclr.cli` process of this tree,
    whose stdout is block-buffered unless unbuffered."""
    src = str(FIXTURES.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _outputs(cwd, code, out, err):
    """What a command left: exit code, stdout, stderr and every file written
    under cwd (relative path -> bytes)."""
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*"))
             if p.is_file()}
    return code, out, err, files


# name -> (argv, exit code); "SENTENCES", "STRICT" and "BAD" name files the
# test writes, and every output path is relative to the working directory
PROCESS_CASES = {
    "compile -o": (["compile", FIXTURES / "catalan.gr", "-o", "table.txt"], 0),
    "train": (["train", "--grammar", FIXTURES / "catalan.gr", "--treebank",
               FIXTURES / "catalan_train.tb", "--model-out", "model", "--counts-out",
               "counts"], 0),
    "parse --jobs 1": (["parse", "--grammar", FIXTURES / "catalan.gr", "SENTENCES",
                        "--jobs", "1", "--dump-forest", "forests"], 0),
    "parse --jobs 2": (["parse", "--grammar", FIXTURES / "catalan.gr", "SENTENCES",
                        "--jobs", "2", "--dump-forest", "forests"], 0),
    "usage error": (["parse", "--grammar", FIXTURES / "catalan.gr"], 1),
    "bad grammar": (["compile", "BAD"], 2),
    "strict": (["parse", "--grammar", FIXTURES / "commatext.gr", "STRICT", "--strict"], 3),
}


@pytest.mark.parametrize("case", sorted(PROCESS_CASES))
def test_process_writes_what_main_writes(capsys, tmp_path, monkeypatch, case):
    """A `python -m punclr.cli` process, which ends in os._exit, prints,
    writes and exits as cli.main does in process."""
    inputs = {
        "SENTENCES": "a|a:1.0 a|a:1.0 a|a:1.0\nb|b:1.0\n" + "a|a:1.0 " * 6 + "\n",
        "STRICT": "w|W:1.0 ,|,:1.0\n",  # a dangling comma
        "BAD": "%start S\nS -> 'a'\n",  # a missing semicolon
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    argv, expected_code = PROCESS_CASES[case]
    argv = [str(tmp_path / a) if a in inputs else str(a) for a in argv]
    in_process, process = tmp_path / "in-process", tmp_path / "process"
    in_process.mkdir()
    process.mkdir()

    monkeypatch.chdir(in_process)
    code = main(argv)
    captured = capsys.readouterr()
    want = _outputs(in_process, code, captured.out, captured.err)
    proc = subprocess.run([sys.executable, "-m", "punclr.cli", *argv], cwd=process,
                          capture_output=True, text=True, env=_process_env())
    got = _outputs(process, proc.returncode, proc.stdout, proc.stderr)
    assert got == want
    assert code == expected_code
    if code == 0:
        assert want[3] and len(want[1].splitlines()) > 2


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_exits_2_without_traceback(unbuffered):
    """A reader gone before the process starts: buffered output fails at the
    final flush, unbuffered at the first print, and both are reported as
    one error line with exit code 2."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "punclr.cli", "compile", str(FIXTURES / "catalan.gr")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=_process_env(unbuffered),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: %s\n" % BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_parse_dump_forest_writes_files(capsys, tmp_path):
    out_dir = tmp_path / "forests"
    code, out, err = run(
        capsys, "parse", "--grammar", FIXTURES / "catalan.gr",
        _tagged(tmp_path, "a|a:1.0 a|a:1.0\n"), "--dump-forest", out_dir,
    )
    assert code == 0
    dumps = list(out_dir.glob("*.forest"))
    assert len(dumps) == 1
    assert "trans=" in dumps[0].read_text()


# each NP's residue in unbound.gr holds a variable, whose dump must not
# depend on --jobs or on the sentences parsed before
DUMP_CASES = (
    ("catalan.gr", "a|a:1.0 a|a:1.0\na|a:1.0 b|b:1.0\n" + "a|a:1.0 " * 5 + "\nb|b:1.0\n"
     + "a|a:1.0 " * 7 + "\n", [], ["0", "2", "4"]),
    ("unbound.gr", "x_AT y_VVZ\n" * 3, ["--plain"], ["0", "1", "2"]),
)


def test_parse_dump_forest_same_for_any_jobs(capsys, tmp_path):
    for grammar, text, plain, ok_rows in DUMP_CASES:
        sent = _tagged(tmp_path, text)
        dumps = {}
        for jobs in ("1", "2"):
            out_dir = tmp_path / grammar / ("jobs" + jobs)
            code, out, err = run(capsys, "parse", "--grammar", FIXTURES / grammar, *plain,
                                 "--jobs", jobs, "--format", "tsv", sent,
                                 "--dump-forest", out_dir)
            assert code == 0, err
            ok = [row.split("\t")[0] for row in out.splitlines()[1:] if "\tok\t" in row]
            assert ok == ok_rows
            dumps[jobs] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
            assert sorted(dumps[jobs]) == ["sentence%03d.forest" % int(i) for i in ok]
        assert dumps["1"] == dumps["2"], grammar


# two reduces share each cell after an 'a': their order once followed the
# frozenset of actions, and so the hash seed
TWO_REDUCES = "%start S\nS -> A ;\nS -> B ;\nS -> S S ;\nA -> 'a' ;\nB -> 'a' ;\n"


def test_parse_output_independent_of_hash_seed(tmp_path):
    grammar = tmp_path / "two.gr"
    grammar.write_text(TWO_REDUCES)
    sent = _tagged(tmp_path, "a|a:1.0 a|a:1.0 a|a:1.0\n")
    digests = set()
    for seed in range(1, 17):
        out_dir = tmp_path / ("seed%d" % seed)
        env = dict(_process_env(), PYTHONHASHSEED=str(seed))
        proc = subprocess.run(
            [sys.executable, "-m", "punclr.cli", "parse", "--grammar", str(grammar),
             "--dump-forest", str(out_dir), str(sent)],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(proc.stdout)
        for path in sorted(out_dir.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        digests.add(digest.hexdigest())
    assert len(digests) == 1


# in the second grammar the first nonterminal, S, only leads to the cycle
CYCLIC = {"two": "%start X\nX -> Y ;\nY -> X ;\nX -> 'a' ;\n",
          "behind": "%start S\nS -> X ;\nX -> Y ;\nY -> X ;\nY -> 'a' ;\n"}


def test_cycle_error_independent_of_hash_seed(tmp_path):
    for name, text in CYCLIC.items():
        grammar = tmp_path / (name + ".gr")
        grammar.write_text(text)
        errors = set()
        for seed in range(1, 9):
            env = dict(_process_env(), PYTHONHASHSEED=str(seed))
            proc = subprocess.run([sys.executable, "-m", "punclr.cli", "compile", str(grammar)],
                                  capture_output=True, env=env)
            assert proc.returncode == 2, proc.stderr
            errors.add(proc.stderr)
        assert len(errors) == 1, (name, errors)
        (error,) = errors
        assert error.endswith((b"through 'X'\n", b"through 'Y'\n")), error


def _catalan_gold(tmp_path, n):
    """A gold file of a right-branching n-leaf catalan tree, then (X a a)."""
    tree = "a"
    for _ in range(n - 1):
        tree = "(X a %s)" % tree
    gold = tmp_path / "gold.tb"
    gold.write_text(tree + "\n(X a a)\n")
    return gold


def test_eval_timeout_covers_ranking(capsys, tmp_path, monkeypatch):
    from punclr.cli import load_artifacts, train_model_from_treebanks
    from punclr.glr import lattice_from_labels, parse_lattice
    from punclr.model import rank_nbest, save_model

    artifacts = load_artifacts(FIXTURES / "catalan.gr")
    _, trained, _ = train_model_from_treebanks(
        artifacts, [FIXTURES / "catalan_train.tb"], [1.0])
    model = tmp_path / "m.model"
    save_model(trained, model)
    # a CPU clock that advances one step per read, so budgets count clock
    # reads and the outcome does not depend on the machine's speed
    step = 2.0 ** -20
    reads = itertools.count(1)
    monkeypatch.setattr(time, "process_time", lambda: next(reads) * step)
    outcome = parse_lattice(lattice_from_labels(["a"] * 40), artifacts[3], artifacts[2],
                            budget=math.inf)
    before = next(reads)
    rank_nbest(outcome.forest, trained, 1, budget=math.inf)
    rank_checks = next(reads) - before - 2  # the reads after ranking's first
    assert rank_checks >= 1
    # enough time to parse the 40-leaf tree, not enough to rank it too
    timeout = outcome.cpu_seconds + rank_checks / 2 * step
    argv = ["eval", "--grammar", FIXTURES / "catalan.gr", "--model", model,
            "--gold", _catalan_gold(tmp_path, 40), "--format", "tsv"]
    code, out, err = run(capsys, *argv, "--timeout", repr(timeout))
    assert code == 0, err
    assert out.endswith("unparsed sentences: 1\n")
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert "unparsed" not in out


def test_eval_ranking_budget_is_what_parsing_left(monkeypatch, tmp_path):
    from punclr import cli
    from punclr import model as ranking
    from punclr.trees import read_treebank

    budgets = []

    def rank_out_of_time(forest, model, n, budget=None):
        budgets.append(budget)
        raise ranking.RankTimeout("out of time")

    artifacts = cli.load_artifacts(FIXTURES / "catalan.gr")
    gold = [t for _, t in read_treebank(_catalan_gold(tmp_path, 3))]
    parses = []
    real_parse = cli.parse_lattice

    def parse(*args, **kwargs):
        parses.append(real_parse(*args, **kwargs))
        return parses[-1]

    monkeypatch.setattr(cli, "parse_lattice", parse)
    monkeypatch.setattr(ranking, "rank_nbest", rank_out_of_time)
    with pytest.raises(cli.DataError, match="no gold sentence could be parsed"):
        cli.evaluate_against_gold(artifacts, gold, model=object(), timeout=5.0)
    assert budgets == [5.0 - outcome.cpu_seconds for outcome in parses]


def _tagged(tmp_path, text):
    p = tmp_path / "input.txt"
    p.write_text(text)
    return p


def test_rank_tag_likelihoods_flag_changes_scores(capsys, tmp_path):
    model = tmp_path / "m.model"
    run(
        capsys, "train", "--grammar", FIXTURES / "catalan.gr",
        "--treebank", FIXTURES / "catalan_train.tb", "--model-out", model,
    )
    sent = _tagged(tmp_path, "a|a:0.5 a|a:0.5\n")
    _, plain_out, _ = run(
        capsys, "rank", "--grammar", FIXTURES / "catalan.gr", "--model", model, sent,
    )
    _, lik_out, _ = run(
        capsys, "rank", "--grammar", FIXTURES / "catalan.gr", "--model", model, sent,
        "--tag-likelihoods",
    )
    logp = lambda out: float(out.split("logp")[1].split()[0])
    import math

    assert abs(logp(lik_out) - (logp(plain_out) + 2 * math.log(0.5))) < 1e-6


def test_tagged_example_parses_with_thresholding(capsys):
    code, out, err = run(
        capsys, "parse", "--grammar", FIXTURES / "tagseq.gr",
        FIXTURES / "tagged_example.txt", "--format", "tsv",
    )
    assert code == 0
    lines = [l for l in out.splitlines()[1:]]
    statuses = [l.split("\t")[1] for l in lines]
    assert statuses == ["ok", "ok", "ok"]


def test_rank_malformed_model_exits_2_with_line_number(capsys, tmp_path):
    model = tmp_path / "toy.model"
    run(
        capsys, "train", "--grammar", FIXTURES / "catalan.gr",
        "--treebank", FIXTURES / "catalan_train.tb", "--model-out", model,
    )
    lines = model.read_text().splitlines(keepends=True)
    model.write_text("".join(lines[:2] + ["\n"] + lines[2:]))
    sent = tmp_path / "s.txt"
    sent.write_text("a|a:1.0 a|a:1.0\n")
    code, out, err = run(
        capsys, "rank", "--grammar", FIXTURES / "catalan.gr", "--model", model, sent,
    )
    assert code == 2
    assert "line 3: blank line" in err


@pytest.mark.parametrize("command", ["parse", "stats", "rank"])
def test_table_option_is_usage_error(capsys, tmp_path, command):
    # every command builds its table from the grammar, so there is no table
    # file to pass
    table = tmp_path / "catalan.tbl"
    run(capsys, "compile", FIXTURES / "catalan.gr", "-o", table)
    sent = _tagged(tmp_path, "a|a:1.0 a|a:1.0\n")
    model = ["--model", table] if command == "rank" else []
    code, out, err = run(
        capsys, command, "--grammar", FIXTURES / "catalan.gr", *model, "--table", table, sent,
    )
    assert code == 1
    assert "--table" in err


@pytest.mark.parametrize("command", ["compile", "parse"])
def test_unproductive_grammar_exits_2_naming_the_symbol(capsys, tmp_path, command):
    grammar = tmp_path / "loop.gr"
    grammar.write_text("%start S\nS -> 'a' ;\nS -> 'a' L ;\nL -> L 'b' ;\n")
    if command == "compile":
        argv = ["compile", grammar]
    else:
        argv = ["parse", "--grammar", grammar, _tagged(tmp_path, "a|a:1.0\n")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "derive no terminal string: 'L'" in err


def test_rank_deep_chain_exits_0(capsys, tmp_path):
    grammar = tmp_path / "chain.gr"
    grammar.write_text("%start S\nS -> S 'a' ;\nS -> 'a' ;\n")
    treebank = tmp_path / "chain.tb"
    treebank.write_text("(S a)\n(S (S a) a)\n(S (S (S a) a) a)\n")
    model = tmp_path / "chain.model"
    code, _, _ = run(capsys, "train", "--grammar", grammar, "--treebank", treebank,
                     "--model-out", model)
    assert code == 0
    sent = tmp_path / "s.txt"
    sent.write_text(" ".join(["a|a:1.0"] * 2000) + "\n")
    code, out, err = run(capsys, "rank", "--grammar", grammar, "--model", model, sent,
                         "--nbest", "3", "--format", "tsv")
    assert code == 0, err
    (row,) = out.splitlines()
    assert row.startswith("0\t1\t") and row.endswith(" a)")


def test_rank_timeout_covers_ranking(capsys, tmp_path):
    """a^20 parses in about 1% of a quarter second of CPU, but its 5000 best
    analyses take seconds to rank: the sentence times out in ranking, the
    next one still ranks, and --strict counts the timeout."""
    model = tmp_path / "cat.model"
    code, _, _ = run(capsys, "train", "--grammar", FIXTURES / "catalan.gr",
                     "--treebank", FIXTURES / "catalan_train.tb", "--model-out", model)
    assert code == 0
    sent = tmp_path / "s.txt"
    sent.write_text(" ".join(["a|a:1.0"] * 20) + "\na|a:1.0 a|a:1.0\n")
    argv = ["rank", "--grammar", FIXTURES / "catalan.gr", "--model", model, sent,
            "--nbest", "5000", "--timeout", "0.25", "--format", "tsv"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == ["0\t*\ttimeout\t-", "1\t1\t0.0\t(X (X a) (X a))"]
    code, _, _ = run(capsys, *argv, "--strict")
    assert code == 3


def test_train_deep_left_branching_tree(capsys, tmp_path):
    depth = 1199
    treebank = tmp_path / "deep.tb"
    treebank.write_text("(X " * depth + "a" + " a)" * depth + "\n")
    code, out, err = run(
        capsys, "train", "--grammar", FIXTURES / "catalan.gr", "--treebank", treebank,
        "--model-out", tmp_path / "deep.model", "--format", "tsv",
    )
    assert code == 0, err
    header, values = (line.split("\t") for line in out.splitlines())
    report = dict(zip(header, values))
    assert report["treebank trees"] == "1"
    assert report["sentences used"] == "1"
    assert report["histories extracted"] == "1"


@pytest.mark.parametrize(
    "command, replacement, message",
    [
        ("rank", "prob 0 a bogus 2 0.5\n", "line 4: expected shift or reduce or accept"),
        # these gave "math domain error", "min() arg is an empty sequence",
        # and inf log-probs with exit 0
        ("rank", "prob 0 a shift 1 0.0\n", "line 4: expected a probability in (0, 1]"),
        ("rank", "unseen 0 a nan\n", "line 4: expected a probability in (0, 1]"),
        ("rank", "prob 0 a shift 1 inf\n", "line 4: expected a probability in (0, 1]"),
    ],
)
def test_unknown_action_kind_or_separator_exits_2(capsys, tmp_path, command, replacement,
                                                   message):
    grammar = FIXTURES / "catalan.gr"
    model = tmp_path / "m.model"
    run(capsys, "train", "--grammar", grammar,
        "--treebank", FIXTURES / "catalan_train.tb", "--model-out", model)
    lines = model.read_text().splitlines(keepends=True)
    lines[3] = replacement
    model.write_text("".join(lines))
    sent = tmp_path / "s.txt"
    sent.write_text("a|a:1.0 a|a:1.0\n")
    code, out, err = run(capsys, command, "--grammar", grammar, "--model", model, sent)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "options, message",
    [
        (["--weight", "1", "--weight", "2"], "2 --weight values for 1 --treebank files"),
        (["--weight", "-1"], "--weight must be finite and positive"),
        (["--weight", "0"], "--weight must be finite and positive"),
        (["--weight", "nan"], "--weight must be finite and positive"),
        (["--weight", "inf"], "--weight must be finite and positive"),
        (["--subsample", "half"], "--subsample must be a positive fraction"),
        (["--subsample", "1/0"], "--subsample must be a positive fraction"),
        (["--subsample", "0"], "--subsample must be a positive fraction"),
    ],
)
def test_train_bad_weight_or_subsample_is_usage_error(capsys, tmp_path, options, message):
    model = tmp_path / "m.model"
    code, out, err = run(
        capsys, "train", "--grammar", FIXTURES / "catalan.gr",
        "--treebank", FIXTURES / "catalan_train.tb", "--model-out", model, *options,
    )
    assert code == 1
    assert message in err
    assert not model.exists()


# sha256 prefixes of (model file, counts file, report) of punclr train: the
# bytes training must keep, whatever computes the transition counts
FLAT_TREEBANK = (
    "(X a a a a a)\n(X (X a a a) a a)\n(X a (X a a a a))\n(X (X a a) (X a a a))\n"
    "(X a a a a a a a)\n(X (X a a a a) (X a a a) a)\n"
)
TRAIN_PINS = {
    "catalan": (["catalan.gr", "catalan_train.tb"],
                ("82ef800c0be80cc5", "26e2c9edb98d07a1", "0dc61f1040f5044a")),
    "tagseq": (["tagseq.gr", "tagseq_gold.tb"],
               ("e5ed9c48f0e7b43d", "bd2cad84d5b53b76", "a8c52881879f6d06")),
    "weighted": (["catalan.gr", "catalan_train.tb", "catalan_test.tb", "--weight", "0.3",
                  "--weight", "2.5", "--subsample", "3/4", "--seed", "3"],
                 ("a3934dcb02da5f08", "dbc2f07813aab3ef", "9cfbea25bea99ab8")),
    "flat": (["catalan.gr", "FLAT", "catalan_train.tb", "--weight", "1.5"],
             ("8d8fb46825ec3ec0", "a4ef8fac12c18a80", "c3809ab17b7158d2")),
}


@pytest.mark.parametrize("case", sorted(TRAIN_PINS))
def test_train_outputs_pinned(capsys, tmp_path, case):
    (grammar, *rest), digests = TRAIN_PINS[case]
    flat = tmp_path / "flat.tb"
    flat.write_text(FLAT_TREEBANK)
    argv = ["--grammar", FIXTURES / grammar]
    for arg in rest:
        if arg.endswith(".tb") or arg == "FLAT":
            argv += ["--treebank", flat if arg == "FLAT" else FIXTURES / arg]
        else:
            argv.append(arg)
    model, counts = tmp_path / "m.model", tmp_path / "m.counts"
    code, out, err = run(capsys, "train", *argv, "--model-out", model, "--counts-out", counts)
    assert code == 0, err
    outputs = (model.read_bytes(), counts.read_bytes(), out.encode())
    assert tuple(hashlib.sha256(b).hexdigest()[:16] for b in outputs) == digests


@pytest.mark.parametrize("command", ["parse", "compile", "train"])
def test_unreadable_path_exits_2_without_traceback(capsys, tmp_path, command):
    argv = {
        "parse": ["parse", "--grammar", FIXTURES / "catalan.gr", tmp_path],
        "compile": ["compile", tmp_path],
        "train": ["train", "--grammar", FIXTURES / "catalan.gr",
                  "--treebank", FIXTURES / "catalan_train.tb", "--model-out", tmp_path],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Is a directory" in err


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        ("rank", "--nbest", "0", "argument --nbest: must be at least 1, not 0"),
        ("parse", "--jobs", "0", "argument --jobs: must be at least 1, not 0"),
        ("stats", "--jobs", "-2", "argument --jobs: must be at least 1, not -2"),
        ("parse", "--timeout", "nan", "argument --timeout: must be finite and positive"),
        ("rank", "--timeout", "-1", "argument --timeout: must be finite and positive"),
        ("eval", "--timeout", "inf", "argument --timeout: must be finite and positive"),
        ("parse", "--ratio", "0.5", "argument --ratio: must be at least 1, not 0.5"),
        ("stats", "--ratio", "nan", "argument --ratio: must be at least 1, not nan"),
        ("parse", "--certainty", "0", "argument --certainty: must be in (0, 1], not 0"),
        ("rank", "--certainty", "1.5", "argument --certainty: must be in (0, 1], not 1.5"),
        ("ablate", "--seeds", "0", "argument --seeds: must be at least 1, not 0"),
        ("parse", "--jobs", "two", "argument --jobs: invalid int value: 'two'"),
        ("train", "--max-histories", "0", "argument --max-histories: must be at least 1, not 0"),
        ("train", "--max-histories", "-1",
         "argument --max-histories: must be at least 1, not -1"),
    ],
)
def test_out_of_range_option_is_usage_error(capsys, tmp_path, command, option, value,
                                             message):
    sent = _tagged(tmp_path, "a|a:0.6|b:0.4\n")
    argv = {
        "parse": ["parse", "--grammar", FIXTURES / "catalan.gr", sent],
        "stats": ["stats", "--grammar", FIXTURES / "catalan.gr", sent],
        "rank": ["rank", "--grammar", FIXTURES / "catalan.gr", "--model", tmp_path / "m", sent],
        "eval": ["eval", "--gold", FIXTURES / "catalan_test.tb", "--parsed",
                 FIXTURES / "catalan_test.tb"],
        "ablate": ["ablate", "--grammar", FIXTURES / "catalan.gr", "--treebank",
                   FIXTURES / "catalan_train.tb", "--gold", FIXTURES / "catalan_test.tb"],
        "train": ["train", "--grammar", FIXTURES / "catalan.gr", "--treebank",
                  FIXTURES / "catalan_train.tb", "--model-out", tmp_path / "out.model"],
    }[command]
    code, out, err = run(capsys, *argv, option, value)
    assert code == 1
    assert message in err
    assert out == ""
    assert not (tmp_path / "out.model").exists()


def test_importing_the_cli_leaves_the_process_pool_out(tmp_path):
    """Importing the CLI loads no process pool; parse, stats and compile
    load no model, evaluation or treebank code they do not run; parse and
    stats, which compute no hash, leave OpenSSL's _hashlib out, and compile,
    which prints one, loads it; and no command loads dataclasses or the
    inspect module it imports.  The process runs under -S, so that site
    imports none of these first."""
    script = """
import contextlib, io, sys
from punclr import cli

def loaded(names):
    print(sorted(set(names) & set(sys.modules)), file=sys.stderr)

grammar, sentences, dump, treebank, gold, model = sys.argv[1:]
pool = {"concurrent.futures", "multiprocessing"}
unused = {"punclr.model", "punclr.trees", "fractions"}
heavy = {"dataclasses", "inspect"}
loaded(pool | heavy | {"_hashlib"})
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["parse", "--grammar", grammar, "--dump-forest", dump, sentences]) == 0
    loaded(pool | unused | heavy | {"punclr.evalmetrics", "_hashlib"})
    assert cli.main(["stats", "--grammar", grammar, sentences]) == 0
    loaded(pool | heavy | {"_hashlib"} | unused - {"punclr.trees"})
    assert cli.main(["compile", grammar]) == 0
    loaded(pool | heavy | unused - {"punclr.trees"})
    assert "_hashlib" in sys.modules
    assert cli.main(["train", "--grammar", grammar, "--treebank", treebank,
                     "--model-out", model]) == 0
    loaded(pool | heavy)
    assert cli.main(["rank", "--grammar", grammar, "--model", model, "--nbest", "3",
                     sentences]) == 0
    loaded(pool | heavy)
    assert cli.main(["eval", "--grammar", grammar, "--model", model, "--gold", gold]) == 0
    loaded(pool | heavy)
"""
    sentences = _tagged(tmp_path, "a|a:1.0 a|a:1.0 a|a:1.0\n")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, str(FIXTURES / "catalan.gr"), str(sentences),
         str(tmp_path / "forests"), str(FIXTURES / "catalan_train.tb"),
         str(FIXTURES / "catalan_test.tb"), str(tmp_path / "model.txt")],
        capture_output=True, text=True, env=_process_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["[]"] * 7
    assert (tmp_path / "forests" / "sentence000.forest").exists()


def test_long_unit_chain_grammar_compiles_and_parses(capsys, tmp_path):
    grammar = tmp_path / "chain.gr"
    grammar.write_text(unit_chain_grammar(1500))
    with recursion_headroom(200):
        code, out, err = run(capsys, "compile", grammar, "--format", "tsv")
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split("\t")[:4] == ["1501", "1501", "1503", "1503"]
        code, out, err = run(capsys, "parse", "--grammar", grammar,
                             _tagged(tmp_path, "a|a:1.0\n"))
    assert (code, err) == (0, "")
    assert out.split() == ["sentence", "0", "ok", "1", "parses"]


def _cyclic_garbage(argv):
    """Exit code, and the objects in reference cycles that main(argv) left
    behind, as (their number, the punclr classes among their types)."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = main([str(a) for a in argv])
        gc.collect()
        found = (len(gc.garbage),
                 {type(o) for o in gc.garbage if type(o).__module__.startswith("punclr")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return code, found


def test_commands_leave_no_cycles_that_grow_with_the_input(capsys, tmp_path):
    """main runs each command with the cyclic collector off.  That is only
    safe while the pipeline makes no reference cycles: with collection off
    and every cycle saved, each command leaves the same cyclic garbage for one
    sentence as for forty, and none of it is a punclr object other than the
    argument parser."""
    grammar = FIXTURES / "catalan.gr"
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        garbage = {}
        for n in (1, 40):
            lengths = [2 + i % 7 for i in range(n)]
            sentences = _tagged(tmp_path, "".join("a|a:1.0 " * k + "\n" for k in lengths))
            trees = tmp_path / ("trees%d.tb" % n)
            trees.write_text("".join("(X a " * (k - 1) + "a" + ")" * (k - 1) + "\n"
                                     for k in lengths))
            model = tmp_path / ("model%d.txt" % n)
            commands = {
                "compile": ["compile", grammar],
                "parse": ["parse", "--grammar", grammar, sentences],
                "stats": ["stats", "--grammar", grammar, sentences],
                "train": ["train", "--grammar", grammar, "--treebank", trees,
                          "--model-out", model],
                "rank": ["rank", "--grammar", grammar, "--model", model, "--nbest", "3",
                         sentences],
                "eval": ["eval", "--grammar", grammar, "--model", model, "--gold", trees],
            }
            for name, argv in commands.items():
                code, found = _cyclic_garbage(argv)
                assert code == 0, (name, capsys.readouterr().err)
                garbage.setdefault(name, []).append(found)
        capsys.readouterr()
    finally:
        if was_enabled:
            gc.enable()
    for name, (one, forty) in garbage.items():
        assert one == forty, name
        assert one[1] <= {cli._Parser}, name


def test_main_switches_the_collector_off_for_the_command_only(capsys, tmp_path, monkeypatch):
    seen = []
    compile_command = cli.cmd_compile

    def spy(args):
        seen.append(gc.isenabled())
        return compile_command(args)

    monkeypatch.setattr(cli, "cmd_compile", spy)
    unusable = tmp_path / "unusable.tb"
    unusable.write_text("(X b b)\n")
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert run(capsys, "compile", FIXTURES / "catalan.gr")[0] == 0
            assert gc.isenabled() == enabled
            code, _, err = run(capsys, "train", "--grammar", FIXTURES / "catalan.gr",
                               "--treebank", unusable, "--model-out", tmp_path / "m.txt")
            assert (code, err) == (2, "error: no usable treebank sentences (of 1 read)\n")
            assert gc.isenabled() == enabled
    finally:
        if was_enabled:
            gc.enable()
    assert seen == [False, False]
