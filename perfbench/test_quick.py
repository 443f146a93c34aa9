"""Quick-mode tests of the benchmark: schema, checks and pinned counters on
the small inputs, never timings.  Run with `python -m pytest perfbench`."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_is_correct_and_complete(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if workload == "train-eval":  # the flat 11-token tree is over the history cap
        assert result["failed"] == 1
    else:
        assert result["failed"] == 0


def test_generator_is_deterministic(tmp_path):
    gen.generate(5, tmp_path / "a", quick=True)
    gen.generate(5, tmp_path / "b", quick=True)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                   if p.is_file())
    assert files
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "parse-corpus", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_checks_count_wrong_outputs_as_failed():
    out = "sentence\tstatus\tparses\n0\tok\t5\n1\tok\t14\n2\tfail\t-\n"
    attempted, failed, problems = checks.check_parse(out, [5, 15, None], "x")
    assert (attempted, failed, len(problems)) == (3, 2, 1)

    trees = [["a", "a", "a", "a"], ["a", ["a", "a"]]]  # 5 + 1 histories
    header = ("treebank trees\tsentences used\thistories extracted\tskeleton-inconsistent"
              "\tunparseable\tover history cap\tfraction inconsistent\ttable hash\n")
    good = header + "2\t2\t6\t0\t0\t0\t0.000\tabc\n"
    assert checks.check_train(good, trees) == (2, 0, [])
    bad = header + "2\t2\t7\t0\t0\t0\t0.000\tabc\n"
    assert checks.check_train(bad, trees)[1] == 1


def test_tree_reader_and_history_product():
    path = ROOT / "fixtures" / "catalan_train.tb"
    trees = checks.read_trees(path)
    assert len(trees) == 16
    assert all(checks.tree_histories(t) == 1 for t in trees)  # fully bracketed
    assert checks.tree_histories(["a"] * 12) == 58786  # flat: Catalan(11)
