"""End-to-end `repro eval`: suite artifact, cache reuse, and the
baseline regression gate (the CI eval-gate contract)."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def suite_env(tmp_path):
    return {
        "cache": str(tmp_path / "cache"),
        "out": str(tmp_path / "BENCH_suite.json"),
        "baseline": str(tmp_path / "baseline.json"),
    }


def run_eval(*extra, env):
    argv = [
        "eval",
        "--subjects", "sed",
        "--cache-dir", env["cache"],
        "--out", env["out"],
    ]
    return main(argv + list(extra))


def test_eval_writes_suite_and_gates_on_baseline(suite_env, capsys):
    # First run: learn, write the suite artifact.
    assert run_eval(env=suite_env) == 0
    data = json.loads(open(suite_env["out"]).read())
    assert data["kind"] == "glade-eval-suite"
    assert "sed" in data["metrics"]
    assert data["metrics"]["sed"]["oracle_queries"] > 0

    # Adopt it as the baseline; a re-run over the same cache must
    # compare stable and exit 0 under --check. Only the deterministic
    # verdict is asserted: the wall-clock one depends on machine load.
    open(suite_env["baseline"], "w").write(json.dumps(data))
    assert run_eval(
        "--baseline", suite_env["baseline"], "--check", env=suite_env
    ) == 0
    out = capsys.readouterr().out
    assert "deterministic metrics: stable" in out.splitlines()

    # Seed a deterministic-metric regression into the baseline (the
    # current run now counts more queries than the baseline claims):
    # --check must fail the build.
    data["metrics"]["sed"]["oracle_queries"] -= 1
    data["metrics"]["sed"]["grammar_digest"] = "0" * 64
    open(suite_env["baseline"], "w").write(json.dumps(data))
    assert run_eval(
        "--baseline", suite_env["baseline"], "--check", env=suite_env
    ) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out

    # Without --check the same drift is reported but not fatal.
    assert run_eval(
        "--baseline", suite_env["baseline"], env=suite_env
    ) == 0


def test_eval_cache_reuse_skips_learning(suite_env, capsys):
    assert run_eval(env=suite_env) == 0
    first = json.loads(open(suite_env["out"]).read())
    assert first["execution"]["cache_misses"] == 1
    # Second invocation over the same cache directory: zero learning.
    assert run_eval(env=suite_env) == 0
    second = json.loads(open(suite_env["out"]).read())
    assert second["execution"]["cache_misses"] == 0
    assert second["execution"]["cache_hits"] == 1
    assert second["metrics"] == first["metrics"]


def test_eval_rejects_unknown_subject(suite_env, capsys):
    with pytest.raises(SystemExit):
        main(["eval", "--subjects", "nope"])


def test_eval_check_requires_baseline(suite_env):
    with pytest.raises(SystemExit):
        main(["eval", "--subjects", "sed", "--check", "--out", ""])
