"""Tests for the subprocess oracle and the CLI (real-executable mode)."""

import sys

import pytest

from repro.cli import main as cli_main
from repro.learning.oracle import (
    CachingOracle,
    CountingOracle,
    SubprocessOracle,
    TracingOracle,
    prefetcher,
)
from repro.learning.resilience import (
    OracleFailedError,
    OracleTransientError,
    ResilientOracle,
)
from repro.obs.metrics import MetricsRegistry

# A tiny validator run as a real subprocess: accepts strings of a's.
_VALIDATOR = (
    "import sys; text = sys.stdin.read(); "
    "sys.exit(0 if text and set(text) <= {'a'} else 1)"
)


def _oracle(**kwargs) -> SubprocessOracle:
    return SubprocessOracle(
        [sys.executable, "-c", _VALIDATOR], **kwargs
    )


class TestSubprocessOracle:
    def test_accepts_valid_input(self):
        assert _oracle()("aaa")

    def test_rejects_invalid_input(self):
        assert not _oracle()("abc")
        assert not _oracle()("")

    def test_missing_binary_raises_transient(self):
        # Historically a spawn failure was silently treated as a
        # rejection, so a deleted/missing binary corrupted the learned
        # grammar. It is now a classified transient error.
        oracle = SubprocessOracle(["/nonexistent/binary-xyz"])
        with pytest.raises(OracleTransientError) as excinfo:
            oracle("anything")
        assert excinfo.value.cause == "spawn"
        assert oracle.drain_faults() == {"spawn": 1}
        assert oracle.drain_faults() == {}

    def test_enoent_mid_run_never_cached_as_reject(self, tmp_path):
        # Regression for the satellite: the oracle binary disappears
        # between calls. The spawn failure must surface as a transient
        # error — and a caching wrapper must not memoize a False for it.
        body = (
            "#!{}\n"
            "import sys\n"
            "sys.exit(0 if sys.stdin.read().startswith('ok') else 1)\n"
        ).format(sys.executable)
        script = tmp_path / "validator"
        script.write_text(body)
        script.chmod(0o755)
        oracle = SubprocessOracle([str(script)])
        cached = CachingOracle(oracle)
        assert cached("ok")
        script.unlink()
        with pytest.raises(OracleTransientError) as excinfo:
            cached("ok-again")
        assert excinfo.value.cause == "spawn"
        # The failed query left no cache entry: restoring the binary
        # lets the same query succeed.
        script.write_text(body)
        script.chmod(0o755)
        assert cached("ok-again")

    def test_timeout_verdict_reject_counts_fault(self):
        oracle = SubprocessOracle(
            [sys.executable, "-c", "import time; time.sleep(30)"],
            timeout_seconds=0.1,
        )
        assert not oracle("anything")
        assert oracle.drain_faults() == {
            "timeout": 1, "timeout_reject": 1,
        }

    def test_timeout_verdict_retry_raises_transient(self):
        oracle = SubprocessOracle(
            [sys.executable, "-c", "import time; time.sleep(30)"],
            timeout_seconds=0.1,
            timeout_verdict="retry",
        )
        with pytest.raises(OracleTransientError) as excinfo:
            oracle("anything")
        assert excinfo.value.cause == "timeout"

    def test_timeout_verdict_error_fails_fast(self):
        oracle = SubprocessOracle(
            [sys.executable, "-c", "import time; time.sleep(30)"],
            timeout_seconds=0.1,
            timeout_verdict="error",
        )
        with pytest.raises(OracleFailedError) as excinfo:
            oracle("anything")
        assert excinfo.value.cause == "timeout"

    def test_bad_timeout_verdict_rejected(self):
        with pytest.raises(ValueError):
            SubprocessOracle(["true"], timeout_verdict="explode")

    def test_file_input_mode(self):
        script = (
            "import sys; text = open(sys.argv[1]).read(); "
            "sys.exit(0 if text == 'ok' else 1)"
        )
        oracle = SubprocessOracle(
            [sys.executable, "-c", script, "{input}"],
            input_mode="file",
        )
        assert oracle("ok")
        assert not oracle("nope")

    def test_error_marker(self):
        script = (
            "import sys; text = sys.stdin.read();\n"
            "if 'x' in text: print('parse error', file=sys.stderr)\n"
            "sys.exit(0)"
        )
        oracle = SubprocessOracle(
            [sys.executable, "-c", script], error_marker="parse error"
        )
        assert oracle("clean")
        assert not oracle("xx")

    def test_bad_input_mode_rejected(self):
        with pytest.raises(ValueError):
            SubprocessOracle(["true"], input_mode="socket")

    def test_bad_max_workers_rejected(self):
        with pytest.raises(ValueError):
            SubprocessOracle(["true"], max_workers=0)

    def test_close_releases_pool_and_later_batches_recreate_it(self):
        oracle = _oracle(max_workers=2)
        oracle.prefetch(["aa", "bc"])
        assert oracle._pool is not None
        oracle.close()
        assert oracle._pool is None
        assert oracle._kept == {}
        oracle.prefetch(["a", "c"])
        assert oracle._pool is not None
        assert oracle("a") and not oracle("c")
        oracle.close()

    def test_context_manager_closes_pool(self):
        with _oracle(max_workers=2) as oracle:
            oracle.prefetch(["aa", "bc"])
            assert oracle("aa") and not oracle("bc")
        assert oracle._pool is None

    def test_successive_batches_share_one_pool(self):
        # Regression: the lazily created pool must be reused across
        # prefetches, not rebuilt per call (the learner hints thousands
        # of small sets; per-set pool setup would dominate).
        oracle = _oracle(max_workers=2)
        assert oracle._pool is None  # created lazily, not in __init__
        oracle.prefetch(["aa", "bc"])
        first_pool = oracle._pool
        assert first_pool is not None
        oracle.prefetch(["a", "aaa"])
        assert oracle._pool is first_pool
        oracle.close()

    def test_pickle_roundtrip_drops_pool(self):
        # Process-backend workers receive a pickled copy; the thread
        # pool and the kept runs are process-local state and must not
        # travel with it.
        import pickle

        oracle = _oracle(max_workers=2)
        oracle.prefetch(["aa", "bc"])
        assert oracle._pool is not None and oracle._kept
        clone = pickle.loads(pickle.dumps(oracle))
        assert clone._pool is None
        assert clone._kept == {}
        assert clone.max_workers == 2
        assert clone("aa") and not clone("bc")
        clone.prefetch(["a", "c"])
        assert clone("a") and not clone("c")
        clone.close()
        oracle.close()


def _logging_oracle(log, **kwargs) -> SubprocessOracle:
    """The a's validator, appending every input it runs on to ``log``."""
    script = (
        "import sys; text = sys.stdin.read(); "
        "open(sys.argv[1], 'a').write(repr(text) + '\\n'); "
        "sys.exit(0 if text and set(text) <= {'a'} else 1)"
    )
    return SubprocessOracle(
        [sys.executable, "-c", script, str(log)], **kwargs
    )


def _runs(log):
    return log.read_text().splitlines() if log.exists() else []


def _outcome(oracle, text):
    """A call's verdict or classified failure, for side-by-side checks."""
    try:
        return oracle(text)
    except (OracleTransientError, OracleFailedError) as exc:
        return type(exc).__name__, exc.cause


class TestPrefetch:
    def test_each_text_runs_once_and_calls_reuse_the_run(self, tmp_path):
        log = tmp_path / "runs.log"
        oracle = _logging_oracle(log, max_workers=4)
        oracle.prefetch(["aa", "bc", "aa", "a"])
        assert sorted(_runs(log)) == ["'a'", "'aa'", "'bc'"]
        assert oracle("aa") and not oracle("bc") and oracle("a")
        assert len(_runs(log)) == 3  # every call took a finished run
        assert oracle._kept == {}
        # A taken run is gone: asking again runs the program again.
        assert oracle("aa")
        assert len(_runs(log)) == 4
        oracle.close()

    def test_kept_run_is_not_run_again_by_a_later_prefetch(self, tmp_path):
        log = tmp_path / "runs.log"
        oracle = _logging_oracle(log, max_workers=2)
        oracle.prefetch(["a", "b"])
        oracle.prefetch(["a", "b", "aa"])  # one new text: nothing runs
        assert len(_runs(log)) == 2
        oracle.close()

    def test_one_worker_or_one_new_text_does_nothing(self, tmp_path):
        log = tmp_path / "runs.log"
        single = _logging_oracle(log)
        single.prefetch(["a", "b"])
        assert _runs(log) == [] and single._pool is None
        oracle = _logging_oracle(log, max_workers=2)
        oracle.prefetch(["a", "a"])
        assert _runs(log) == [] and oracle._pool is None

    def test_threads_sharing_one_oracle_take_each_run_once(self, tmp_path):
        # Thread-backend workers share one oracle. A kept run lost to a
        # race would make its call run the program again.
        import threading

        log = tmp_path / "runs.log"
        oracle = _logging_oracle(log, max_workers=4)
        batches = [["a" * n + tail for tail in ("", "b", "c")]
                   for n in range(1, 7)]
        errors = []

        def work(batch):
            try:
                oracle.prefetch(batch)
                for text in batch:
                    assert oracle(text) == (set(text) == {"a"})
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(b,)) for b in batches]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert oracle._kept == {}
        assert len(_runs(log)) == sum(len(b) for b in batches)
        oracle.close()

    def test_spawn_failure_surfaces_on_the_consuming_call(self):
        oracle = SubprocessOracle(["/nonexistent/binary-xyz"], max_workers=2)
        oracle.prefetch(["x", "y"])
        assert oracle._kept == {}
        assert oracle.drain_faults() == {}
        plain = SubprocessOracle(["/nonexistent/binary-xyz"])
        assert _outcome(oracle, "x") == _outcome(plain, "x") == (
            "OracleTransientError", "spawn",
        )
        assert oracle.drain_faults() == plain.drain_faults() == {
            "spawn": 1,
        }
        oracle.close()

    @pytest.mark.parametrize("verdict", ["reject", "retry", "error"])
    def test_timeout_surfaces_on_the_consuming_call(self, verdict):
        def sleeper(**kwargs):
            return SubprocessOracle(
                [sys.executable, "-c", "import time; time.sleep(30)"],
                timeout_seconds=0.1,
                timeout_verdict=verdict,
                **kwargs,
            )

        oracle = sleeper(max_workers=2)
        oracle.prefetch(["x", "y"])
        assert oracle._kept == {"x": None, "y": None}
        assert oracle.drain_faults() == {}  # counted by the call
        plain = sleeper()
        assert _outcome(oracle, "x") == _outcome(plain, "x")
        assert oracle.drain_faults() == plain.drain_faults()
        assert oracle._kept == {"y": None}
        oracle.close()


class TestPrefetcher:
    def test_in_process_and_single_worker_stacks_have_none(self):
        assert prefetcher(CountingOracle(CachingOracle(str.isalpha))) is None
        assert prefetcher(CachingOracle(_oracle())) is None

    def test_walks_wrappers_and_skips_cached_texts(self, tmp_path):
        # The pipeline's traced stack: counter, cache, tracing, retries.
        log = tmp_path / "runs.log"
        base = _logging_oracle(log, max_workers=2)
        registry = MetricsRegistry()
        cached = CachingOracle(
            TracingOracle(ResilientOracle(base), registry)
        )
        counting = CountingOracle(cached)
        assert counting("a")
        prefetch = prefetcher(counting)
        prefetch(["a", "aa", "bc"])
        assert sorted(_runs(log)) == ["'a'", "'aa'", "'bc'"]
        assert counting("aa") and not counting("bc")
        assert len(_runs(log)) == 3
        assert counting.queries == 3 and cached.unique_queries == 3
        histograms = registry.snapshot()["histograms"]
        assert histograms["oracle.prefetch_seconds"]["count"] == 1
        base.close()


class TestCLI:
    def test_learn_from_inline_seed(self, capsys, tmp_path):
        command = "{} -c \"{}\"".format(sys.executable, _VALIDATOR)
        code = cli_main(
            [
                "learn",
                "--command", command,
                "--seed", "aa",
                "--alphabet", "ab",
                "--samples", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phase-one regex" in out
        assert "sample:" in out

    def test_learn_from_seed_file(self, capsys, tmp_path):
        seed_file = tmp_path / "seeds.txt"
        seed_file.write_text("a\naa\n")
        command = "{} -c \"{}\"".format(sys.executable, _VALIDATOR)
        code = cli_main(
            [
                "learn",
                "--command", command,
                "--seed-file", str(seed_file),
                "--alphabet", "ab",
                "--no-chargen",
                "--samples", "0",
            ]
        )
        assert code == 0
        assert "oracle queries" in capsys.readouterr().out

    def test_no_seeds_errors(self):
        with pytest.raises(SystemExit):
            cli_main(["learn", "--command", "true"])
