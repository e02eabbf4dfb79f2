"""End-to-end CLI round trip: ``learn --out`` → kill → ``resume`` → ``sample``.

The oracle is a real subprocess (a tiny Python recognizer for the
language ``x+ | y+ | z+``) that logs every invocation. The learn run is
SIGKILLed mid-phase-1 — after at least one seed's checkpoint is written
but before the run completes — then resumed. Acceptance criteria:

- the resumed artifact's grammar is byte-identical (as serialized JSON
  and as rendered text) to an uninterrupted run's;
- accumulated ``oracle_queries`` equals the uninterrupted run's total;
- the resumed process re-issues no oracle queries for seeds that were
  already checkpointed (its invocation count is bounded by the
  uninterrupted run's post-checkpoint work);
- ``sample`` draws identical samples from both artifacts under the
  same ``--rng-seed``.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.artifacts import ArtifactError, FileCheckpointStore

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

ORACLE = '''\
import os
import sys
import time

text = sys.stdin.read()
with open(os.environ["ORACLE_LOG"], "a") as log:
    log.write(repr(text) + "\\n")
time.sleep(0.02)  # widen the kill window for the interruption test
ok = bool(text) and (set(text) <= {"x"} or set(text) <= {"y"} or set(text) <= {"z"})
sys.exit(0 if ok else 1)
'''

SEEDS = ["xx", "yy", "zz"]


def cli_env(tmp_path, log_name):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["ORACLE_LOG"] = str(tmp_path / log_name)
    return env


def cli_command(*args):
    return [sys.executable, "-m", "repro"] + list(args)


def learn_args(oracle_path, out_path):
    args = [
        "learn",
        "--command", "{} {}".format(sys.executable, oracle_path),
        "--out", str(out_path),
        "--alphabet", "xyz",
        "--samples", "0",
    ]
    for seed in SEEDS:
        args += ["--seed", seed]
    return args


def read_checkpoint(path):
    """The checkpoint at ``path`` as ``repro resume`` loads it (the
    journal replayed onto the snapshot, or the previous generation when
    a kill between its rotation and its replace left none), as JSON
    data; None if there is none yet."""
    try:
        artifact = FileCheckpointStore(path).load()
    except (ArtifactError, OSError):
        return None  # a rotation raced the read; retry
    if artifact is None:
        return None
    return json.loads(json.dumps(artifact.to_dict()))


def log_lines(tmp_path, log_name):
    path = tmp_path / log_name
    if not path.exists():
        return []
    return path.read_text().splitlines()


@pytest.fixture
def oracle_path(tmp_path):
    path = tmp_path / "oracle.py"
    path.write_text(ORACLE)
    return path


def run_cli(args, env, **kwargs):
    return subprocess.run(
        cli_command(*args),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        **kwargs,
    )


def test_learn_kill_resume_sample_roundtrip(tmp_path, oracle_path):
    # 1. Uninterrupted reference run.
    env = cli_env(tmp_path, "full.log")
    full_out = tmp_path / "full.json"
    completed = run_cli(learn_args(oracle_path, full_out), env)
    assert completed.returncode == 0, completed.stderr
    full = json.loads(full_out.read_text())
    assert full["status"] == "complete"
    full_invocations = len(log_lines(tmp_path, "full.log"))
    assert full_invocations > 0

    # 2. Interrupted run: SIGKILL once the first seed's checkpoint lands.
    env = cli_env(tmp_path, "killed.log")
    killed_out = tmp_path / "killed.json"
    proc = subprocess.Popen(
        cli_command(*learn_args(oracle_path, killed_out)),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 90
        killed_mid_run = False
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            snapshot = read_checkpoint(killed_out)
            if (
                snapshot
                and snapshot["status"] == "in_progress"
                and len(snapshot["phase1_results"]) >= 1
            ):
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=30)
                killed_mid_run = True
                break
            time.sleep(0.005)
        assert killed_mid_run, "learn finished before it could be killed"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    checkpoint = read_checkpoint(killed_out)
    assert checkpoint["status"] == "in_progress"
    done_states = {"used", "skipped"}
    finished = [s for s in checkpoint["seeds"] if s["state"] in done_states]
    unfinished = [
        s for s in checkpoint["seeds"] if s["state"] not in done_states
    ]
    assert finished and unfinished  # genuinely mid-run
    base_queries = checkpoint["oracle_queries"]

    # 3. Resume from the checkpoint.
    resume_log_before = len(log_lines(tmp_path, "killed.log"))
    resumed = run_cli(["resume", str(killed_out)], env)
    assert resumed.returncode == 0, resumed.stderr
    final = json.loads(killed_out.read_text())
    assert final["status"] == "complete"

    # Byte-identical grammar, both serialized and rendered.
    assert json.dumps(final["grammar"], sort_keys=True) == json.dumps(
        full["grammar"], sort_keys=True
    )
    # Identical accumulated query statistics (the paper's cost metric).
    assert final["oracle_queries"] == full["oracle_queries"]
    # Finished seeds kept their checkpointed per-seed query counts, and
    # the resumed process stayed within the post-checkpoint budget: zero
    # queries were re-issued for already-checkpointed seeds.
    full_by_text = {s["text"]: s for s in full["seeds"]}
    for seed in finished:
        assert seed["queries"] == full_by_text[seed["text"]]["queries"]
    resume_invocations = len(log_lines(tmp_path, "killed.log")) - resume_log_before
    assert resume_invocations <= full["oracle_queries"] - base_queries

    # 4. Sampling from both artifacts is identical under one rng seed.
    samples_full = run_cli(
        ["sample", str(full_out), "-n", "8", "--rng-seed", "7"], env
    )
    samples_resumed = run_cli(
        ["sample", str(killed_out), "-n", "8", "--rng-seed", "7"], env
    )
    assert samples_full.returncode == 0
    assert samples_full.stdout == samples_resumed.stdout
    assert len(samples_full.stdout.splitlines()) == 8

    # Different rng seeds draw from the same grammar deterministically.
    again = run_cli(
        ["sample", str(full_out), "-n", "8", "--rng-seed", "7"], env
    )
    assert again.stdout == samples_full.stdout

    # 5. `show` summarizes the resumed artifact.
    shown = run_cli(["show", str(killed_out)], env)
    assert shown.returncode == 0
    assert "status: complete" in shown.stdout
    assert "phase-one regex" in shown.stdout


def test_parallel_learn_kill_resume_matches_serial(tmp_path, oracle_path):
    """``learn --jobs 4`` SIGKILLed mid-run, then ``resume --jobs 4``,
    ends byte-identical to an uninterrupted ``--jobs 1`` run — the
    determinism guarantee of the execution subsystem, end to end."""
    # Reference: uninterrupted serial (--jobs 1) run.
    env = cli_env(tmp_path, "ref.log")
    ref_out = tmp_path / "ref.json"
    completed = run_cli(learn_args(oracle_path, ref_out), env)
    assert completed.returncode == 0, completed.stderr
    ref = json.loads(ref_out.read_text())
    assert ref["execution"]["backend"] == "serial"
    assert ref["execution"]["jobs"] == 1

    # Interrupted parallel run (thread backend keeps it light on CI).
    env = cli_env(tmp_path, "par.log")
    par_out = tmp_path / "par.json"
    parallel = ["--jobs", "4", "--backend", "thread"]
    proc = subprocess.Popen(
        cli_command(*(learn_args(oracle_path, par_out) + parallel)),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 90
        killed_mid_run = False
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            snapshot = read_checkpoint(par_out)
            if (
                snapshot
                and snapshot["status"] == "in_progress"
                and len(snapshot["phase1_results"]) >= 1
            ):
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=30)
                killed_mid_run = True
                break
            time.sleep(0.005)
        assert killed_mid_run, "learn finished before it could be killed"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    resumed = run_cli(
        ["resume", str(par_out), "--jobs", "4", "--backend", "thread"], env
    )
    assert resumed.returncode == 0, resumed.stderr
    final = json.loads(par_out.read_text())
    assert final["status"] == "complete"

    # Byte-identical grammar and equal counted metrics vs --jobs 1.
    assert json.dumps(final["grammar"], sort_keys=True) == json.dumps(
        ref["grammar"], sort_keys=True
    )
    assert final["oracle_queries"] == ref["oracle_queries"]
    assert [s["state"] for s in final["seeds"]] == [
        s["state"] for s in ref["seeds"]
    ]
    assert [s["queries"] for s in final["seeds"]] == [
        s["queries"] for s in ref["seeds"]
    ]
    # The artifact records how phase 1 actually executed.
    assert final["execution"]["backend"] == "thread"
    assert final["execution"]["jobs"] == 4

    # Samples drawn from both artifacts are identical.
    a = run_cli(["sample", str(ref_out), "-n", "6", "--rng-seed", "3"], env)
    b = run_cli(["sample", str(par_out), "-n", "6", "--rng-seed", "3"], env)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_learn_reports_seed_provenance_on_rejection(tmp_path, oracle_path):
    env = cli_env(tmp_path, "reject.log")
    seed_file = tmp_path / "seeds.txt"
    seed_file.write_text("xx\nnope!\n")
    proc = subprocess.run(
        cli_command(
            "learn",
            "--command", "{} {}".format(sys.executable, oracle_path),
            "--seed-file", str(seed_file),
            "--samples", "0",
        ),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    combined = proc.stdout + proc.stderr
    assert "rejected by the oracle" in combined
    assert "seeds.txt:2" in combined
    # A rejected seed is a user error, not a crash.
    assert "Traceback" not in combined


def test_learn_refuses_to_clobber_in_progress_artifact(
    tmp_path, oracle_path
):
    from repro.artifacts import RunArtifact, SeedRecord, save_artifact

    env = cli_env(tmp_path, "clobber.log")
    out = tmp_path / "run.json"
    save_artifact(RunArtifact(seeds=[SeedRecord(text="xx")]), out)

    args = [
        "learn",
        "--command", "{} {}".format(sys.executable, oracle_path),
        "--seed", "xx",
        "--alphabet", "xyz",
        "--samples", "0",
        "--out", str(out),
    ]
    refused = run_cli(args, env)
    assert refused.returncode != 0
    assert "resume" in refused.stderr
    # The checkpoint survived the refused run.
    assert json.loads(out.read_text())["status"] == "in_progress"

    forced = run_cli(args + ["--force"], env)
    assert forced.returncode == 0, forced.stderr
    assert json.loads(out.read_text())["status"] == "complete"


@pytest.mark.parametrize("current", ["truncated", "missing"])
def test_learn_refuses_to_clobber_recoverable_previous_generation(
    tmp_path, oracle_path, current
):
    """A damaged or missing ``X`` beside an in-progress ``X.prev`` is a
    run ``repro resume X`` recovers, so ``learn --out X`` must refuse
    it too."""
    from repro.artifacts import RunArtifact, SeedRecord, save_artifact

    env = cli_env(tmp_path, "clobber.log")
    out = tmp_path / "run.json"
    previous = tmp_path / "run.json.prev"
    save_artifact(RunArtifact(seeds=[SeedRecord(text="xx")]), previous)
    if current == "truncated":
        save_artifact(RunArtifact(seeds=[SeedRecord(text="xx")]), out)
        out.write_text(out.read_text()[:40])
    kept = previous.read_text()

    args = [
        "learn",
        "--command", "{} {}".format(sys.executable, oracle_path),
        "--seed", "xx",
        "--alphabet", "xyz",
        "--samples", "0",
        "--out", str(out),
    ]
    refused = run_cli(args, env)
    assert refused.returncode != 0
    assert "resume" in refused.stderr
    assert previous.read_text() == kept
    assert read_checkpoint(out)["status"] == "in_progress"


def test_malformed_artifact_is_reported_cleanly(tmp_path):
    from repro.artifacts import SCHEMA_VERSION

    path = tmp_path / "mangled.json"
    path.write_text(
        json.dumps({"kind": "glade-run", "schema_version": SCHEMA_VERSION})
    )
    env = cli_env(tmp_path, "unused.log")
    proc = run_cli(["show", str(path)], env)
    assert proc.returncode == 2
    assert "malformed run artifact" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_resume_rejects_artifact_without_oracle(tmp_path):
    # An in-process artifact (no oracle spec) cannot be resumed by the CLI.
    from repro.artifacts import RunArtifact, SeedRecord, save_artifact

    artifact = RunArtifact(seeds=[SeedRecord(text="xx")])
    path = tmp_path / "noracle.json"
    save_artifact(artifact, path)
    env = cli_env(tmp_path, "unused.log")
    proc = run_cli(["resume", str(path)], env)
    assert proc.returncode != 0
    assert "no oracle command" in (proc.stdout + proc.stderr)


def test_sample_requires_grammar(tmp_path):
    from repro.artifacts import RunArtifact, SeedRecord, save_artifact

    artifact = RunArtifact(seeds=[SeedRecord(text="xx")])
    path = tmp_path / "nogrammar.json"
    save_artifact(artifact, path)
    env = cli_env(tmp_path, "unused.log")
    proc = run_cli(["sample", str(path)], env)
    assert proc.returncode != 0
    assert "no grammar" in (proc.stdout + proc.stderr)


def test_version_mismatch_is_reported(tmp_path):
    path = tmp_path / "future.json"
    path.write_text(json.dumps({"kind": "glade-run", "schema_version": 999}))
    env = cli_env(tmp_path, "unused.log")
    proc = run_cli(["show", str(path)], env)
    assert proc.returncode == 2
    assert "schema version" in proc.stderr


PHASE2_ORACLE = '''\
import os
import sys
import time

text = sys.stdin.read()
with open(os.environ["ORACLE_LOG"], "a") as log:
    log.write(repr(text) + "\\n")
time.sleep(0.02)  # widen the kill window for the interruption test
ok = bool(text) and any(set(text) <= {c} for c in "wxyz")
sys.exit(0 if ok else 1)
'''

PHASE2_SEEDS = ["xx", "yy", "zz", "ww"]


def phase2_learn_args(oracle_path, out_path, extra=()):
    args = [
        "learn",
        "--command", "{} {}".format(sys.executable, oracle_path),
        "--out", str(out_path),
        "--alphabet", "wxyz",
        "--samples", "0",
    ]
    for seed in PHASE2_SEEDS:
        args += ["--seed", seed]
    return args + list(extra)


def test_phase2_kill_resume_matches_serial(tmp_path):
    """``learn --jobs 4`` SIGKILLed *mid-phase-2*, then ``resume --jobs
    2`` (a different job count), ends byte-identical to an
    uninterrupted serial run with equal accumulated counted query
    stats — the wavefront checkpointing guarantee, end to end.

    Four single-letter seeds give four repetition stars and six merge
    candidates; the oracle's per-query sleep stretches phase 2 wide
    enough to kill between two pair commits.
    """
    oracle_path = tmp_path / "oracle2.py"
    oracle_path.write_text(PHASE2_ORACLE)

    # Reference: uninterrupted serial (--jobs 1) run.
    env = cli_env(tmp_path, "p2ref.log")
    ref_out = tmp_path / "p2ref.json"
    completed = run_cli(phase2_learn_args(oracle_path, ref_out), env)
    assert completed.returncode == 0, completed.stderr
    ref = json.loads(ref_out.read_text())
    assert ref["status"] == "complete"
    ref_decisions = ref["phase2_progress"]["decisions"]
    # At least the C(4,2) cross-seed candidates (phase 1 may introduce
    # more than one star per seed).
    assert len(ref_decisions) >= 6

    # Interrupted parallel run: SIGKILL once at least one pair has
    # committed but before the whole plan has.
    env = cli_env(tmp_path, "p2kill.log")
    kill_out = tmp_path / "p2kill.json"
    proc = subprocess.Popen(
        cli_command(*phase2_learn_args(
            oracle_path, kill_out, ["--jobs", "4", "--backend", "thread"]
        )),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 90
        killed_mid_phase2 = False
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            snapshot = read_checkpoint(kill_out)
            if snapshot and snapshot["status"] == "in_progress":
                decisions = snapshot.get("phase2_progress", {}).get(
                    "decisions", []
                )
                pairs = snapshot.get("phase2_progress", {}).get(
                    "pairs", 0
                )
                if 0 < len(decisions) < pairs:
                    proc.send_signal(signal.SIGKILL)
                    proc.wait(timeout=30)
                    killed_mid_phase2 = True
                    break
            time.sleep(0.002)
        assert killed_mid_phase2, "learn finished before a mid-phase-2 kill"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    checkpoint = read_checkpoint(kill_out)
    assert checkpoint["status"] == "in_progress"
    committed = checkpoint["phase2_progress"]["decisions"]
    assert 0 < len(committed) < checkpoint["phase2_progress"]["pairs"]
    # The committed prefix agrees with the serial run's decisions.
    assert committed == ref_decisions[: len(committed)]

    # Resume at a *different* job count.
    resumed = run_cli(
        ["resume", str(kill_out), "--jobs", "2", "--backend", "thread"],
        env,
    )
    assert resumed.returncode == 0, resumed.stderr
    final = json.loads(kill_out.read_text())
    assert final["status"] == "complete"

    # Byte-identical grammar, equal accumulated counted query stats,
    # identical committed decision log.
    assert json.dumps(final["grammar"], sort_keys=True) == json.dumps(
        ref["grammar"], sort_keys=True
    )
    assert final["oracle_queries"] == ref["oracle_queries"]
    assert final["phase2_progress"]["decisions"] == ref_decisions
    assert final["phase2_progress"]["backend"] == "thread"
    assert final["phase2_progress"]["jobs"] == 2

    # Samples drawn from both artifacts are identical.
    a = run_cli(["sample", str(ref_out), "-n", "6", "--rng-seed", "3"], env)
    b = run_cli(["sample", str(kill_out), "-n", "6", "--rng-seed", "3"], env)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout

    # `show` reports the phase-2 execution record.
    shown = run_cli(["show", str(kill_out)], env)
    assert shown.returncode == 0
    assert "phase-2 execution" in shown.stdout
