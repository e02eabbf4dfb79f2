"""CLI tracing flow: ``learn --trace`` → ``trace`` → ``show --stats``.

Exercises the user-facing surface of the observability layer over a
real subprocess oracle: the traced artifact carries a telemetry
section, ``repro trace`` converts it to valid Chrome trace_event JSON
holding phase one's generalization steps, ``repro show --stats``
renders the counters, and an untraced artifact degrades with a clear
error instead of an empty file.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

ORACLE = '''\
import sys

text = sys.stdin.read()
sys.exit(0 if text and set(text) <= {"a"} else 1)
'''


def run_cli(tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro"] + list(args),
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )


def learn(tmp_path, out_name, *extra):
    oracle = tmp_path / "oracle.py"
    oracle.write_text(ORACLE)
    return run_cli(
        tmp_path,
        "learn",
        "--command", "{} {}".format(sys.executable, oracle),
        "--out", out_name,
        "--alphabet", "ab",
        "--samples", "0",
        "--seed", "aa",
        *extra,
    )


def test_traced_learn_exports_chrome_trace_and_stats(tmp_path):
    completed = learn(tmp_path, "run.json", "--trace")
    assert completed.returncode == 0, completed.stderr

    traced = run_cli(
        tmp_path, "trace", "run.json", "--out", "run.trace.json"
    )
    assert traced.returncode == 0, traced.stderr
    assert "Perfetto" in traced.stdout or "perfetto" in traced.stdout
    data = json.loads((tmp_path / "run.trace.json").read_text())
    assert data["traceEvents"]
    assert all("pid" in event and "ph" in event
               for event in data["traceEvents"])
    # Seed ``aa``'s Figure-2-style generalization steps, in order.
    steps = [
        event for event in data["traceEvents"] if event["name"] == "step"
    ]
    assert [event["args"]["chosen"] for event in steps] == [
        "([a]alt)*[a]rep",
        "([a]alt)*[]rep",
        "to-rep",
        "const",
        "to-rep",
        "const",
    ]
    assert all(event["cat"] == "phase1" and event["ph"] == "i"
               for event in steps)

    stats = run_cli(tmp_path, "show", "run.json", "--stats")
    assert stats.returncode == 0, stats.stderr
    assert "oracle.calls" in stats.stdout
    assert "spans by shard" in stats.stdout


def test_untraced_artifact_refuses_trace_export(tmp_path):
    completed = learn(tmp_path, "plain.json")
    assert completed.returncode == 0, completed.stderr

    refused = run_cli(tmp_path, "trace", "plain.json")
    assert refused.returncode == 2
    assert "error:" in refused.stderr
    assert "--trace" in refused.stderr
    assert not (tmp_path / "run.trace.json").exists()

    stats = run_cli(tmp_path, "show", "plain.json", "--stats")
    assert stats.returncode == 0, stats.stderr
    assert "not recorded" in stats.stdout
