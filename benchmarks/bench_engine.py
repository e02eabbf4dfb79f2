"""Microbenchmark: the membership engine against the reference NFA.

One quantity, one acceptance gate: the warm membership engine must
answer at least 5x faster than the test-side Thompson reference
(``tests/reference_nfa.py``) on a realistic probe mix (the learned
regex probed with its seed, fixed-seed samples of itself, and
single-edit mutations of those — the shape of phase-1 discard checks
and §6.1 coverage tests). The engine is timed as
``Engine().compile(regex).matches`` per string, after one warm-up pass
has filled its lazy DFA; the reference is timed as its per-string
set-of-states simulation. Verdict agreement with the reference on every
probe is asserted before any timing is trusted.

Both subjects exercised here learn quickly (xml via the handwritten
oracle, javascript via the instrumented parser subject), so the whole
benchmark stays in smoke-test territory.
"""

import os
import random
import sys
import time

from repro.core.phase1 import synthesize_regex
from repro.languages.engine import Engine
from repro.languages.sampler import sample_regex
from repro.programs import get_subject
from repro.targets.xmllang import xml_oracle

#: The repository root, where the test-side reference is importable
#: from; a script run (``PYTHONPATH=src python
#: benchmarks/bench_engine.py``) does not have it on ``sys.path``.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Same realistic §8.2 XML seed as tests/core/test_engine_integration.py.
XML_SEED = '<a href="x1">text<b>bold</b><!--note--><![CDATA[raw<>]]></a>'

#: Short javascript seed: synthesis against the instrumented parser is
#: orders of magnitude slower per query than the xml oracle, so the
#: second subject stays small.
JS_SEED = "var x = 1;"

#: (subject, oracle, seed) pairs the benchmark runs over.
SUBJECTS = (
    ("xml", xml_oracle, XML_SEED),
    ("javascript", None, JS_SEED),  # None: use the subject's accepts
)

#: Membership probe-mix size and timing passes. min-of-passes is
#: reported (robust to scheduler noise).
N_PROBES = 240
N_PASSES = 15

#: The membership gate (xml): the warm engine must beat the reference's
#: per-string simulation by at least this factor. Measured on a 2-core
#: x86_64 box under CPython 3.11: ~16x on xml, ~11x on javascript.
MIN_MEMBERSHIP_SPEEDUP = 5.0


def _oracle_for(name, oracle):
    if oracle is not None:
        return oracle
    return get_subject(name).accepts


def _probe_mix(regex, seed_text, n_probes=N_PROBES):
    """A deterministic probe workload shaped like the learner's checks.

    Half fixed-seed samples of the language (valid-heavy, like §6.1
    coverage probes), half single-edit mutations of those (reject-heavy,
    like phase-1 discard checks), plus the seed itself.
    """
    rng = random.Random(1729)
    alphabet = sorted({c for c in seed_text}) or ["a"]
    probes = [seed_text]
    n_samples = n_probes // 2
    for _ in range(n_samples):
        probes.append(sample_regex(regex, rng, max_reps=3))
    while len(probes) < n_probes:
        base = rng.choice(probes[: n_samples // 2 + 1])
        pos = rng.randrange(max(1, len(base)))
        op = rng.randrange(3)
        if op == 0:  # substitute
            probes.append(base[:pos] + rng.choice(alphabet) + base[pos + 1:])
        elif op == 1:  # delete
            probes.append(base[:pos] + base[pos + 1:])
        else:  # insert
            probes.append(base[:pos] + rng.choice(alphabet) + base[pos:])
    return probes


def _reference_matcher(regex):
    """The reference NFA's per-string matcher for ``regex``."""
    if _ROOT not in sys.path:
        sys.path.insert(0, _ROOT)
    from tests.reference_nfa import compile_regex

    return compile_regex(regex).matches


def _best_pass(match, probes, n_passes):
    """The fastest of ``n_passes`` per-string loops over ``probes``."""
    best = float("inf")
    for _ in range(n_passes):
        started = time.perf_counter()
        for probe in probes:
            match(probe)
        best = min(best, time.perf_counter() - started)
    return best


def run_membership_benchmark(subject="xml", n_passes=N_PASSES):
    """Warm engine vs reference NFA simulation on the same probe mix."""
    name, oracle, seed = next(s for s in SUBJECTS if s[0] == subject)
    accepts = _oracle_for(name, oracle)
    regex = synthesize_regex(seed, accepts).regex()
    probes = _probe_mix(regex, seed)

    match_engine = Engine().compile(regex).matches
    match_reference = _reference_matcher(regex)

    # The warm-up pass doubles as the agreement check: no timing is
    # trusted unless the engine answers exactly like the reference.
    disagree = [
        probe for probe in probes
        if match_engine(probe) != match_reference(probe)
    ]
    if disagree:
        raise AssertionError(
            "engine disagrees with the reference NFA on {} of {} {} "
            "probes, e.g. {!r}".format(
                len(disagree), len(probes), name, disagree[0]
            )
        )

    reference_seconds = _best_pass(match_reference, probes, n_passes)
    engine_seconds = _best_pass(match_engine, probes, n_passes)
    return {
        "subject": name,
        "probes": len(probes),
        "accepted": sum(1 for probe in probes if match_engine(probe)),
        "passes": n_passes,
        "reference_seconds": reference_seconds,
        "engine_seconds": engine_seconds,
        "speedup": reference_seconds / engine_seconds,
    }


def format_membership(result):
    return (
        "membership ({subject}, {probes} probes, {accepted} accepted, "
        "min of {passes} passes): reference NFA "
        "{reference_seconds:.4f}s, engine {engine_seconds:.4f}s "
        "-> {speedup:.2f}x".format(**result)
    )


# -- pytest-benchmark entry points ------------------------------------


def test_membership_speedup(once):
    result = once(lambda: run_membership_benchmark("xml"))
    print()
    print(format_membership(result))
    # Loose bound under pytest (dev machines are noisy); the strict
    # MIN_MEMBERSHIP_SPEEDUP gate runs in main() on the CI bench job.
    assert result["speedup"] >= 2.0


def main(argv=None):
    """CLI: print the membership timings; ``--json PATH`` also writes them.

    The CI benchmark smoke job runs this with ``--json
    BENCH_engine.json`` and uploads the result, so the perf trajectory
    is recorded per commit; ``--min-membership-speedup`` (default
    {gate}x, on xml) makes the run fail when the warm engine loses its
    lead over the reference NFA.
    """.format(gate=MIN_MEMBERSHIP_SPEEDUP)

    import argparse
    import json
    import platform

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the benchmark rows as JSON to this path",
    )
    parser.add_argument(
        "--min-membership-speedup", type=float,
        default=MIN_MEMBERSHIP_SPEEDUP, metavar="X",
        help="fail unless the warm engine answers the xml probes at "
        "least X times faster than the reference NFA (default "
        "%(default)s)",
    )
    args = parser.parse_args(argv)

    membership = {}
    for subject, _oracle, _seed in SUBJECTS:
        membership[subject] = run_membership_benchmark(subject)
        print(format_membership(membership[subject]))

    xml_speedup = membership["xml"]["speedup"]
    failed = xml_speedup < args.min_membership_speedup
    if failed:
        print(
            "FAIL: xml membership speedup {:.2f}x is below the "
            "{:.2f}x gate".format(xml_speedup, args.min_membership_speedup)
        )

    if args.json:
        payload = {
            "benchmark": "bench_engine",
            "python": platform.python_version(),
            "membership": membership,
            "min_membership_speedup": args.min_membership_speedup,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print("wrote {}".format(args.json))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
