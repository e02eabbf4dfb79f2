"""Microbenchmark: the membership engine's dense tier vs its lazy tier.

One quantity, one acceptance gate: the dense tier must answer
membership at least 2x faster than the warm lazy-DFA tier on a
realistic probe mix (the learned XML regex probed with its seed,
fixed-seed samples of itself, and single-edit mutations of those — the
shape of phase-1 discard checks and §6.1 coverage tests). The lazy
tier is timed as ``Engine().compile(regex).matches`` per string, the
dense tier as ``Engine().matcher(regex).match_many`` over the batch.
Both are timed warm (promotion is paid once, during the agreement
check; min-of-passes reporting excludes one-off costs anyway). Verdict
agreement between the tiers is asserted before any timing is trusted.

Both subjects exercised here learn quickly (xml via the handwritten
oracle, javascript via the instrumented parser subject), so the whole
benchmark stays in smoke-test territory.
"""

import random
import time

from repro.core.phase1 import synthesize_regex
from repro.languages.engine import Engine
from repro.languages.sampler import sample_regex
from repro.programs import get_subject
from repro.targets.xmllang import xml_oracle

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
#: reported (robust to scheduler noise; totals are printed too).
N_PROBES = 240
N_PASSES = 30

#: The membership gate (xml): dense must beat the warm lazy-DFA tier by
#: at least this factor. Measured headroom on a quiet machine is ~2.7x.
MIN_MEMBERSHIP_SPEEDUP = 2.0


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


def run_membership_benchmark(subject="xml", n_passes=N_PASSES):
    """Warm lazy-DFA tier vs dense tier on the same probe mix."""
    name, oracle, seed = next(s for s in SUBJECTS if s[0] == subject)
    accepts = _oracle_for(name, oracle)
    regex = synthesize_regex(seed, accepts).regex()
    probes = _probe_mix(regex, seed)

    match_nfa = Engine().compile(regex).matches
    engine_dense = Engine()
    match_dense = engine_dense.matcher(regex)

    # Warm the lazy-DFA tier (its steady state is the fair baseline) and
    # check verdict agreement before timing anything.
    reference = [match_nfa(probe) for probe in probes]
    if match_dense.match_many(probes) != reference:
        raise AssertionError(
            "dense tier disagrees with the lazy-DFA tier on {}".format(name)
        )

    nfa_seconds = []
    dense_seconds = []
    for _ in range(n_passes):
        started = time.perf_counter()
        for probe in probes:
            match_nfa(probe)
        nfa_seconds.append(time.perf_counter() - started)
        started = time.perf_counter()
        match_dense.match_many(probes)
        dense_seconds.append(time.perf_counter() - started)
    best_nfa = min(nfa_seconds)
    best_dense = min(dense_seconds)
    return {
        "subject": name,
        "probes": len(probes),
        "passes": n_passes,
        "nfa_seconds": best_nfa,
        "dense_seconds": best_dense,
        "speedup": best_nfa / best_dense,
        "tiers": engine_dense.tier_summary(),
    }


def format_membership(result):
    return (
        "membership ({subject}, {probes} probes, min of {passes} passes): "
        "lazy-DFA {nfa_seconds:.4f}s, dense {dense_seconds:.4f}s "
        "-> {speedup:.2f}x".format(**result)
    )


# -- pytest-benchmark entry points ------------------------------------


def test_membership_speedup(once):
    result = once(lambda: run_membership_benchmark("xml"))
    print()
    print(format_membership(result))
    assert result["tiers"]["fragments_promoted"] >= 1
    # Loose bound under pytest (dev machines are noisy); the strict
    # MIN_MEMBERSHIP_SPEEDUP gate runs in main() on the CI bench job.
    assert result["speedup"] >= 1.2


def main(argv=None):
    """CLI: print the membership timings; ``--json PATH`` also writes them.

    The CI benchmark smoke job runs this with ``--json
    BENCH_engine.json`` and uploads the result, so the perf trajectory
    is recorded per commit; ``--min-membership-speedup`` (default
    {gate}x, on xml) makes the run fail when the dense tier loses its
    win.
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
        help="fail unless dense membership on xml is at least X times "
        "faster than the warm lazy-DFA tier (default %(default)s)",
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
