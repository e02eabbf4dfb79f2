"""Learn the URL language (§8.2) and compare against L-Star and RPNI.

Reproduces one column of Figure 4 at small scale: sample seeds from the
URL target, learn with GLADE and with the two baselines, and report
precision / recall / F1 for each.

Run:  python examples/learn_url_grammar.py
"""

import random

from repro import GladeConfig, learn_grammar
from repro.evaluation.metrics import (
    DFAView,
    GrammarView,
    evaluate_language,
)
from repro.learning.lstar import SamplingEquivalenceOracle, lstar
from repro.learning.rpni import rpni
from repro.targets import get_target

N_SEEDS = 10
EVAL_SAMPLES = 200


def main() -> None:
    target = get_target("url")
    seeds = sorted(target.sample_seeds(N_SEEDS, seed=1), key=len)
    print("seed inputs:")
    for seed in seeds:
        print("   ", seed)
    print()

    # --- GLADE -------------------------------------------------------
    result = learn_grammar(
        seeds, target.oracle, GladeConfig(alphabet=target.alphabet)
    )
    glade_scores = evaluate_language(
        GrammarView(result.grammar), target, n_samples=EVAL_SAMPLES
    )

    # --- L-Star with the §8.2 sampling equivalence oracle -------------
    rng = random.Random(2)
    sampler = target.sampler(rng)
    equivalence = SamplingEquivalenceOracle(
        target.oracle,
        target.alphabet,
        seeds=seeds,
        positive_sampler=sampler.sample,
        n_samples=50,
        rng=rng,
    )
    lstar_result = lstar(target.oracle, equivalence, target.alphabet,
                         max_rounds=10)
    lstar_scores = evaluate_language(
        DFAView(lstar_result.dfa), target, n_samples=EVAL_SAMPLES
    )

    # --- RPNI with 50 random negatives --------------------------------
    negatives = target.negative_samples(50, seed=3)
    rpni_result = rpni(seeds, negatives, target.alphabet)
    rpni_scores = evaluate_language(
        DFAView(rpni_result.dfa), target, n_samples=EVAL_SAMPLES
    )

    print("algorithm  precision  recall  F1")
    for name, scores in [
        ("glade", glade_scores),
        ("lstar", lstar_scores),
        ("rpni", rpni_scores),
    ]:
        print(
            "{:9s}  {:9.3f}  {:6.3f}  {:.3f}".format(
                name, scores.precision, scores.recall, scores.f1
            )
        )
    print()
    print("one of GLADE's learned regexes:", result.regexes()[0])


if __name__ == "__main__":
    main()
