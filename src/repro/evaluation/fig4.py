"""Figure 4: comparison against language-inference baselines (§8.2).

- **Fig 4(a)**: F1 of L-Star, RPNI, GLADE-P1 (phase two omitted) and
  GLADE on the URL, Grep, Lisp, and XML targets, trained on sampled
  seeds with a timeout (300 s in the paper; scaled down by default).
- **Fig 4(b)**: running time of the same runs.
- **Fig 4(c)**: GLADE's precision, recall, and time versus the number of
  seed inputs, on the XML target.

Following §8.2, seeds are given to each learner incrementally and the
last language learned before the timeout is scored. 1000-sample
precision/recall in the paper; scaled by ``eval_samples``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.glade import GladeConfig, learn_grammar
from repro.evaluation.metrics import (
    DFAView,
    EvalScores,
    GrammarView,
    LanguageView,
    evaluate_language,
)
from repro.evaluation.reporting import format_series, format_table
from repro.learning.lstar import SamplingEquivalenceOracle, lstar
from repro.learning.oracle import DeadlineOracle, LearningTimeout
from repro.learning.rpni import rpni
from repro.targets import TARGET_NAMES, get_target

ALGORITHMS = ["lstar", "rpni", "glade-p1", "glade"]

#: Incremental seed schedule (§8.2: "we incrementally give the seed
#: inputs to the algorithms until they time out").
_SEED_STEPS = (5, 10, 20, 35, 50)


@dataclass
class Fig4Cell:
    """One (target, algorithm) measurement."""

    target: str
    algorithm: str
    precision: float
    recall: float
    f1: float
    seconds: float
    seeds_used: int
    timed_out: bool


def _seed_schedule(n_seeds: int) -> List[int]:
    steps = [s for s in _SEED_STEPS if s < n_seeds]
    return steps + [n_seeds]


def _learn_incrementally(
    learn_step: Callable[[Sequence[str], float], LanguageView],
    seeds: Sequence[str],
    time_limit: float,
) -> tuple:
    """Feed seeds incrementally; keep the last language learned in time."""
    deadline = time.monotonic() + time_limit
    best: Optional[LanguageView] = None
    best_count = 0
    timed_out = False
    for count in _seed_schedule(len(seeds)):
        try:
            best = learn_step(seeds[:count], deadline)
            best_count = count
        except LearningTimeout:
            timed_out = True
            break
    return best, best_count, timed_out


def run_cell(
    target_name: str,
    algorithm: str,
    n_seeds: int = 50,
    time_limit: float = 60.0,
    eval_samples: int = 1000,
    seed: int = 0,
) -> Fig4Cell:
    """Run one learner on one target and score it."""
    target = get_target(target_name)
    seeds = sorted(target.sample_seeds(n_seeds, seed=seed), key=len)
    started = time.monotonic()

    if algorithm in ("glade", "glade-p1"):
        config = GladeConfig(
            enable_phase2=(algorithm == "glade"),
            alphabet=target.alphabet,
        )

        def learn_step(subset, deadline):
            oracle = DeadlineOracle(target.oracle, deadline)
            result = learn_grammar(subset, oracle, config)
            return GrammarView(result.grammar)

    elif algorithm == "lstar":

        def learn_step(subset, deadline):
            oracle = DeadlineOracle(target.oracle, deadline)
            rng = random.Random(seed + 17)
            sampler = target.sampler(rng)
            equivalence = SamplingEquivalenceOracle(
                oracle,
                target.alphabet,
                seeds=subset,
                positive_sampler=sampler.sample,
                n_samples=50,
                rng=rng,
            )
            result = lstar(oracle, equivalence, target.alphabet)
            return DFAView(result.dfa)

    elif algorithm == "rpni":
        negatives = target.negative_samples(50, seed=seed + 31)

        def learn_step(subset, deadline):
            result = rpni(
                subset, negatives, target.alphabet, deadline=deadline
            )
            return DFAView(result.dfa)

    else:
        raise ValueError("unknown algorithm {!r}".format(algorithm))

    learned, seeds_used, timed_out = _learn_incrementally(
        learn_step, seeds, time_limit
    )
    elapsed = time.monotonic() - started
    if learned is None:
        scores = EvalScores(precision=0.0, recall=0.0)
    else:
        scores = evaluate_language(
            learned, target, n_samples=eval_samples, seed=seed + 5
        )
    return Fig4Cell(
        target=target_name,
        algorithm=algorithm,
        precision=scores.precision,
        recall=scores.recall,
        f1=scores.f1,
        seconds=elapsed,
        seeds_used=seeds_used,
        timed_out=timed_out,
    )


def run_fig4ab(
    targets: Sequence[str] = tuple(TARGET_NAMES),
    algorithms: Sequence[str] = tuple(ALGORITHMS),
    n_seeds: int = 50,
    time_limit: float = 60.0,
    eval_samples: int = 1000,
    runs: int = 1,
) -> List[Fig4Cell]:
    """Run the full Fig 4(a)/(b) matrix, averaging over ``runs``."""
    cells: List[Fig4Cell] = []
    for target_name in targets:
        for algorithm in algorithms:
            samples = [
                run_cell(
                    target_name,
                    algorithm,
                    n_seeds=n_seeds,
                    time_limit=time_limit,
                    eval_samples=eval_samples,
                    seed=run,
                )
                for run in range(runs)
            ]
            cells.append(_average_cells(samples))
    return cells


def _average_cells(samples: List[Fig4Cell]) -> Fig4Cell:
    n = len(samples)
    return Fig4Cell(
        target=samples[0].target,
        algorithm=samples[0].algorithm,
        precision=sum(s.precision for s in samples) / n,
        recall=sum(s.recall for s in samples) / n,
        f1=sum(s.f1 for s in samples) / n,
        seconds=sum(s.seconds for s in samples) / n,
        seeds_used=max(s.seeds_used for s in samples),
        timed_out=any(s.timed_out for s in samples),
    )


def format_fig4ab(cells: List[Fig4Cell]) -> str:
    """Render the Fig 4(a) F1 table and the Fig 4(b) time table."""
    headers = ["target", "algorithm", "precision", "recall", "F1",
               "time(s)", "seeds", "timeout"]
    rows = [
        [
            c.target,
            c.algorithm,
            c.precision,
            c.recall,
            c.f1,
            c.seconds,
            c.seeds_used,
            "yes" if c.timed_out else "no",
        ]
        for c in cells
    ]
    return (
        "Figure 4(a)+(b): F1 score and running time per algorithm\n"
        + format_table(headers, rows)
    )


def run_fig4c(
    target_name: str = "xml",
    seed_counts: Sequence[int] = (2, 5, 10, 15, 25, 35, 50),
    eval_samples: int = 500,
    time_limit: float = 120.0,
) -> Dict[str, List[float]]:
    """GLADE precision/recall/time vs |E_in| on the XML target (Fig 4c)."""
    target = get_target(target_name)
    all_seeds = sorted(target.sample_seeds(max(seed_counts)), key=len)
    precisions: List[float] = []
    recalls: List[float] = []
    times: List[float] = []
    for count in seed_counts:
        started = time.monotonic()
        oracle = DeadlineOracle(
            target.oracle, time.monotonic() + time_limit
        )
        result = learn_grammar(
            all_seeds[:count],
            oracle,
            GladeConfig(alphabet=target.alphabet),
        )
        elapsed = time.monotonic() - started
        scores = evaluate_language(
            GrammarView(result.grammar), target, n_samples=eval_samples
        )
        precisions.append(scores.precision)
        recalls.append(scores.recall)
        times.append(elapsed)
    return {
        "seed_counts": list(seed_counts),
        "precision": precisions,
        "recall": recalls,
        "time": times,
    }


def format_fig4c(data: Dict[str, List[float]]) -> str:
    return format_series(
        "Figure 4(c): GLADE vs number of seed inputs (XML target)",
        data["seed_counts"],
        [
            ("precision", data["precision"]),
            ("recall", data["recall"]),
            ("time(s)", data["time"]),
        ],
    )


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=25)
    parser.add_argument("--eval-samples", type=int, default=300)
    parser.add_argument("--time-limit", type=float, default=30.0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's parameters (50 seeds, 1000 samples, 300 s)",
    )
    parser.add_argument("--skip-4c", action="store_true")
    args = parser.parse_args()
    if args.paper_scale:
        args.seeds, args.eval_samples, args.time_limit = 50, 1000, 300.0
        args.runs = 5
    cells = run_fig4ab(
        n_seeds=args.seeds,
        time_limit=args.time_limit,
        eval_samples=args.eval_samples,
        runs=args.runs,
    )
    print(format_fig4ab(cells))
    if not args.skip_4c:
        print()
        print(format_fig4c(run_fig4c(eval_samples=args.eval_samples)))


if __name__ == "__main__":
    main()
