"""Evaluation harnesses: one module per figure of the paper's §8, plus
the unified suite harness (:mod:`repro.evaluation.harness`) that learns
each subject once and derives every figure's metrics from the shared
artifacts."""

from repro.evaluation.metrics import (
    DFAView,
    EvalScores,
    GrammarView,
    LanguageView,
    estimate_precision,
    estimate_recall,
    evaluate_language,
)

#: Harness names re-exported lazily (PEP 562): the suite harness pulls
#: in the whole subjects/fuzzing/exec/coverage stack, which light
#: consumers of this package (``repro show`` via
#: :mod:`repro.evaluation.reporting`, the metrics helpers) must not pay
#: for at import time.
_HARNESS_EXPORTS = (
    "SubjectArtifactCache",
    "compare",
    "run_suite",
    "subject_artifact",
)


def __getattr__(name):
    if name in _HARNESS_EXPORTS:
        from repro.evaluation import harness

        return getattr(harness, name)
    raise AttributeError(
        "module {!r} has no attribute {!r}".format(__name__, name)
    )


__all__ = [
    "DFAView",
    "EvalScores",
    "GrammarView",
    "LanguageView",
    "SubjectArtifactCache",
    "compare",
    "estimate_precision",
    "estimate_recall",
    "evaluate_language",
    "run_suite",
    "subject_artifact",
]
