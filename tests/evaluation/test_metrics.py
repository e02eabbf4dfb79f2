"""Tests for precision/recall/F1 estimation (Definition 2.1)."""

import random

import pytest

from repro.evaluation.metrics import (
    DFAView,
    EvalScores,
    GrammarView,
    estimate_precision,
    estimate_recall,
    evaluate_language,
)
from repro.languages import regex as rx
from repro.languages.cfg import Grammar, Nonterminal, Production
from repro.targets import get_target

from tests.reference_automata import regex_to_dfa

S = Nonterminal("S")


def test_f1_formula():
    scores = EvalScores(precision=0.5, recall=1.0)
    assert scores.f1 == pytest.approx(2 / 3)
    assert EvalScores(0.0, 0.0).f1 == 0.0


def test_perfect_learner_scores_one():
    target = get_target("url")
    learned = GrammarView(target.grammar)
    scores = evaluate_language(learned, target, n_samples=150)
    assert scores.precision == 1.0
    assert scores.recall == 1.0


def test_overgeneral_learner_low_precision():
    target = get_target("url")
    sigma_star = Grammar(
        S,
        [Production(S, ())]
        + [
            Production(S, (c, S))
            for c in sorted(set(target.alphabet))
        ],
    )
    learned = GrammarView(sigma_star)
    precision = estimate_precision(
        learned, target.oracle, n_samples=150
    )
    recall = estimate_recall(
        learned, target.sampler(random.Random(0)).sample, n_samples=150
    )
    assert precision < 0.2  # Σ* is almost never a valid URL
    assert recall == 1.0


def test_undergeneral_learner_low_recall():
    target = get_target("url")
    single = Grammar(S, [Production(S, ("http://ab.cd",))])
    learned = GrammarView(single)
    scores = evaluate_language(learned, target, n_samples=150)
    assert scores.precision == 1.0
    assert scores.recall < 0.2


def test_dfa_view():
    dfa = regex_to_dfa(rx.star(rx.Lit("ab")), "ab")
    view = DFAView(dfa)
    assert view.contains("abab")
    assert not view.contains("aba")
    sample = view.sample(random.Random(0))
    assert sample is not None
    assert view.contains(sample)


def test_empty_dfa_view_precision_zero():
    dfa = regex_to_dfa(rx.EMPTY, "ab")
    view = DFAView(dfa)
    assert view.sample(random.Random(0)) is None
    assert estimate_precision(view, lambda s: True, n_samples=10) == 0.0
