"""Earley against the membership engine on regular learned grammars.

Without phase two, GLADE's grammar is the translation of the combined
phase-one regex R̂ (§5), so it is regular and two independent
implementations decide the same language: the compiled Earley
recognizer over the grammar and the engine's lazy DFA over R̂. The
probes are the retained seeds, samples of R̂, and one-character edits
of those samples (a deletion, an insertion and a substitution each),
which land on both sides of the language's boundary.
"""

import random
from dataclasses import replace

import pytest

from repro.core.glade import GladeConfig, learn_grammar
from repro.evaluation.harness import default_subject_config
from repro.languages.earley import recognize
from repro.languages.engine import Engine
from repro.languages.sampler import sample_regex
from repro.programs import get_subject

from tests.core.helpers import XML_ALPHABET, xml_like_oracle


def xml_like_run():
    config = GladeConfig(alphabet=XML_ALPHABET, enable_phase2=False)
    seeds = ["<a>hi</a>", "xyz", "<a><a>q</a></a>"]
    return learn_grammar(seeds, xml_like_oracle, config)


def sed_run():
    subject = get_subject("sed")
    config = replace(default_subject_config(subject), enable_phase2=False)
    return learn_grammar(subject.seeds, subject.accepts, config)


def edits(text, alphabet, rng):
    """One deletion, one insertion and one substitution of ``text``."""
    index = rng.randrange(len(text) + 1)
    out = [text[:index] + rng.choice(alphabet) + text[index:]]
    if text:
        index = rng.randrange(len(text))
        out.append(text[:index] + text[index + 1 :])
        out.append(text[:index] + rng.choice(alphabet) + text[index + 1 :])
    return out


@pytest.mark.parametrize("make_run", [xml_like_run, sed_run])
def test_earley_agrees_with_engine_on_phase1_grammars(make_run):
    artifact = make_run()
    assert artifact.phase2_result is None
    grammar = artifact.require_grammar()
    regex = artifact.regex()
    matches = Engine().compile(regex).matches
    rng = random.Random(0)
    alphabet = "".join(sorted(artifact.config.alphabet))
    probes = artifact.seeds_used() + artifact.seeds_skipped()
    for _ in range(60):
        sample = sample_regex(regex, rng)
        probes.append(sample)
        probes.extend(edits(sample, alphabet, rng))
    verdicts = [matches(text) for text in probes]
    assert [recognize(grammar, text) for text in probes] == verdicts
    # The probes exercise both verdicts, not just membership.
    assert any(verdicts) and not all(verdicts)
