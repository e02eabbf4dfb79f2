"""Reproduction of the paper's worked example (Figures 1-3).

Seed ``<a>hi</a>`` with the XML-like oracle must produce exactly the
R1...R8 generalization steps of Figure 2, the regular expression
``(<a>(h + i)*</a>)*`` of step R9, the C1 merge, and — with character
generalization — the final grammar with L(Ĉ') = L(C_XML).
"""

import random

import pytest

from repro.core import (
    GladeConfig,
    learn_grammar,
    stars_of,
    synthesize_regex,
)
from repro.core.phase2 import plan_merges
from repro.languages.earley import recognize
from repro.languages.sampler import GrammarSampler
from repro.obs.trace import Tracer

from tests.core.helpers import XML_ALPHABET, xml_like_oracle

SEED = "<a>hi</a>"


@pytest.fixture(scope="module")
def phase1_run():
    tracer = Tracer()
    result = synthesize_regex(SEED, xml_like_oracle, tracer=tracer)
    return result, tracer


@pytest.fixture(scope="module")
def steps(phase1_run):
    """The args of phase one's ``step`` events, in order."""
    _result, tracer = phase1_run
    return [
        span["args"]
        for span in tracer.snapshot()
        if span["name"] == "step" and span["cat"] == "phase1"
    ]


def test_oracle_sanity():
    assert xml_like_oracle(SEED)
    assert xml_like_oracle("")
    assert xml_like_oracle("<a><a>deep</a></a>")
    assert not xml_like_oracle("<a>hi</a")
    assert not xml_like_oracle("<a><b>x</b></a>")


def test_phase1_regex_matches_paper(phase1_run):
    result, _tracer = phase1_run
    assert str(result.regex()) == "(<a>(h + i)*</a>)*"


def test_phase1_steps_match_figure2(steps):
    assert [(s["kind"], s["alpha"], s["chosen"]) for s in steps] == [
        # R1: seed bracketed as rep, full star chosen.
        ("rep", "<a>hi</a>", "([<a>hi</a>]alt)*[]rep"),
        # R2: no alternation split passes; fall back to rep.
        ("alt", "<a>hi</a>", "to-rep"),
        # R3: <a> ([hi]_alt)* [</a>]_rep.
        ("rep", "<a>hi</a>", "<a>([hi]alt)*[</a>]rep"),
        # R4: </a> becomes a constant.
        ("rep", "</a>", "const"),
        # R5: hi splits into h + i.
        ("alt", "hi", "[h]rep + [i]alt"),
        # R6-R8: i and h settle as constants.
        ("alt", "i", "to-rep"),
        ("rep", "i", "const"),
        ("rep", "h", "const"),
    ]


def test_figure2_r3_checks(steps):
    """The chosen R3 candidate's checks are <a></a> and <a>hihi</a>."""
    r3 = steps[2]
    assert r3["context"] == ["", ""]
    assert set(r3["checks"]) == {"<a></a>", "<a>hihi</a>"}


def test_figure2_r5_checks(steps):
    """The chosen R5 candidate's checks are <a>h</a> and <a>i</a>."""
    r5 = steps[4]
    assert r5["context"] == ["<a>", "</a>"]
    assert set(r5["checks"]) == {"<a>h</a>", "<a>i</a>"}


@pytest.fixture(scope="module")
def full_result():
    config = GladeConfig(alphabet=XML_ALPHABET)
    return learn_grammar([SEED], xml_like_oracle, config)


def test_phase2_merges_the_two_stars(full_result):
    # C1 of Figure 2: the two stars share one representative.
    representative = full_result.phase2_result.representative
    assert len(representative) == 2
    assert len(set(representative.values())) == 1


def test_phase2_merge_checks_match_paper(full_result):
    plan = plan_merges(stars_of(full_result.trees()[0]))
    assert len(plan.pairs) == 1
    # The paper's §5.3 checks — hihi and <a><a>hi</a><a>hi</a></a> —
    # must be among the constructed checks (our merge adds the
    # mixed-adjacency residuals on top; see repro.core.phase2).
    assert {"hihi", "<a><a>hi</a><a>hi</a></a>"} <= set(
        plan.pairs[0].checks
    )


def test_final_language_equals_target(full_result):
    """With chargen, L(Ĉ') = L(C_XML) (§6.2) — checked on both sides."""
    grammar = full_result.grammar
    # Recall probes: strings in the target must be recognized.
    for text in [
        "",
        "xyz",
        "<a></a>",
        "<a>hi</a>",
        "<a><a>deep</a>ok</a>",
        "<a>hi</a><a>ho</a>",
        "<a><a><a>n</a></a></a>",
    ]:
        assert recognize(grammar, text), text
    # Precision probes: strings outside the target must be rejected.
    for text in ["<a>", "</a>", "<a>hi</a", "<a><a>x</a>", "<b></b>"]:
        assert not recognize(grammar, text), text


def test_sampled_precision_is_perfect(full_result):
    sampler = GrammarSampler(full_result.grammar, random.Random(0))
    for _ in range(300):
        assert xml_like_oracle(sampler.sample())


def test_limitations_example_from_section7():
    """§7: with seed <a><a/></a> alone, phase one synthesizes the
    suboptimal (<a(><a/)*></a>)* and the merge is rejected."""

    def oracle(text: str) -> bool:
        def parse(i: int):
            while i < len(text):
                char = text[i]
                if char.isalpha() and char.islower() and char not in "<>/":
                    i += 1
                elif text.startswith("<a/>", i):
                    i += 4
                elif text.startswith("<a>", i):
                    inner = parse(i + 3)
                    if inner is None or not text.startswith("</a>", inner):
                        return None
                    i = inner + 4
                else:
                    return i
            return i

        return parse(0) == len(text)

    result = synthesize_regex("<a><a/></a>", oracle)
    assert str(result.regex()) == "(<a(><a/)*></a>)*"

    # With the second seed of §7, the right structure is recovered.
    config = GladeConfig(alphabet="a</>", enable_chargen=False)
    two_seed = learn_grammar(["<a/>", "<a>hi</a>"], oracle, config)
    assert recognize(two_seed.grammar, "<a><a/><a/></a>")
    assert recognize(two_seed.grammar, "<a><a>hi</a></a>")
