"""Phase one learns the same trees whoever answers membership.

The membership engine must be a pure optimization: phase-1 output trees
and every traced generalization step are byte-identical to a run whose
current-language tests go through the test-side Thompson reference
instead, recompiled from scratch for every language version.
"""

from hypothesis import given, settings, strategies as st

from repro.core.phase1 import synthesize_regex
from repro.languages.engine import MembershipSession
from repro.obs.trace import Tracer
from repro.targets.xmllang import xml_oracle

from tests.core.helpers import xml_like_oracle
from tests.reference_nfa import compile_regex

#: A realistic seed for the paper's XML target (§8.2): attributes,
#: nesting, a comment, and a CDATA section.
XML_SEED = '<a href="x1">text<b>bold</b><!--note--><![CDATA[raw<>]]></a>'


class ReferenceSession:
    """The part of the session phase one uses, on the reference NFA."""

    def matcher(self, expr):
        return compile_regex(expr).matches


STEP_ARGS = {"kind", "alpha", "context", "chosen", "checks", "tried"}


def _traced_phase1(seed, oracle, session):
    """The learned regex and the args of every ``step`` event."""
    tracer = Tracer()
    result = synthesize_regex(seed, oracle, tracer=tracer, session=session)
    steps = [
        span["args"] for span in tracer.snapshot() if span["name"] == "step"
    ]
    assert steps and all(set(step) == STEP_ARGS for step in steps)
    return str(result.regex()), steps


def _assert_same_phase1(seed, oracle):
    engine = _traced_phase1(seed, oracle, MembershipSession())
    reference = _traced_phase1(seed, oracle, ReferenceSession())
    assert engine == reference


def test_phase1_trees_byte_identical_on_xml():
    _assert_same_phase1(XML_SEED, xml_oracle)


@given(
    seed=st.text(alphabet="ab<>/hi", max_size=8).filter(xml_like_oracle)
)
@settings(max_examples=25, deadline=None)
def test_phase1_trees_byte_identical_on_random_seeds(seed):
    _assert_same_phase1(seed, xml_like_oracle)
