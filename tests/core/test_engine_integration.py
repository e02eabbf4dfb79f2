"""Phase one learns the same trees whoever answers membership.

The membership engine must be a pure optimization: phase-1 output trees
and decision traces are byte-identical to a run whose current-language
tests go through the test-side Thompson reference instead, recompiled
from scratch for every language version.
"""

from hypothesis import given, settings, strategies as st

from repro.core.phase1 import synthesize_regex
from repro.languages.engine import MembershipSession
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


def _trace_key(result):
    return [
        (r.kind, r.alpha, r.context, r.chosen, r.checks, r.candidates_tried)
        for r in result.trace
    ]


def _assert_same_phase1(seed, oracle):
    engine = synthesize_regex(
        seed, oracle, record_trace=True, session=MembershipSession()
    )
    reference = synthesize_regex(
        seed, oracle, record_trace=True, session=ReferenceSession()
    )
    assert str(engine.regex()) == str(reference.regex())
    assert _trace_key(engine) == _trace_key(reference)


def test_phase1_trees_byte_identical_on_xml():
    _assert_same_phase1(XML_SEED, xml_oracle)


@given(
    seed=st.text(alphabet="ab<>/hi", max_size=8).filter(xml_like_oracle)
)
@settings(max_examples=25, deadline=None)
def test_phase1_trees_byte_identical_on_random_seeds(seed):
    _assert_same_phase1(seed, xml_like_oracle)
