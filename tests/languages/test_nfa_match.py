"""Regex membership unit cases, plus the reference NFA's primitives.

``TestCompilation`` runs through ``Regex.matches`` (the membership
engine); ``TestNFAPrimitives`` covers the test-side Thompson reference
the engine property tests compare against.
"""

from repro.languages import regex as rx

from tests.reference_nfa import NFA


class TestNFAPrimitives:
    def test_manual_automaton(self):
        nfa = NFA()
        s0, s1, s2 = nfa.new_state(), nfa.new_state(), nfa.new_state()
        nfa.start, nfa.accept = s0, s2
        nfa.add_char(s0, frozenset("a"), s1)
        nfa.add_eps(s1, s2)
        assert nfa.matches("a")
        assert not nfa.matches("")
        assert not nfa.matches("aa")

    def test_eps_closure_transitive(self):
        nfa = NFA()
        states = [nfa.new_state() for _ in range(4)]
        nfa.add_eps(states[0], states[1])
        nfa.add_eps(states[1], states[2])
        closure = nfa.eps_closure(frozenset({states[0]}))
        assert states[2] in closure
        assert states[3] not in closure

    def test_step_dead_end(self):
        nfa = NFA()
        s0 = nfa.new_state()
        nfa.start = nfa.accept = s0
        assert nfa.step(frozenset({s0}), "x") == frozenset()


class TestCompilation:
    def test_no_exponential_blowup(self):
        # (a|aa)^16 — catastrophic for backtrackers, linear here.
        unit = rx.alt(rx.Lit("a"), rx.Lit("aa"))
        expr = rx.Concat([unit] * 16)
        assert expr.matches("a" * 16)
        assert expr.matches("a" * 24)
        assert not expr.matches("a" * 15)

    def test_star_zero_iterations(self):
        assert rx.star(rx.Lit("abc")).matches("")

    def test_empty_set_matches_nothing(self):
        assert not rx.EMPTY.matches("")
        assert not rx.EMPTY.matches("a")

    def test_charclass_edge(self):
        expr = rx.CharClass(frozenset("pq"))
        assert expr.matches("p")
        assert expr.matches("q")
        assert not expr.matches("r")

    def test_deep_nesting(self):
        expr = rx.Lit("x")
        for _ in range(30):
            expr = rx.star(rx.concat(expr, rx.Lit("y")))
        assert expr.matches("")  # outermost star
