"""Figure 5: example synthesized grammars for four simplified targets.

Full-fidelity (the paper's figure is qualitative): each simplified
target is learned from its representative seeds and the grammar printed.
The XML row must show the recursive merge (its non-regular production).
"""

from repro.evaluation.fig5 import format_fig5, run_fig5


def test_fig5_example_grammars(once):
    rows = once(run_fig5)
    print()
    print(format_fig5(rows))
    assert [r.name for r in rows] == ["URL", "Grep", "Lisp", "XML"]
    # Both rows merged at least one pair: some star's representative is
    # another star.
    for row in (rows[-1], rows[1]):
        representative = row.result.phase2_result.representative
        assert any(i != rep for i, rep in representative.items())
