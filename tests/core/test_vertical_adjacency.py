"""Vertical adjacency: the bisect over this stop's retired intervals.

A fresh box on a net layer joins the nets of the strip above it; the
intervals that left the active table at this stop are selected by
bisect on an x-sorted view rather than by filtering the whole list.
These tests run the host with that selection checked against the plain
filter on every call.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cif import Layout
from repro.core.scanline import ScanlineEngine
from repro.frontend import GeometryStream
from repro.geometry import Box
from repro.tech import NMOS
from repro.workloads.chips import build_chip


class CheckedEngine(ScanlineEngine):
    """Asserts every retired-overlap selection equals the plain filter."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.selections = []

    def _retired_overlaps(self, layer, x1, x2):
        got = super()._retired_overlaps(layer, x1, x2)
        want = [
            (px1, pnet)
            for px1, px2, pnet in self._prev_retired[layer]
            if px2 > x1 and px1 < x2
        ]
        assert sorted(got) == sorted(want)
        self.selections.append((layer, x1, x2, got))
        return got


def _run(layout, engine="python"):
    scan = CheckedEngine(NMOS(), engine=engine)
    circuit = scan.run(GeometryStream(layout))
    return scan, circuit


def test_piece_consumed_after_the_view_is_built_stays_visible():
    layout = Layout()
    top = layout.top
    top.add_box("NM", Box(0, 0, 10, 100))  # S: continues below y=50
    # A2 before A1: they expire at y=50 out of x order
    top.add_box("NM", Box(40, 50, 50, 100))  # A2
    top.add_box("NM", Box(20, 50, 30, 100))  # A1
    top.add_box("NM", Box(0, 40, 5, 50))  # F1: builds the view, eats S
    top.add_box("NM", Box(8, 45, 9, 50))  # F2: must still see S
    top.add_box("NM", Box(30, 45, 40, 50))  # F3: abuts A1 and A2 only
    top.add_box("NM", Box(22, 45, 28, 50))  # F4: under A1
    scan, circuit = _run(layout)
    seen = {
        (x1, x2): [px1 for px1, _ in got] for _, x1, x2, got in scan.selections
    }
    assert seen[8, 9] == [0]
    assert seen[30, 40] == []
    assert seen[22, 28] == [20]
    assert len(circuit.nets) == 4


boxes = st.lists(
    st.tuples(
        st.sampled_from(("NM", "NP", "ND")),
        st.integers(0, 16),
        st.integers(0, 16),
        st.integers(1, 6),
        st.integers(1, 6),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(boxes)
def test_selection_matches_filter_on_random_boxes(specs):
    layout = Layout()
    for layer, x, y, w, h in specs:
        layout.top.add_box(layer, Box(x, y, x + w, y + h))
    _run(layout)


def test_selection_matches_filter_on_a_suite_chip():
    scan, _ = _run(build_chip("cherry", 0.1, seed=3), engine="auto")
    assert any(got for *_, got in scan.selections)
