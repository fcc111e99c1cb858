"""The lazy sorted geometry stream (ACE's front-end)."""

import json
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.frontend.stream as stream_mod
from repro.cif import Label, Layout
from repro.frontend import GeometryStream, instantiate
from repro.geometry import Box, Polygon, Transform
from repro.workloads import transistor_array

from .stream_trace import FIXTURE, ORIENTATIONS, TRACE_CASES, stream_trace


class TestOrdering:
    @given(
        st.lists(
            st.tuples(
                st.integers(-100, 100),
                st.integers(-100, 100),
                st.integers(1, 40),
                st.integers(1, 40),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_boxes_emerge_sorted_by_top(self, specs):
        layout = Layout()
        for x, y, w, h in specs:
            layout.top.add_box("ND", Box(x, y, x + w, y + h))
        stream = GeometryStream(layout)
        tops = [ymax for _, _, _, _, ymax in stream.drain()]
        assert tops == sorted(tops, reverse=True)
        assert len(tops) == len(specs)

    def test_fetch_returns_exact_top_matches(self):
        layout = Layout()
        layout.top.add_box("ND", Box(0, 0, 2, 10))
        layout.top.add_box("NP", Box(0, 5, 2, 10))
        layout.top.add_box("NM", Box(0, 0, 2, 8))
        stream = GeometryStream(layout)
        assert stream.next_top() == 10
        first = stream.fetch(10)
        assert {layer for layer, *_ in first} == {"ND", "NP"}
        assert stream.next_top() == 8

    def test_records_are_translated_coordinates(self):
        layout = Layout()
        cell = layout.define(1)
        cell.add_box("ND", Box(0, 0, 4, 10))
        layout.top.add_call(1, Transform(0, 1, -1, 0, dx=100, dy=50))
        assert GeometryStream(layout).drain() == [("ND", 90, 50, 100, 54)]

    def test_empty_layout(self):
        stream = GeometryStream(Layout())
        assert stream.next_top() is None
        assert stream.chip_bbox is None


class TestPinnedTrace:
    """The stream's full observable behaviour, pinned per layout."""

    @pytest.mark.parametrize("name", sorted(TRACE_CASES))
    def test_stream_reproduces_pinned_trace(self, name):
        expected = json.loads(FIXTURE.read_text())[name]
        assert stream_trace(GeometryStream(TRACE_CASES[name]())) == expected


class TestLaziness:
    def test_cells_below_scanline_stay_folded(self):
        # Drain only the topmost event of a 16x16 array; most of the 511
        # internal symbols must remain unexpanded.
        layout = transistor_array(16)
        stream = GeometryStream(layout)
        top = stream.next_top()
        stream.fetch(top)
        partial = stream.stats.calls_expanded
        stream.drain()
        full = stream.stats.calls_expanded
        assert partial < full / 4

    def test_full_drain_counts_boxes(self):
        layout = transistor_array(4)
        stream = GeometryStream(layout)
        boxes = stream.drain()
        assert len(boxes) == 16 * 2
        assert stream.stats.boxes_out == 32


class TestLabels:
    def test_labels_surface_with_expansion(self):
        layout = Layout()
        cell = layout.define(1)
        cell.add_box("ND", Box(0, 0, 4, 4))
        cell.add_label(Label("A", 1, 1, "ND"))
        layout.top.add_call(1, Transform.translation(100, 100))
        stream = GeometryStream(layout)
        stream.drain()
        (label,) = stream.labels()
        assert (label.name, label.x, label.y) == ("A", 101, 101)

    def test_label_only_symbol_not_lost(self):
        layout = Layout()
        naming = layout.define(1)
        naming.add_label(Label("VDD", 5, 5, "NM"))
        layout.top.add_call(1, Transform.identity())
        layout.top.add_box("NM", Box(0, 0, 10, 10))
        stream = GeometryStream(layout)
        stream.drain()
        assert [lb.name for lb in stream.labels()] == ["VDD"]


# ----------------------------------------------------------------------
# random hierarchies: the stream is a lazy, sorted instantiate()
# ----------------------------------------------------------------------

LAYERS = ("ND", "NP", "NM", "NC")
coords = st.integers(-30, 30)
sizes = st.integers(1, 12)
placements = st.tuples(st.sampled_from(ORIENTATIONS), coords, coords)


@st.composite
def shapes(draw):
    """One box, polygon or wire in a cell's local coordinates."""
    layer = draw(st.sampled_from(LAYERS))
    kind = draw(st.sampled_from(("box", "box", "polygon", "wire")))
    x, y, w, h = draw(coords), draw(coords), draw(sizes), draw(sizes)
    if kind == "box":
        return ("box", layer, Box(x, y, x + w, y + h))
    if kind == "polygon":
        if draw(st.booleans()):  # an L, fractured exactly
            ring = ((x, y), (x + 2 * w, y), (x + 2 * w, y + h),
                    (x + w, y + h), (x + w, y + 2 * h), (x, y + 2 * h))
        else:  # a triangle, sliced at the resolution
            ring = ((x, y), (x + 3 * w, y), (x, y + 3 * h))
        return ("polygon", layer, Polygon(ring))
    width = 2 * draw(st.integers(1, 3))
    path = ((x, y), (x + w, y), (x + w, y + h))
    return ("wire", layer, width, path)


def _fill(symbol, cell_shapes, labels):
    for shape in cell_shapes:
        if shape[0] == "box":
            symbol.add_box(shape[1], shape[2])
        elif shape[0] == "polygon":
            symbol.add_polygon(shape[1], shape[2])
        else:
            symbol.add_wire(shape[1], shape[2], shape[3])
    for name, x, y in labels:
        symbol.add_label(Label(name, x, y))


cell_labels = st.lists(
    st.tuples(st.sampled_from("ABC"), coords, coords), max_size=2
)


@st.composite
def hierarchies(draw):
    """Leaves (some label-only), an optional middle level, and a top."""
    layout = Layout()
    n_leaves = draw(st.integers(1, 3))
    leaves = []
    for number in range(1, n_leaves + 1):
        symbol = layout.define(number)
        label_only = draw(st.booleans()) and number > 1
        cell_shapes = [] if label_only else draw(
            st.lists(shapes(), min_size=1, max_size=4)
        )
        _fill(symbol, cell_shapes, draw(cell_labels))
        leaves.append(number)
    callees = list(leaves)
    if draw(st.booleans()):  # a third level
        middle = layout.define(10)
        _fill(middle, draw(st.lists(shapes(), max_size=2)), draw(cell_labels))
        for leaf, (orient, dx, dy) in draw(
            st.lists(st.tuples(st.sampled_from(leaves), placements),
                     min_size=1, max_size=4)
        ):
            middle.add_call(leaf, Transform(*orient, dx=dx, dy=dy))
        callees.append(10)
    _fill(layout.top, draw(st.lists(shapes(), max_size=2)), draw(cell_labels))
    for callee, (orient, dx, dy) in draw(
        st.lists(st.tuples(st.sampled_from(callees), placements),
                 min_size=1, max_size=6)
    ):
        layout.top.add_call(callee, Transform(*orient, dx=dx, dy=dy))
    return layout


class TestRandomHierarchies:
    @settings(max_examples=60, deadline=None)
    @given(hierarchies())
    def test_stream_is_sorted_lazy_instantiate(self, layout):
        built = []

        class CountingRun(stream_mod._Run):
            __slots__ = ()

            def __init__(self, orientation, boxes):
                built.append(orientation)
                super().__init__(orientation, boxes)

        with mock.patch.object(stream_mod, "_Run", CountingRun):
            stream = GeometryStream(layout)
            records = stream.drain()
        boxes, labels = instantiate(layout)
        assert Counter(records) == Counter(
            (layer, b.xmin, b.ymin, b.xmax, b.ymax) for layer, b in boxes
        )
        tops = [rec[4] for rec in records]
        assert tops == sorted(tops, reverse=True)
        assert Counter(stream.labels()) == Counter(labels)
        # one run per (symbol, orientation), never rebuilt
        assert len(built) == len(stream._runs)
        assert stream.stats.boxes_out == len(records)
