"""HEXT front-end: subdivision and window canonicalization."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cif import Layout
from repro.frontend import PlacedLabel
from repro.geometry import Box, Transform
from repro.hext import Content, WindowPlanner, content_key


def _two_cell_layout(offset=(20, 0)) -> Layout:
    layout = Layout()
    cell = layout.define(1)
    cell.add_box("ND", Box(0, 0, 10, 10))
    layout.top.add_call(1, Transform.identity())
    layout.top.add_call(1, Transform.translation(*offset))
    return layout


class TestTopContent:
    def test_region_covers_chip(self):
        planner = WindowPlanner(_two_cell_layout())
        top = planner.top_content()
        assert top.region == Box(0, 0, 30, 10)
        assert len(top.instances) == 2

    def test_empty_layout(self):
        planner = WindowPlanner(Layout())
        top = planner.top_content()
        assert top.is_primitive()


class TestSubdivide:
    def test_disjoint_instances_become_windows(self):
        planner = WindowPlanner(_two_cell_layout())
        windows = planner.subdivide(planner.top_content())
        # One window per instance bbox; the empty gap cell is dropped.
        assert sorted((w.region.xmin, w.region.xmax) for w in windows) == [
            (0, 10),
            (20, 30),
        ]
        assert all(len(w.instances) == 1 for w in windows)

    def test_overlapping_instances_expanded(self):
        layout = _two_cell_layout(offset=(5, 0))  # bboxes overlap
        planner = WindowPlanner(layout)
        windows = planner.subdivide(planner.top_content())
        # Overlap forces full expansion to geometry; artwork is preserved
        # (overlapping boxes stay overlapping -- the extractor merges them).
        assert all(not w.instances for w in windows)
        from repro.geometry import regions_equal

        parts = [b for w in windows for _, b in w.geometry]
        assert regions_equal(parts, [Box(0, 0, 15, 10)])

    def test_geometry_clipped_into_windows(self):
        layout = Layout()
        cell = layout.define(1)
        cell.add_box("ND", Box(0, 0, 10, 10))
        wrap = layout.define(2)
        wrap.add_call(1, Transform.identity())
        layout.top.add_call(2, Transform.identity())
        layout.top.add_call(2, Transform.translation(10, 0))
        # A metal strap spanning both windows at top level.
        layout.top.add_box("NM", Box(2, 4, 18, 6))
        planner = WindowPlanner(layout)
        windows = planner.subdivide(planner.top_content())
        metal_parts = [
            b for w in windows for layer, b in w.geometry if layer == "NM"
        ]
        assert len(metal_parts) == 2
        assert sum(b.area for b in metal_parts) == 16 * 2

    def test_labels_assigned_once(self):
        from repro.cif import Label

        layout = _two_cell_layout()
        layout.top.add_label(Label("A", 5, 5, "ND"))
        planner = WindowPlanner(layout)
        windows = planner.subdivide(planner.top_content())
        carried = [lb.name for w in windows for lb in w.labels]
        assert carried == ["A"]


class TestContentKey:
    def test_translation_invariant(self):
        a = Content(Box(0, 0, 10, 10), geometry=[("ND", Box(2, 2, 8, 8))])
        b = Content(Box(100, 50, 110, 60), geometry=[("ND", Box(102, 52, 108, 58))])
        assert content_key(a) == content_key(b)

    def test_size_matters(self):
        a = Content(Box(0, 0, 10, 10), geometry=[("ND", Box(2, 2, 8, 8))])
        b = Content(Box(0, 0, 12, 10), geometry=[("ND", Box(2, 2, 8, 8))])
        assert content_key(a) != content_key(b)

    def test_layer_matters(self):
        a = Content(Box(0, 0, 10, 10), geometry=[("ND", Box(2, 2, 8, 8))])
        b = Content(Box(0, 0, 10, 10), geometry=[("NP", Box(2, 2, 8, 8))])
        assert content_key(a) != content_key(b)

    def test_instance_orientation_matters(self):
        a = Content(Box(0, 0, 10, 10), instances=[(1, Transform.identity())])
        b = Content(
            Box(0, 0, 10, 10),
            instances=[(1, Transform.mirror_x())],
        )
        assert content_key(a) != content_key(b)

    def test_geometry_order_irrelevant(self):
        g1 = ("ND", Box(0, 0, 2, 2))
        g2 = ("NP", Box(4, 4, 6, 6))
        a = Content(Box(0, 0, 10, 10), geometry=[g1, g2])
        b = Content(Box(0, 0, 10, 10), geometry=[g2, g1])
        assert content_key(a) == content_key(b)


def _naive_slice(region, placed, geometry, labels):
    """The slicing step written all-pairs: every box against every window."""
    windows = [
        Content(bbox, instances=[(number, transform)])
        for bbox, number, transform in placed
    ]
    xs = sorted({region.xmin, region.xmax} | {b.xmin for b, _, _ in placed}
                | {b.xmax for b, _, _ in placed})
    ys = sorted({region.ymin, region.ymax} | {b.ymin for b, _, _ in placed}
                | {b.ymax for b, _, _ in placed})
    for x1, x2 in zip(xs, xs[1:]):
        for y1, y2 in zip(ys, ys[1:]):
            cell = Box(x1, y1, x2, y2)
            if not any(cell.overlaps(b) for b, _, _ in placed):
                windows.append(Content(cell))
    for layer, box in geometry:
        for window in windows:
            clipped = box.clipped(window.region)
            if clipped is not None:
                window.geometry.append((layer, clipped))
    for label in labels:
        for window in windows:
            if window.region.contains_point(label.x, label.y):
                window.labels.append(label)
                break
    return [w for w in windows if not w.is_empty()]


def _box(x, y, w, h):
    return Box(x, y, x + w, y + h)


#: Small integer boxes: on a 12-unit field most of them straddle a cut,
#: share an edge with a window, or stick out of the region.
small_boxes = st.builds(
    _box, st.integers(-3, 12), st.integers(-3, 12),
    st.integers(1, 6), st.integers(1, 6),
)


def _disjoint(boxes):
    kept = []
    for box in boxes:
        if not any(box.overlaps(other) for other in kept):
            kept.append(box)
    return kept


class TestSlice:
    """``_slice`` against the all-pairs clip, window for window."""

    @settings(max_examples=200, deadline=None)
    @given(
        region=st.builds(
            _box, st.integers(-2, 2), st.integers(-2, 2),
            st.integers(4, 14), st.integers(4, 14),
        ),
        instance_boxes=st.lists(small_boxes, max_size=6).map(_disjoint),
        geometry=st.lists(
            st.tuples(st.sampled_from(["ND", "NP", "NM"]), small_boxes),
            max_size=12,
        ),
        points=st.lists(
            st.tuples(st.integers(-4, 16), st.integers(-4, 16)), max_size=6
        ),
    )
    # Geometry outside the region, touching a window only along an edge
    # or at a corner, and labels on a cut line and on a cut corner.
    @example(
        region=Box(0, 0, 10, 10),
        instance_boxes=[Box(2, 2, 5, 5)],
        geometry=[
            ("ND", Box(5, 2, 7, 5)),
            ("NP", Box(0, 5, 2, 8)),
            ("NM", Box(11, 11, 13, 13)),
            ("NM", Box(-4, 3, 0, 4)),
            ("ND", Box(1, 1, 9, 9)),
        ],
        points=[(5, 3), (2, 2), (5, 5), (10, 10), (11, 4), (0, 0)],
    )
    def test_matches_all_pairs_clip(
        self, region, instance_boxes, geometry, points
    ):
        placed = [
            (box, index + 1, Transform.translation(box.xmin, box.ymin))
            for index, box in enumerate(instance_boxes)
        ]
        labels = [
            PlacedLabel(f"L{index}", x, y, "NM")
            for index, (x, y) in enumerate(points)
        ]
        planner = WindowPlanner(Layout())
        fast = planner._slice(region, placed, geometry, labels)
        assert fast == _naive_slice(region, placed, geometry, labels)
