"""Transforms: the manhattan affine group and CIF call semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Box, Transform

translations = st.integers(min_value=-1000, max_value=1000)


def transforms():
    base = st.sampled_from(
        [
            Transform.identity(),
            Transform.mirror_x(),
            Transform.mirror_y(),
            Transform.rotation(0, 1),
            Transform.rotation(-1, 0),
            Transform.rotation(0, -1),
        ]
    )
    return st.builds(
        lambda t, dx, dy: t.then(Transform.translation(dx, dy)),
        base,
        translations,
        translations,
    )


class TestConstruction:
    def test_identity(self):
        assert Transform.identity().apply_point(3, 4) == (3, 4)

    def test_translation(self):
        assert Transform.translation(10, -5).apply_point(1, 1) == (11, -4)

    def test_mirror_x_negates_x(self):
        assert Transform.mirror_x().apply_point(3, 4) == (-3, 4)

    def test_mirror_y_negates_y(self):
        assert Transform.mirror_y().apply_point(3, 4) == (3, -4)

    def test_rotation_90(self):
        # R 0 1: +x axis maps to +y.
        assert Transform.rotation(0, 1).apply_point(1, 0) == (0, 1)
        assert Transform.rotation(0, 1).apply_point(0, 1) == (-1, 0)

    def test_rotation_180(self):
        assert Transform.rotation(-1, 0).apply_point(2, 3) == (-2, -3)

    def test_off_axis_rotation_rejected(self):
        with pytest.raises(ValueError):
            Transform.rotation(1, 1)

    @pytest.mark.parametrize("dx, dy", [(0, 0), (5, 0), (0, -3), (7, 9)])
    @pytest.mark.parametrize(
        "orientation",
        [
            (1, 0, 0, 1),
            (0, 1, -1, 0),
            (-1, 0, 0, -1),
            (0, -1, 1, 0),
            (-1, 0, 0, 1),
            (1, 0, 0, -1),
            (0, 1, 1, 0),
            (0, -1, -1, 0),
        ],
    )
    def test_is_identity_matches_equality(self, orientation, dx, dy):
        t = Transform(*orientation, dx=dx, dy=dy)
        assert t.is_identity == (t == Transform())
        assert t.is_identity == (orientation == (1, 0, 0, 1) and dx == dy == 0)

    def test_bad_orientation_matrix_rejected(self):
        with pytest.raises(ValueError):
            Transform(a=2, b=0, c=0, d=1)


class TestGroup:
    def test_then_order(self):
        # Translate then rotate differs from rotate then translate.
        t = Transform.translation(10, 0)
        r = Transform.rotation(0, 1)
        assert t.then(r).apply_point(0, 0) == (0, 10)
        assert r.then(t).apply_point(0, 0) == (10, 0)

    @given(transforms(), st.integers(-500, 500), st.integers(-500, 500))
    def test_inverse_roundtrip(self, t, x, y):
        ix, iy = t.inverse().apply_point(*t.apply_point(x, y))
        assert (ix, iy) == (x, y)

    @given(transforms(), transforms(), st.integers(-50, 50), st.integers(-50, 50))
    def test_composition_associative_on_points(self, t1, t2, x, y):
        composed = t1.then(t2)
        stepwise = t2.apply_point(*t1.apply_point(x, y))
        assert composed.apply_point(x, y) == stepwise

    def test_mirror_is_involution(self):
        m = Transform.mirror_x()
        assert m.then(m).is_identity


class TestBoxes:
    @given(transforms())
    def test_apply_box_preserves_area(self, t):
        box = Box(1, 2, 7, 11)
        assert t.apply_box(box).area == box.area

    def test_rotated_box_swaps_extents(self):
        box = Box(0, 0, 4, 2)
        rotated = Transform.rotation(0, 1).apply_box(box)
        assert {rotated.width, rotated.height} == {4, 2}
        assert rotated.width == 2

    def test_orientation_key(self):
        assert Transform.identity().orientation == (1, 0, 0, 1)
        assert Transform.mirror_x().orientation == (-1, 0, 0, 1)
