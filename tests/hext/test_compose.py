"""Compose unit behaviour on hand-built fragments."""

from repro.geometry import Box
from repro.hext import DeviceRec, Fragment, IfaceRec, Placed, compose
from repro.tech import NMOS

TECH = NMOS()


def _metal_window(w=10, h=10) -> Fragment:
    """One metal wire crossing the window left to right at y 4..6."""
    return Fragment(
        region=(Box(0, 0, w, h),),
        net_count=1,
        net_locs={0: (6, 0)},
        interface=(
            IfaceRec("L", "NM", 0, 4, 6, 0),
            IfaceRec("R", "NM", w, 4, 6, 0),
        ),
    )


class TestNets:
    def test_matching_spans_union(self):
        a = Placed(_metal_window(), 0, 0)
        b = Placed(_metal_window(), 10, 0)
        merged = compose(a, b, TECH)
        assert merged.net_count == 2
        assert merged.equivalences == ((0, 1),)

    def test_non_touching_windows_do_not_union(self):
        a = Placed(_metal_window(), 0, 0)
        b = Placed(_metal_window(), 30, 0)  # a gap between them
        merged = compose(a, b, TECH)
        assert merged.equivalences == ()

    def test_offset_spans_do_not_union(self):
        low = _metal_window()
        high = Fragment(
            region=(Box(0, 0, 10, 10),),
            net_count=1,
            interface=(
                IfaceRec("L", "NM", 0, 7, 9, 0),
                IfaceRec("R", "NM", 10, 7, 9, 0),
            ),
        )
        merged = compose(Placed(low, 0, 0), Placed(high, 10, 0), TECH)
        assert merged.equivalences == ()

    def test_different_layers_do_not_union(self):
        metal = _metal_window()
        poly = Fragment(
            region=(Box(0, 0, 10, 10),),
            net_count=1,
            interface=(
                IfaceRec("L", "NP", 0, 4, 6, 0),
                IfaceRec("R", "NP", 10, 4, 6, 0),
            ),
        )
        merged = compose(Placed(metal, 0, 0), Placed(poly, 10, 0), TECH)
        assert merged.equivalences == ()


class TestInterface:
    def test_shared_boundary_consumed(self):
        merged = compose(
            Placed(_metal_window(), 0, 0), Placed(_metal_window(), 10, 0), TECH
        )
        faces = sorted((r.face, r.fixed) for r in merged.interface)
        assert faces == [("L", 0), ("R", 20)]

    def test_partial_overlap_keeps_remainder(self):
        tall = Fragment(
            region=(Box(0, 0, 10, 30),),
            net_count=1,
            interface=(IfaceRec("R", "NM", 10, 0, 30, 0),),
        )
        short = Fragment(
            region=(Box(0, 0, 10, 10),),
            net_count=1,
            interface=(IfaceRec("L", "NM", 0, 0, 10, 0),),
        )
        merged = compose(Placed(tall, 0, 0), Placed(short, 10, 0), TECH)
        survivors = [r for r in merged.interface if r.face == "R" and r.fixed == 10]
        assert [(r.lo, r.hi) for r in survivors] == [(10, 30)]


class TestPartials:
    def _half_device(self) -> Fragment:
        return Fragment(
            region=(Box(0, 0, 10, 10),),
            net_count=1,  # the gate poly net
            partials=(
                DeviceRec(
                    area=50, terms={}, gates={0}, impl=False, loc=(6, 0)
                ),
            ),
            interface=(
                IfaceRec("R", "__channel__", 10, 4, 6, 0),
                IfaceRec("R", "NP", 10, 4, 6, 0),
                IfaceRec("L", "ND", 0, 4, 6, 0),
            ),
        )

    def _mirror_half(self) -> Fragment:
        return Fragment(
            region=(Box(0, 0, 10, 10),),
            net_count=1,
            partials=(
                DeviceRec(
                    area=50, terms={}, gates={0}, impl=True, loc=(6, 0)
                ),
            ),
            interface=(
                IfaceRec("L", "__channel__", 0, 4, 6, 0),
                IfaceRec("L", "NP", 0, 4, 6, 0),
                IfaceRec("R", "ND", 10, 4, 6, 0),
            ),
        )

    def test_channel_halves_merge_and_complete(self):
        merged = compose(
            Placed(self._half_device(), 0, 0),
            Placed(self._mirror_half(), 10, 0),
            TECH,
        )
        assert len(merged.partials) == 0
        assert len(merged.devices) == 1
        device = merged.devices[0]
        assert device.area == 100
        assert device.impl  # implant flag ORs across the halves
        assert device.gates == {0, 1}

    def test_channel_facing_diffusion_gains_terminal(self):
        channel_side = self._half_device()
        diff_side = Fragment(
            region=(Box(0, 0, 10, 10),),
            net_count=1,
            interface=(IfaceRec("L", "ND", 0, 4, 6, 0),),
        )
        merged = compose(
            Placed(channel_side, 0, 0), Placed(diff_side, 10, 0), TECH
        )
        # Channel no longer on the boundary: completed with the terminal.
        (device,) = merged.devices
        assert device.terms == {1: 2}

    def test_diffusion_facing_channel_gains_terminal(self):
        diff_side = Fragment(
            region=(Box(0, 0, 10, 10),),
            net_count=1,
            interface=(IfaceRec("R", "ND", 10, 4, 6, 0),),
        )
        channel_side = Fragment(
            region=(Box(0, 0, 10, 10),),
            net_count=1,  # the gate poly net
            partials=(
                DeviceRec(
                    area=50, terms={}, gates={0}, impl=False, loc=(6, 0)
                ),
            ),
            interface=(IfaceRec("L", "__channel__", 0, 4, 6, 0),),
        )
        merged = compose(
            Placed(diff_side, 0, 0), Placed(channel_side, 10, 0), TECH
        )
        (device,) = merged.devices
        assert device.terms == {0: 2}
        assert device.gates == {1}
