"""Flattening hierarchical wirelists."""

import pytest

from repro.wirelist import (
    DefPart,
    DeviceInstance,
    NetDecl,
    SubpartInstance,
    Wirelist,
    flatten,
)


def _inverter_part(name="inv") -> DefPart:
    return DefPart(
        name=name,
        exports=["IN", "OUT", "VDD", "GND"],
        devices=[
            DeviceInstance("nDep", "D0", gate="OUT", source="VDD", drain="OUT"),
            DeviceInstance("nEnh", "D1", gate="IN", source="OUT", drain="GND"),
        ],
    )


class TestFlat:
    def test_single_part(self):
        flat = flatten(Wirelist("x", [_inverter_part()], top="inv"))
        assert len(flat.devices) == 2
        nets = {d.gate for d in flat.devices} | {
            d.source for d in flat.devices
        } | {d.drain for d in flat.devices}
        assert len(nets) == 4

    def test_names_preserved(self):
        part = _inverter_part()
        part.nets.append(NetDecl(names=["VDD", "PWR"]))
        flat = flatten(Wirelist("x", [part], top="inv"))
        assert flat.named("PWR") == flat.named("VDD")


class TestHierarchy:
    def _two_level(self) -> Wirelist:
        inv = _inverter_part()
        pair = DefPart(
            name="pair",
            exports=["A", "B", "VDD", "GND"],
            subparts=[
                SubpartInstance(
                    "inv",
                    "P1",
                    net_map={"IN": "A", "OUT": "MID", "VDD": "VDD", "GND": "GND"},
                ),
                SubpartInstance(
                    "inv",
                    "P2",
                    net_map={"IN": "MID", "OUT": "B", "VDD": "VDD", "GND": "GND"},
                ),
            ],
        )
        return Wirelist("x", [inv, pair], top="pair")

    def test_two_instances_expand(self):
        flat = flatten(self._two_level())
        assert len(flat.devices) == 4

    def test_chain_connectivity(self):
        flat = flatten(self._two_level())
        # P1's output net must equal P2's input gate net.
        enh = [d for d in flat.devices if d.kind == "nEnh"]
        assert len(enh) == 2
        first, second = enh
        assert second.gate in (first.source, first.drain) or first.gate in (
            second.source,
            second.drain,
        )

    def test_shared_rails(self):
        flat = flatten(self._two_level())
        enh_nets = [
            {d.source, d.drain} for d in flat.devices if d.kind == "nEnh"
        ]
        shared = enh_nets[0] & enh_nets[1]
        assert shared  # the common GND

    def test_net_equivalence_collapses(self):
        inv = _inverter_part()
        top = DefPart(
            name="top",
            subparts=[
                SubpartInstance("inv", "P1", net_map={"OUT": "X"}),
            ],
            nets=[NetDecl(names=["X", "Y"]), NetDecl(names=["Y", "Z"])],
        )
        flat = flatten(Wirelist("x", [inv, top], top="top"))
        # X, Y, Z alias through the chain; count distinct nets used.
        used = {
            n
            for d in flat.devices
            for n in (d.gate, d.source, d.drain)
            if n is not None
        }
        assert len(used) == 4  # IN, OUT(=X=Y=Z), VDD, GND


class TestNesting:
    def _chain(self, depth: int) -> Wirelist:
        """``depth`` parts, each instantiating the next; the last is an inverter."""
        parts = [_inverter_part("L0")]
        for level in range(1, depth):
            parts.append(
                DefPart(
                    name=f"L{level}",
                    exports=["IN", "OUT", "VDD", "GND"],
                    subparts=[
                        SubpartInstance(
                            f"L{level - 1}",
                            "P1",
                            net_map={n: n for n in ("IN", "OUT", "VDD", "GND")},
                        )
                    ],
                )
            )
        return Wirelist("x", parts, top=f"L{depth - 1}")

    def test_chain_deeper_than_the_recursion_limit(self):
        import sys

        flat = flatten(self._chain(sys.getrecursionlimit() + 100))
        assert len(flat.devices) == 2
        assert flat.net_count == 4

    def test_part_instantiating_itself_raises(self):
        loop = DefPart(name="loop", subparts=[SubpartInstance("loop", "P1")])
        with pytest.raises(ValueError, match="loop instantiates itself"):
            flatten(Wirelist("x", [loop], top="loop"))

    def test_cycle_through_another_part_raises(self):
        a = DefPart(name="A", subparts=[SubpartInstance("B", "P1")])
        b = DefPart(name="B", subparts=[SubpartInstance("A", "P1")])
        with pytest.raises(ValueError, match="A instantiates itself"):
            flatten(Wirelist("x", [a, b], top="A"))

    def test_repeated_part_is_not_a_cycle(self):
        inv = _inverter_part()
        pair = DefPart(
            name="pair",
            subparts=[
                SubpartInstance("inv", "P1"),
                SubpartInstance("inv", "P2"),
            ],
        )
        assert len(flatten(Wirelist("x", [inv, pair], top="pair")).devices) == 4
