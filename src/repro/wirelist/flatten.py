"""Flatten hierarchical wirelists.

Most CAD tools -- simulators in particular -- require a flat wirelist
(HEXT paper, section 4), produced "by recursively instantiating all calls
to subparts of the top level cell"; the cost is linear in the number of
devices.  The flat form here is a :class:`FlatCircuit`: devices over
global net ids, with user names preserved, which is also the input to the
netlist comparator.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from ..core.unionfind import UnionFind
from .model import DefPart, Wirelist


@dataclass(frozen=True, slots=True)
class FlatDevice:
    """One transistor over global net ids."""

    kind: str
    gate: int | None
    source: int | None
    drain: int | None


@dataclass
class FlatCircuit:
    """A flattened netlist: devices plus net name anchors."""

    devices: list[FlatDevice] = field(default_factory=list)
    net_names: dict[int, list[str]] = field(default_factory=dict)
    net_count: int = 0

    def named(self, name: str) -> int:
        for net, names in self.net_names.items():
            if name in names:
                return net
        raise KeyError(f"no net named {name!r}")


def flatten(wirelist: Wirelist) -> FlatCircuit:
    """Expand the top part recursively into a flat circuit.

    Net equivalences (``(Net a b)`` declarations and subpart net maps)
    are resolved through a union-find, so an alias chain across any
    number of composition levels collapses to a single net.  The
    expansion keeps its own stack, so a chain of parts may be as deep as
    memory allows; a part that instantiates itself, directly or through
    other parts, raises :class:`ValueError`.
    """
    nets = UnionFind()
    names: dict[int, list[str]] = {}
    raw_devices: list[tuple[str, int | None, int | None, int | None]] = []
    parts: dict[str, DefPart] = {}
    for defpart in wirelist.defparts:
        parts.setdefault(defpart.name, defpart)

    def instantiate(
        part: DefPart, bindings: dict[str, int]
    ) -> Iterator[tuple[DefPart, dict[str, int]]]:
        """Expand ``part``'s own level, then yield each subpart to expand."""
        local = dict(bindings)

        def net_id(name: str) -> int:
            ident = local.get(name)
            if ident is None:
                ident = nets.make()
                local[name] = ident
            return ident

        # A trailing name in a Net declaration is an *identifier* only if
        # it is referenced elsewhere in the part; otherwise it is a user
        # annotation ("(Net N2 VDD ...)" of Figure 3-4).  Two distinct
        # rails may legitimately carry the same user name.
        occurrences: dict[str, int] = {}

        def count(name: str | None) -> None:
            if name is not None:
                occurrences[name] = occurrences.get(name, 0) + 1

        for decl in part.nets:
            count(decl.names[0])
        for device in part.devices:
            count(device.gate)
            count(device.source)
            count(device.drain)
        for sub in part.subparts:
            for parent_name in sub.net_map.values():
                count(parent_name)
        for name in part.exports:
            count(name)
        for name in part.locals_:
            count(name)

        for decl in part.nets:
            canonical = net_id(decl.names[0])
            first = decl.names[0]
            if not (first.startswith("N") and first[1:].isdigit()):
                bucket = names.setdefault(canonical, [])
                if first not in bucket:
                    bucket.append(first)
            for name in decl.names[1:]:
                if occurrences.get(name, 0) >= 2 or name in local:
                    nets.union(canonical, net_id(name))
                if not (name.startswith("N") and name[1:].isdigit()):
                    bucket = names.setdefault(canonical, [])
                    if name not in bucket:
                        bucket.append(name)

        for device in part.devices:
            raw_devices.append(
                (
                    device.kind,
                    net_id(device.gate) if device.gate else None,
                    net_id(device.source) if device.source else None,
                    net_id(device.drain) if device.drain else None,
                )
            )

        for sub in part.subparts:
            child = parts.get(sub.part) or wirelist.defpart(sub.part)
            yield child, {
                child_net: net_id(parent_net)
                for child_net, parent_net in sub.net_map.items()
            }

    # Depth-first over the instance tree: a child is expanded completely
    # before its parent's next subpart binds any nets, which is the order
    # (of nets.make() calls and of devices) a recursive walk gives.
    top = wirelist.top_part
    stack = [(top.name, instantiate(top, {}))]
    on_path = {top.name}
    while stack:
        name, expansion = stack[-1]
        step = next(expansion, None)
        if step is None:
            stack.pop()
            on_path.discard(name)
            continue
        child, bindings = step
        if child.name in on_path:
            raise ValueError(f"part {child.name} instantiates itself")
        stack.append((child.name, instantiate(child, bindings)))
        on_path.add(child.name)

    # Renumber roots densely.
    root_index: dict[int, int] = {}

    def dense(ident: int | None) -> int | None:
        if ident is None:
            return None
        root = nets.find(ident)
        index = root_index.get(root)
        if index is None:
            index = len(root_index)
            root_index[root] = index
        return index

    flat = FlatCircuit()
    for kind, gate, source, drain in raw_devices:
        flat.devices.append(
            FlatDevice(kind, dense(gate), dense(source), dense(drain))
        )
    for ident, name_list in names.items():
        index = dense(ident)
        assert index is not None
        bucket = flat.net_names.setdefault(index, [])
        for name in name_list:
            if name not in bucket:
                bucket.append(name)
    flat.net_count = len(root_index)
    return flat


def circuit_to_flat(circuit) -> FlatCircuit:
    """Adapt an extracted :class:`~repro.core.netlist.Circuit` directly.

    Convenience for comparing extractor outputs without a round trip
    through wirelist text.
    """
    flat = FlatCircuit()
    index_map: dict[int, int] = {}

    def dense(index: int | None) -> int | None:
        if index is None:
            return None
        mapped = index_map.get(index)
        if mapped is None:
            mapped = len(index_map)
            index_map[index] = mapped
        return mapped

    for device in circuit.devices:
        flat.devices.append(
            FlatDevice(
                device.kind,
                dense(device.gate),
                dense(device.source),
                dense(device.drain),
            )
        )
    for net in circuit.nets:
        if net.names:
            flat.net_names[dense(net.index)] = list(net.names)
    flat.net_count = max(len(index_map), len(circuit.nets))
    return flat
