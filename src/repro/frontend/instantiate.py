"""Eager, full instantiation of a CIF layout.

Expands every symbol call, applies transforms, and fractures polygons and
wires so the result is a flat list of ``(layer, Box)`` plus placed labels.
ACE itself avoids doing this (see :mod:`repro.frontend.stream`); the flat
list is what the raster and region-merge baselines, the workload
statistics, and the tests consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cif.layout import TOP_SYMBOL, Layout, Symbol
from ..geometry import Box, Transform


@dataclass(frozen=True, slots=True)
class PlacedLabel:
    """A net-name label instantiated into chip coordinates."""

    name: str
    x: int
    y: int
    layer: str | None = None


def instantiate(
    layout: Layout, resolution: int = 50
) -> tuple[list[tuple[str, Box]], list[PlacedLabel]]:
    """Fully instantiate ``layout``.

    Returns ``(boxes, labels)`` where ``boxes`` is every primitive box in
    chip coordinates (polygons and wires fractured at ``resolution``).
    """
    boxes: list[tuple[str, Box]] = []
    labels: list[PlacedLabel] = []
    # Fracture each symbol once; instances only transform the result.
    fractured: dict[int, list[tuple[str, Box]]] = {}

    def local_boxes(number: int, symbol: Symbol) -> list[tuple[str, Box]]:
        cached = fractured.get(number)
        if cached is None:
            cached = symbol.fractured_boxes(resolution)
            fractured[number] = cached
        return cached

    def emit(number: int, transform: Transform) -> None:
        symbol = layout.symbol(number)
        if transform.is_identity:
            boxes.extend(local_boxes(number, symbol))
            labels.extend(
                PlacedLabel(lb.name, lb.x, lb.y, lb.layer) for lb in symbol.labels
            )
        else:
            boxes.extend(
                (layer, transform.apply_box(box))
                for layer, box in local_boxes(number, symbol)
            )
            for lb in symbol.labels:
                x, y = transform.apply_point(lb.x, lb.y)
                labels.append(PlacedLabel(lb.name, x, y, lb.layer))
        for call in symbol.calls:
            emit(call.symbol, call.transform.then(transform))

    emit(TOP_SYMBOL, Transform.identity())
    return boxes, labels


def instantiate_with_origins(
    layout: Layout, resolution: int = 50
) -> list[tuple[str, Box, int, tuple[int, ...]]]:
    """Fully instantiate ``layout``, keeping each box's source symbol.

    Returns ``(layer, box, symbol, path)`` per primitive box, where
    ``symbol`` is the number of the symbol whose body contains the
    artwork (``TOP_SYMBOL`` for top-level geometry) and ``path`` is the
    call chain of symbol numbers from the top down to ``symbol``.  The
    diagnostics layer uses this to attribute a design-rule violation to
    the symbol call that produced the offending geometry.
    """
    out: list[tuple[str, Box, int, tuple[int, ...]]] = []
    fractured: dict[int, list[tuple[str, Box]]] = {}

    def local_boxes(number: int, symbol: Symbol) -> list[tuple[str, Box]]:
        cached = fractured.get(number)
        if cached is None:
            cached = symbol.fractured_boxes(resolution)
            fractured[number] = cached
        return cached

    def emit(
        number: int, transform: Transform, path: tuple[int, ...]
    ) -> None:
        symbol = layout.symbol(number)
        if transform.is_identity:
            out.extend(
                (layer, box, number, path)
                for layer, box in local_boxes(number, symbol)
            )
        else:
            out.extend(
                (layer, transform.apply_box(box), number, path)
                for layer, box in local_boxes(number, symbol)
            )
        for call in symbol.calls:
            emit(
                call.symbol,
                call.transform.then(transform),
                path + (call.symbol,),
            )

    emit(TOP_SYMBOL, Transform.identity(), (TOP_SYMBOL,))
    return out


def symbol_bboxes(
    layout: Layout,
    resolution: int = 50,
    fractured: "dict[int, list[tuple[str, Box]]] | None" = None,
) -> dict[int, Box | None]:
    """Bounding box of each symbol's full expansion, in local coordinates.

    ``None`` marks empty symbols.  Computed bottom-up over the (acyclic)
    call graph; this is the piece of global knowledge the lazy front-end
    needs in order to defer expanding calls that lie below the scanline.
    Every symbol is fractured on the way; pass a ``fractured`` dict to
    receive each symbol's fractured boxes, keyed by symbol number, so the
    caller need not fracture again.
    """
    result: dict[int, Box | None] = {}
    if fractured is None:
        fractured = {}

    def bbox_of(number: int) -> Box | None:
        if number in result:
            return result[number]
        symbol = layout.symbol(number)
        boxes = fractured[number] = symbol.fractured_boxes(resolution)
        corners: list[Box] = [box for _, box in boxes]
        for call in symbol.calls:
            inner = bbox_of(call.symbol)
            if inner is not None:
                corners.append(call.transform.apply_box(inner))
        box: Box | None
        if corners:
            box = Box(
                min(b.xmin for b in corners),
                min(b.ymin for b in corners),
                max(b.xmax for b in corners),
                max(b.ymax for b in corners),
            )
        else:
            box = None
        result[number] = box
        return box

    bbox_of(TOP_SYMBOL)
    for number in layout.symbols:
        bbox_of(number)
    return result
