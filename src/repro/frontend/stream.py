"""ACE's lazy front-end: a top-to-bottom sorted geometry stream.

The paper (section 4): *"the front-end does not expand everything to boxes
before sorting, but instead makes use of the hierarchy present in the CIF
specification of the chip, and recursively expands only those cells that
intersect the current scanline."*

The stream keeps a max-heap keyed on top-edge y.  Entries are either
*runs* -- the boxes of one expanded placement -- or *unexpanded symbol
calls* keyed by their transformed bounding-box top.  A call is expanded
one level only when the scanline reaches its bounding box, so cells
entirely below the scanline stay folded; the complete geometry of the
chip is never instantiated at once.

Expansion does not push one entry per box.  Each symbol is fractured
once, and for each (symbol, orientation) the stream builds one oriented,
untranslated run sorted by (top descending, fractured index); there are
only eight orientations.  Expanding a placement pushes a single heap
entry for its run, carrying the placement's translation, which
:meth:`GeometryStream.fetch` adds lazily as it emits the run's boxes at
the scanline.  The entry is keyed ``(-top, seq)`` with the block
``seq = base + 1 + index`` reserved for the run's boxes and the
placement's calls after them, so the heap yields exactly the order a
heap of one entry per box would.

``fetch`` hands the host plain coordinate records
``(layer, xmin, ymin, xmax, ymax)``; no :class:`Box` is built per box.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any

from ..cif.layout import TOP_SYMBOL, Layout
from ..geometry import Box, Transform
from .instantiate import PlacedLabel, symbol_bboxes

#: One box in chip coordinates, as handed to the scanline host.
Record = tuple[str, int, int, int, int]

_RUN = 0
_CALL = 1


@dataclass
class StreamStats:
    """Counters the complexity benchmarks read."""

    boxes_out: int = 0
    calls_expanded: int = 0
    peak_pending: int = 0


class _Run:
    """One symbol's boxes under one orientation, untranslated.

    ``records`` are sorted by (top descending, fractured index);
    ``tops[i]`` is ``records[i]``'s top edge, ``offsets[i]`` its seq
    offset ``1 + fractured index`` within an expansion's block, and
    ``ends[i]`` (for the first box of each equal-top group) the index
    just past the group.
    """

    __slots__ = ("records", "tops", "offsets", "ends")

    def __init__(
        self, orientation: tuple[int, int, int, int], boxes: list[tuple[str, Box]]
    ) -> None:
        a, b, c, d = orientation
        keyed = []
        for index, (layer, box) in enumerate(boxes):
            x1 = box.xmin * a + box.ymin * c
            y1 = box.xmin * b + box.ymin * d
            x2 = box.xmax * a + box.ymax * c
            y2 = box.xmax * b + box.ymax * d
            if x1 > x2:
                x1, x2 = x2, x1
            if y1 > y2:
                y1, y2 = y2, y1
            if x1 >= x2 or y1 >= y2:
                raise ValueError(f"degenerate box ({x1}, {y1}, {x2}, {y2})")
            keyed.append((-y2, index, (layer, x1, y1, x2, y2)))
        keyed.sort()
        self.records: list[Record] = [rec for _, _, rec in keyed]
        self.tops = [-neg_top for neg_top, _, _ in keyed]
        self.offsets = [1 + index for _, index, _ in keyed]
        self.ends: dict[int, int] = {}
        tops = self.tops
        start = 0
        for i in range(1, len(tops) + 1):
            if i == len(tops) or tops[i] != tops[start]:
                self.ends[start] = i
                start = i


class GeometryStream:
    """Streams ``(layer, xmin, ymin, xmax, ymax)`` sorted by descending top.

    Usage mirrors the back-end loop of Figure 3-2::

        stream = GeometryStream(layout)
        while (y := stream.next_top()) is not None:
            new_boxes = stream.fetch(y)   # all boxes whose top == y
    """

    def __init__(self, layout: Layout, resolution: int = 50) -> None:
        self._layout = layout
        #: each symbol's fractured boxes, shared with the bbox pass
        self._fractured: dict[int, list[tuple[str, Box]]] = {}
        self._bboxes = symbol_bboxes(layout, resolution, self._fractured)
        #: (symbol, orientation) -> its run, built on first expansion
        self._runs: dict[tuple[int, tuple[int, int, int, int]], _Run] = {}
        self.stats = StreamStats()
        # Heap entries: (-top_y, seq, kind, payload); seq breaks ties
        # deterministically and keeps payloads out of comparisons.  A
        # run's payload is the mutable [run, next index, base, dx, dy].
        self._heap: list[tuple[int, int, int, Any]] = []
        self._seq = 0
        #: boxes not yet emitted plus calls not yet expanded
        self._pending = 0
        self._labels: list[PlacedLabel] = []
        self._push_call(TOP_SYMBOL, Transform.identity())
        if self._pending > self.stats.peak_pending:
            self.stats.peak_pending = self._pending

    # -- heap plumbing ---------------------------------------------------

    def _push_call(self, number: int, transform: Transform) -> None:
        bbox = self._bboxes.get(number)
        if bbox is None:
            # Geometry-free subtree: nothing to sort, but it may still
            # carry labels, so expand it immediately (cost is trivial).
            self._expand(number, transform)
            return
        # Top edge of the transformed bbox: the larger y image of its
        # two defining corners.
        b, d = transform.b, transform.d
        top = max(bbox.xmin * b + bbox.ymin * d, bbox.xmax * b + bbox.ymax * d)
        self._seq += 1
        heapq.heappush(
            self._heap, (-(top + transform.dy), self._seq, _CALL, (number, transform))
        )
        self._pending += 1

    def _run(self, number: int, orientation: tuple[int, int, int, int]) -> _Run:
        key = (number, orientation)
        run = self._runs.get(key)
        if run is None:
            run = self._runs[key] = _Run(orientation, self._fractured[number])
        return run

    def _expand(self, number: int, transform: Transform) -> None:
        """Expand a call one level: push its run, then its sub-calls."""
        symbol = self._layout.symbol(number)
        self.stats.calls_expanded += 1
        run = self._run(number, transform.orientation)
        n = len(run.tops)
        if n:
            base = self._seq
            dy = transform.dy
            heapq.heappush(
                self._heap,
                (
                    -(run.tops[0] + dy),
                    base + run.offsets[0],
                    _RUN,
                    [run, 0, base, transform.dx, dy],
                ),
            )
            self._seq = base + n
            self._pending += n
        for call in symbol.calls:
            self._push_call(call.symbol, call.transform.then(transform))
        for lb in symbol.labels:
            x, y = transform.apply_point(lb.x, lb.y)
            self._labels.append(PlacedLabel(lb.name, x, y, lb.layer))
        if self._pending > self.stats.peak_pending:
            self.stats.peak_pending = self._pending

    def _settle(self) -> None:
        """Expand calls until the heap top is a run (or the heap is empty)."""
        heap = self._heap
        while heap and heap[0][2] == _CALL:
            _, _, _, payload = heapq.heappop(heap)
            self._pending -= 1
            number, transform = payload
            self._expand(number, transform)

    # -- public API ----------------------------------------------------

    @property
    def chip_bbox(self) -> Box | None:
        """Bounding box of the whole chip (None for an empty layout)."""
        return self._bboxes.get(TOP_SYMBOL)

    def next_top(self) -> int | None:
        """Top-edge y of the next box, without consuming it."""
        self._settle()
        if not self._heap:
            return None
        return -self._heap[0][0]

    def fetch(self, y: int) -> list[Record]:
        """All boxes whose top edge is exactly ``y``, consumed in order."""
        out: list[Record] = []
        heap = self._heap
        key = -y
        emitted = 0
        while True:
            if heap and heap[0][2] == _CALL:
                self._settle()
            if not heap or heap[0][0] != key:
                break
            entry = heap[0][3]
            run, i, base, dx, dy = entry
            j = run.ends[i]
            if dx or dy:
                out.extend(
                    [
                        (layer, x1 + dx, y1 + dy, x2 + dx, y2 + dy)
                        for layer, x1, y1, x2, y2 in run.records[i:j]
                    ]
                )
            else:
                out.extend(run.records[i:j])
            emitted += j - i
            self._pending -= j - i
            if j < len(run.tops):
                entry[1] = j
                heapq.heapreplace(
                    heap, (-(run.tops[j] + dy), base + run.offsets[j], _RUN, entry)
                )
            else:
                heapq.heappop(heap)
        self.stats.boxes_out += emitted
        return out

    def labels(self) -> list[PlacedLabel]:
        """Labels placed so far.

        Labels are attached lazily as their enclosing cells expand; the
        extractor queries this after draining the stream, by which point
        every cell that contains geometry has been expanded.  Cells that
        contain *only* labels are expanded up front so nothing is lost.
        """
        self._settle()
        return list(self._labels)

    def drain(self) -> list[Record]:
        """Consume the rest of the stream (testing convenience)."""
        out: list[Record] = []
        while (y := self.next_top()) is not None:
            out.extend(self.fetch(y))
        return out
