"""Per-stop traces of :class:`GeometryStream`, pinned as a JSON fixture.

A trace records, for every scanline stop, the stop's ``y``, the number
of labels placed after ``next_top``, the records ``fetch`` returned (in
order) and the number of labels placed after ``fetch``; then the final
labels and :class:`StreamStats`.  That is everything the scanline host
and the band recorder can observe of the stream, so two streams with
equal traces are interchangeable.

The fixture ``stream_trace.json`` is compared exactly by
``test_stream.py``.  Regenerate it only for an intentional change of
the stream's output, and review the diff::

    PYTHONPATH=src python -m tests.frontend.stream_trace
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cif import Label, Layout
from repro.frontend import GeometryStream
from repro.geometry import Box, Polygon, Transform
from repro.workloads import transistor_array
from tests.golden.cases import GOLDEN_CASES

FIXTURE = Path(__file__).with_name("stream_trace.json")

#: The eight manhattan orientations as ``(a, b, c, d)``.
ORIENTATIONS = (
    (1, 0, 0, 1),
    (0, 1, -1, 0),
    (-1, 0, 0, -1),
    (0, -1, 1, 0),
    (-1, 0, 0, 1),
    (1, 0, 0, -1),
    (0, 1, 1, 0),
    (0, -1, -1, 0),
)


def oriented_cells() -> Layout:
    """A leaf with a box, a polygon, a wire and labels, in every orientation.

    The leaf calls a label-only cell; a row places the leaf once per
    orientation, and the top places the row twice, once rotated.
    """
    layout = Layout()
    names = layout.define(2)
    names.add_label(Label("N", 1, 2))
    leaf = layout.define(1)
    leaf.add_box("ND", Box(0, 0, 4, 10))
    leaf.add_box("NP", Box(-2, 4, 6, 6))
    leaf.add_polygon(
        "NM", Polygon(((0, 12), (10, 12), (10, 16), (4, 16), (4, 22), (0, 22)))
    )
    leaf.add_wire("NP", 2, ((6, 0), (12, 0), (12, 8)))
    leaf.add_label(Label("A", 1, 1, "ND"))
    leaf.add_call(2, Transform.translation(3, 3))
    row = layout.define(3)
    for k, (a, b, c, d) in enumerate(ORIENTATIONS):
        row.add_call(1, Transform(a, b, c, d, dx=40 * k, dy=6 * (k % 3)))
    layout.top.add_call(3, Transform.identity())
    layout.top.add_call(3, Transform(0, 1, -1, 0, dx=500, dy=-40))
    layout.top.add_box("NM", Box(-20, -60, 600, -50))
    return layout


#: name -> layout factory: every golden case, every orientation over
#: polygons and wires, and a deep hierarchy.
TRACE_CASES = {
    **GOLDEN_CASES,
    "oriented_cells": oriented_cells,
    "transistor_array_16": lambda: transistor_array(16),
}


def stream_trace(stream: GeometryStream) -> dict:
    """Drain ``stream`` the way the scanline host does, recording it."""
    stops = []
    while (y := stream.next_top()) is not None:
        pre = len(stream._labels)
        records = [list(rec) for rec in stream.fetch(y)]
        stops.append([y, pre, records, len(stream._labels)])
    stats = stream.stats
    return {
        "stops": stops,
        "labels": [[lb.name, lb.x, lb.y, lb.layer] for lb in stream.labels()],
        "stats": [stats.boxes_out, stats.calls_expanded, stats.peak_pending],
    }


def capture() -> dict:
    return {
        name: stream_trace(GeometryStream(factory()))
        for name, factory in sorted(TRACE_CASES.items())
    }


def main() -> None:
    FIXTURE.write_text(json.dumps(capture(), separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
