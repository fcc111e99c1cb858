"""Digests of HEXT's output, pinned as a JSON fixture.

For every case the fixture holds the sha256 of the hierarchical wirelist
text, the sha256 of the resolved flat wirelist text, and the
:class:`HextStats` counters.  Equal digests mean the window plan, the
fragment tree and both wirelists are byte for byte what they were when
the fixture was written, whatever the plan and compose code now does
inside.

The fixture ``hext_digests.json`` is compared exactly by
``test_digests.py``.  Regenerate it only for an intentional change of
HEXT's output, and review the diff::

    PYTHONPATH=src python -m tests.hext.hext_digests
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path

from repro.cif import Label, Layout
from repro.geometry import Box, Transform
from repro.hext import hext_extract
from repro.hext.wirelist import to_hierarchical_wirelist
from repro.wirelist import to_wirelist, write_wirelist
from repro.workloads import build_chip

FIXTURE = Path(__file__).with_name("hext_digests.json")

#: The chips the hierarchical benchmark extracts.
HEXT_CHIPS = ("cherry", "dchip", "schip2", "testram")

#: The :class:`HextStats` counters that are pinned (timers are not).
COUNTERS = (
    "flat_calls",
    "compose_calls",
    "memo_hits",
    "windows_seen",
    "unique_windows",
)

#: Cell pitch of :func:`long_row`; every cell is one diffusion box.
ROW_PITCH = 500


def long_row(cells: int = 1150) -> Layout:
    """A row of abutting single-box diffusion cells, crossed by poly.

    The top window has more than ``cells`` children, so its compose
    chain (and the hierarchical wirelist's part chain) is that deep.
    Top-level poly strips cross the row to make transistors: most inside
    one cell, one across the seam between two cells, so a partial device
    is completed by compose.  Labels name both ends of the row.
    """
    layout = Layout()
    cell = layout.define(1)
    cell.add_box("ND", Box(0, 0, ROW_PITCH, 1000))
    for k in range(cells):
        layout.top.add_call(1, Transform.translation(k * ROW_PITCH, 0))
    for k in (1, cells // 3, cells // 2, cells - 2):
        x = k * ROW_PITCH + 125
        layout.top.add_box("NP", Box(x, -500, x + 250, 1500))
    seam = (2 * cells // 3) * ROW_PITCH - 125
    layout.top.add_box("NP", Box(seam, -500, seam + 250, 1500))
    layout.top.add_label(Label("A", 100, 500, "ND"))
    layout.top.add_label(Label("B", cells * ROW_PITCH - 100, 500, "ND"))
    return layout


#: name -> layout factory.
DIGEST_CASES = {
    **{name: partial(build_chip, name, 0.25) for name in HEXT_CHIPS},
    "long_row": long_row,
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def hext_digest(layout: Layout, name: str) -> dict:
    """Both wirelists' digests and the counters of one HEXT extraction."""
    result = hext_extract(layout)
    hierarchical = write_wirelist(to_hierarchical_wirelist(result, name=name))
    flat = write_wirelist(to_wirelist(result.circuit, name=name))
    return {
        "hierarchical": _sha256(hierarchical),
        "flat": _sha256(flat),
        "stats": {counter: getattr(result.stats, counter) for counter in COUNTERS},
    }


def capture() -> dict:
    return {
        name: hext_digest(factory(), name)
        for name, factory in sorted(DIGEST_CASES.items())
    }


def main() -> None:
    FIXTURE.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
