"""The Compose routine: merging two adjacent windows.

Following section 3 of the HEXT paper:

1. find all pairs of touching boundary segments from the two windows;
2. for each pair, step through the interface-segment lists for
   corresponding layers and establish signal equivalences;
3. compute the interface for the new window.

Matching spans on conducting layers union their nets; matching channel
spans union their partial transistors; a channel span facing a
conducting-diffusion span adds terminal contact perimeter to the partial
(the cross-window source/drain case).  Partial transistors left with no
channel span on the new boundary are "output as completed transistors".

Compose never copies child circuit contents -- it stores child pointers,
a net-offset, and the equivalence pairs -- so its cost is proportional to
the new window's boundary, which is what drives the O(sqrt N) ideal-case
behaviour of Table 4-1.  Coordinates are whatever parent space the two
:class:`Placed` inputs share; the result lives in that same space.
"""

from __future__ import annotations

from collections import defaultdict

from ..core.unionfind import UnionFind
from ..geometry import Box, normalize_region
from ..tech import Technology
from .fragment import (
    BOTTOM,
    CHANNEL,
    ChildRef,
    DeviceRec,
    Fragment,
    IfaceRec,
    LEFT,
    Placed,
    RIGHT,
    TOP,
    opposite_face,
)


def compose(a: Placed, b: Placed, tech: Technology) -> Fragment:
    """Merge two placed fragments; result is in the same coordinates."""
    diff_layer = tech.channel_layers[0].cif_name
    na = a.fragment.net_count
    nb = b.fragment.net_count

    # Interface records in parent coordinates.  Conducting idents from b
    # are offset by na (the wirelist format's NetOffset); channel idents
    # stay raw and are tagged by side through the +pa convention below.
    recs_a = a.interface_records()
    recs_b = [
        IfaceRec(
            r.face,
            r.layer,
            r.fixed,
            r.lo,
            r.hi,
            r.ident if r.layer == CHANNEL else r.ident + na,
        )
        for r in b.interface_records()
    ]

    equivalences: list[tuple[int, int]] = []
    pa = len(a.fragment.partials)
    pb = len(b.fragment.partials)
    devs = UnionFind()
    for _ in range(pa + pb):
        devs.make()
    # Cross-boundary terminal contacts, keyed by *raw* partial id; they
    # are folded through the union-find only after all unions are known.
    extra_terms: dict[int, dict[int, int]] = defaultdict(dict)

    def add_term(pid: int, net: int, length: int) -> None:
        bucket = extra_terms[pid]
        bucket[net] = bucket.get(net, 0) + length

    # Steps 1+2: match touching spans.  Records are grouped per boundary
    # line, face, and layer; per-layer spans on one face of one line are
    # disjoint and sorted, so each pairing is a linear interval join --
    # this is the "step through the interface-segment lists for
    # corresponding layers" of section 3.  Only the groups of ``a`` that
    # can meet one of ``b``'s are built: the opposite face of the same
    # line, on the same layer or channel facing diffusion.
    index_b: dict[tuple, list[IfaceRec]] = defaultdict(list)
    for rec in recs_b:
        index_b[(rec.face, rec.fixed, rec.layer)].append(rec)
    wanted: set[tuple] = set()
    for face, fixed, layer in index_b:
        far = opposite_face(face)
        wanted.add((far, fixed, layer))
        if layer == diff_layer:
            wanted.add((far, fixed, CHANNEL))
        elif layer == CHANNEL:
            wanted.add((far, fixed, diff_layer))
    index_a: dict[tuple, list[IfaceRec]] = defaultdict(list)
    for rec in recs_a:
        key = (rec.face, rec.fixed, rec.layer)
        if key in wanted:
            index_a[key].append(rec)
    for group in index_a.values():
        group.sort(key=lambda r: r.lo)
    for group in index_b.values():
        group.sort(key=lambda r: r.lo)

    def on_same_layer(ra: IfaceRec, rb: IfaceRec, overlap: int) -> None:
        if ra.layer == CHANNEL:
            devs.union(ra.ident, pa + rb.ident)
        else:
            equivalences.append((ra.ident, rb.ident))

    def a_channel_b_diff(ra: IfaceRec, rb: IfaceRec, overlap: int) -> None:
        add_term(ra.ident, rb.ident, overlap)

    def a_diff_b_channel(ra: IfaceRec, rb: IfaceRec, overlap: int) -> None:
        add_term(pa + rb.ident, ra.ident, overlap)

    for (face, fixed, layer), group_b in index_b.items():
        far = opposite_face(face)
        group_a = index_a.get((far, fixed, layer))
        if group_a:
            _interval_join(group_a, group_b, on_same_layer)
        if layer == diff_layer:
            chan_a = index_a.get((far, fixed, CHANNEL))
            if chan_a:
                _interval_join(chan_a, group_b, a_channel_b_diff)
        elif layer == CHANNEL:
            diff_a = index_a.get((far, fixed, diff_layer))
            if diff_a:
                _interval_join(diff_a, group_b, a_diff_b_channel)

    # Merge partial records through the union-find.
    shifted_partials = [
        rec.shifted(a.dx, a.dy, 0) for rec in a.fragment.partials
    ] + [rec.shifted(b.dx, b.dy, na) for rec in b.fragment.partials]
    merged: dict[int, DeviceRec] = {}
    for pid, rec in enumerate(shifted_partials):
        root = devs.find(pid)
        if root in merged:
            merged[root] = merged[root].merged_with(rec)
        else:
            merged[root] = rec
    for pid, terms in extra_terms.items():
        rec = merged[devs.find(pid)]
        for net, length in terms.items():
            rec.terms[net] = rec.terms.get(net, 0) + length

    # Step 3: the new interface = surviving spans of both windows.  A
    # side's records were already filtered against its own region by the
    # composes that built it, so each side is probed only against the
    # *other* side's rectangles.  A record outside the other side's
    # bounding box survives whole; a conducting one passes through as
    # the same object.
    rects_a = a.region_rects()
    rects_b = b.region_rects()
    region = normalize_region(rects_a + rects_b)
    survivors: list[IfaceRec] = []
    boundary_roots: set[int] = set()
    for side_recs, offset, far_rects in (
        (recs_a, 0, rects_b),
        (recs_b, pa, rects_a),
    ):
        far = _bbox(far_rects)
        xmin, ymin, xmax, ymax = far.xmin, far.ymin, far.xmax, far.ymax
        for rec in side_recs:
            if rec.face == LEFT or rec.face == RIGHT:
                outside = (
                    rec.fixed < xmin or rec.fixed > xmax
                    or rec.hi <= ymin or rec.lo >= ymax
                )
            else:
                outside = (
                    rec.fixed < ymin or rec.fixed > ymax
                    or rec.hi <= xmin or rec.lo >= xmax
                )
            if outside and rec.layer != CHANNEL:
                survivors.append(rec)
                continue
            if outside:
                spans = [(rec.lo, rec.hi)]
            else:
                spans = _surviving_spans(rec, far_rects)
            if not spans:
                continue
            if rec.layer == CHANNEL:
                root = devs.find(rec.ident + offset)
                boundary_roots.add(root)
                ident = root
            else:
                ident = rec.ident
            for lo, hi in spans:
                survivors.append(
                    IfaceRec(rec.face, rec.layer, rec.fixed, lo, hi, ident)
                )

    # Partials with no surviving channel span complete here.
    completed: list[DeviceRec] = []
    still_partial: list[tuple[int, DeviceRec]] = []
    for root, rec in merged.items():
        if root in boundary_roots:
            still_partial.append((root, rec))
        else:
            completed.append(rec)
    new_pid = {root: i for i, (root, _) in enumerate(still_partial)}
    survivors = [
        IfaceRec(r.face, r.layer, r.fixed, r.lo, r.hi, new_pid[r.ident])
        if r.layer == CHANNEL
        else r
        for r in survivors
    ]

    return Fragment(
        region=tuple(region),
        net_count=na + nb,
        children=(
            ChildRef(a.fragment, a.dx, a.dy, 0),
            ChildRef(b.fragment, b.dx, b.dy, na),
        ),
        equivalences=tuple(equivalences),
        devices=tuple(completed),
        partials=tuple(rec for _, rec in still_partial),
        interface=tuple(survivors),
    )


def _interval_join(group_a: list[IfaceRec], group_b: list[IfaceRec], fn) -> None:
    """Visit overlapping (a, b) record pairs of two sorted span lists."""
    i = j = 0
    na, nb = len(group_a), len(group_b)
    while i < na and j < nb:
        ra, rb = group_a[i], group_b[j]
        overlap = min(ra.hi, rb.hi) - max(ra.lo, rb.lo)
        if overlap > 0:
            fn(ra, rb, overlap)
        if ra.hi <= rb.hi:
            i += 1
        else:
            j += 1


def _bbox(rects: list[Box]) -> Box:
    return Box(
        min(r.xmin for r in rects),
        min(r.ymin for r in rects),
        max(r.xmax for r in rects),
        max(r.ymax for r in rects),
    )


def _surviving_spans(
    rec: IfaceRec, region: list[Box]
) -> list[tuple[int, int]]:
    """Portions of ``rec``'s span still on the outside of the new region.

    A record stops being boundary wherever the combined region covers the
    far side of its line; the far side is probed with half-open interval
    tests so rectangles spanning across the line are handled too.
    """
    cover: list[tuple[int, int]] = []
    fixed = rec.fixed
    if rec.face == RIGHT:
        cover = [
            (r.ymin, r.ymax)
            for r in region
            if r.xmin <= fixed < r.xmax
        ]
    elif rec.face == LEFT:
        cover = [
            (r.ymin, r.ymax)
            for r in region
            if r.xmin < fixed <= r.xmax
        ]
    elif rec.face == TOP:
        cover = [
            (r.xmin, r.xmax)
            for r in region
            if r.ymin <= fixed < r.ymax
        ]
    elif rec.face == BOTTOM:
        cover = [
            (r.xmin, r.xmax)
            for r in region
            if r.ymin < fixed <= r.ymax
        ]
    if not cover:
        return [(rec.lo, rec.hi)]
    cover.sort()
    spans: list[tuple[int, int]] = []
    pos = rec.lo
    for lo, hi in cover:
        if hi <= pos:
            continue
        if lo >= rec.hi:
            break
        if lo > pos:
            spans.append((pos, lo))
        pos = max(pos, hi)
        if pos >= rec.hi:
            break
    if pos < rec.hi:
        spans.append((pos, rec.hi))
    return spans
