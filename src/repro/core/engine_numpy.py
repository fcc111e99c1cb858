"""The vectorized strip-batch engine (the ``repro[fast]`` back-end).

Strategy: per strip, each tracked layer's active intervals are
materialized once as flat ``(x1[], x2[], net[])`` int64 arrays (cached
against the host's per-layer mutation counters, so an unchanged layer is
converted exactly once, not once per strip).  All *geometry* -- channel
intersection, buried subtraction, terminal pairing, implant flags -- is
then computed as batch ``searchsorted``/gather passes over those arrays.

Byte parity with :mod:`repro.core.engine_python` is achieved *by
construction*, not by normalization afterwards:

* every ``UnionFind.make``/``union`` call is issued in exactly the order
  the python engine would issue it.  Fresh span allocation batches via
  :meth:`UnionFind.extend` (identical ids: fresh singletons never
  interact with same-strip unions, and union-by-size reads only the two
  involved roots, so decoupling makes from unions cannot change any
  outcome).  The rare multi-overlap bindings and the contact/buried
  union cascades are replayed as short python loops in sweep order.
* per-device attributes (area, gates, terminals, location, implant) are
  accumulated *columnar* with raw ids and folded by final union-find
  root at finalize.  Deferred resolution is exact because
  ``find_final(x) == find_final(find_t(x))`` and every fold is an
  order-independent reduction (sum, max, OR, set-union).
* the finalize folds themselves (net/device canonical order, terminal
  sums, two-terminal sizing) are vectorized ``lexsort``/``reduceat``
  passes producing the same keys the python engine sorts by, with
  results converted back to native python scalars so downstream float
  formatting is bit-identical.

With ``keep_geometry`` (goldens, lint CIF output) the net/device
*binding* loops fall back to exact python replay so geometry lists keep
the reference engine's find-at-append-time grouping; everything else
stays batch.  See docs/ENGINES.md for the full contract.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from ..frontend.stream import GeometryStream
from ..geometry import Box
from .netlist import Device
from .sizing import size_device

from . import scanline as _scan
from .stripengine import StripEngine

_EMPTY = np.empty(0, dtype=np.int64)


def _sort3(
    p: "np.ndarray", a: "np.ndarray", b: "np.ndarray"
) -> "np.ndarray":
    """Row order ascending by ``(p, a, b)`` -- ``np.lexsort((b, a, p))``.

    When the three value ranges pack into one int64 (virtually always:
    ids and coordinates are far below 2**62 combined), a single-key
    argsort replaces the three stable merge passes of lexsort.  Ties are
    only ever identical rows, so the unstable sort folds identically.
    """
    if p.shape[0] == 0:
        return _EMPTY
    p0 = int(p.min())
    a0, a1 = int(a.min()), int(a.max())
    b0, b1 = int(b.min()), int(b.max())
    sa = a1 - a0 + 1
    sb = b1 - b0 + 1
    if (int(p.max()) - p0 + 1) * sa * sb <= 1 << 62:
        return np.argsort((p - p0) * (sa * sb) + (a - a0) * sb + (b - b0))
    return np.lexsort((b, a, p))


def _resolve_parents(parent: "np.ndarray") -> "np.ndarray":
    """Collapse a raw union-find parent table to roots (vectorized)."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _flat_targets(
    starts: "np.ndarray", counts: "np.ndarray", total: int
) -> "np.ndarray":
    """Concatenate ``range(starts[i], starts[i] + counts[i])`` for all i."""
    offsets = np.cumsum(counts) - counts
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, counts)
        + np.repeat(starts, counts)
    )


def _pair_enum(
    lo: "np.ndarray", hi: "np.ndarray"
) -> "tuple[np.ndarray, np.ndarray]":
    """Flat (source index, target index) pairs for per-span windows.

    The all-singleton case -- every span overlapping exactly one target,
    the steady state of a dense mesh -- skips the repeat/cumsum pipeline
    entirely.
    """
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    n = counts.shape[0]
    if total == n and int(counts.max()) == 1:
        return np.arange(n, dtype=np.int64), lo
    src = np.repeat(np.arange(n, dtype=np.int64), counts)
    tgt = _flat_targets(lo, counts, total)
    return src, tgt


def _overlap_windows(
    x1: "np.ndarray", x2: "np.ndarray", o_x1: "np.ndarray", o_x2: "np.ndarray"
) -> "tuple[np.ndarray, np.ndarray]":
    """Per span ``[x1, x2)``: the index window of strictly overlapping
    spans in the disjoint sorted list ``(o_x1, o_x2)``.

    Strict overlap of ``[a1, a2)`` and ``[b1, b2)`` is ``b2 > a1 and
    b1 < a2``; on disjoint sorted spans both bounds are binary searches.
    """
    lo = np.searchsorted(o_x2, x1, side="right")
    hi = np.searchsorted(o_x1, x2, side="left")
    return lo, np.maximum(hi, lo)


def _subtract_spans(
    s_x1: "np.ndarray",
    s_x2: "np.ndarray",
    h_x1: "np.ndarray",
    h_x2: "np.ndarray",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Segments minus holes; returns (x1, x2, source segment index).

    Output pieces are in the same order the python engine's merged
    subtraction sweeps emit them: per segment, left to right.
    """
    n_seg = s_x1.shape[0]
    if h_x1.shape[0] == 0:
        return s_x1, s_x2, np.arange(n_seg, dtype=np.int64)
    lo, hi = _overlap_windows(s_x1, s_x2, h_x1, h_x2)
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return s_x1, s_x2, np.arange(n_seg, dtype=np.int64)
    if total == n_seg and int(counts.max()) == 1:
        # One hole per segment and every hole covers its segment whole:
        # the dense-mesh steady state (poly strips where every diffusion
        # span is all channel).  Nothing survives the subtraction.
        cov = (h_x1[lo] <= s_x1) & (h_x2[lo] >= s_x2)
        if cov.all():
            return _EMPTY, _EMPTY, _EMPTY
    h_tgt = _flat_targets(lo, counts, total)
    # Each segment yields counts+1 candidate pieces: (seg_x1 or a hole's
    # x2) up to (the next hole's x1 or seg_x2); empty pieces filter out.
    pieces = counts + 1
    piece_off = np.cumsum(pieces) - pieces
    size = total + n_seg
    starts = np.empty(size, dtype=np.int64)
    ends = np.empty(size, dtype=np.int64)
    starts[piece_off] = s_x1
    ends[piece_off + counts] = s_x2
    seg_idx = np.repeat(np.arange(n_seg, dtype=np.int64), counts)
    local = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    hole_pos = piece_off[seg_idx] + 1 + local
    starts[hole_pos] = h_x2[h_tgt]
    ends[hole_pos - 1] = h_x1[h_tgt]
    piece_seg = np.repeat(np.arange(n_seg, dtype=np.int64), pieces)
    keep = starts < ends
    return starts[keep], ends[keep], piece_seg[keep]


class NumpyStripEngine(StripEngine):
    """Step 2.c and the finalize folds as numpy batch passes."""

    name = "numpy"
    wants_index_of = False

    def __init__(self, host) -> None:
        super().__init__(host)
        #: layer -> (host version, (x1[], x2[], net[]) arrays)
        self._cache: dict[str, tuple[int, tuple]] = {}
        # previous strip state, as flat arrays
        self._pv_dx1 = self._pv_dx2 = self._pv_dnet = _EMPTY
        self._pv_cx1 = self._pv_cx2 = self._pv_cdev = _EMPTY
        # previous strip state as tuple lists (keep_geometry replay only)
        self._pv_d_list: list[tuple[int, int, int]] = []
        self._pv_c_list: list[tuple[int, int, int]] = []
        # columnar accumulators: net location touches
        self._tn_scalar: list[tuple[int, int, int]] = []  # (id, y, -x)
        self._tn_chunks: list[tuple] = []  # (ids[], y[], -x[])
        self._touched = np.zeros(0, dtype=bool)  # ids already best-touched
        # columnar accumulators: device attributes, raw ids throughout
        self._area_chunks: list[tuple] = []  # (dev[], area[])
        self._gate_chunks: list[tuple] = []  # (dev[], poly net[])
        self._loc_chunks: list[tuple] = []  # (dev[], y[], -x[])
        self._impl_chunks: list = []  # dev[]
        self._term_chunks: list[tuple] = []  # (dev[], net[], length[])
        #: find-at-append-time device geometry (keep_geometry replay)
        self._dev_geo: dict[int, list[Box]] = {}
        self._net_parent: "np.ndarray | None" = None
        self._order_roots: "np.ndarray | None" = None

    # ------------------------------------------------------------------
    # layer materialization
    # ------------------------------------------------------------------

    def _layer(self, layer: str) -> tuple:
        """The layer's live intervals as ``(x1[], x2[], net[])``.

        One C-level gather from the host's columnar buffers per change:
        the result is cached against the table's version counter, and
        column cells are immutable after allocation (merges allocate new
        rows and bump the version), so a cached view stays exact.  The
        ``np.frombuffer`` views are transient -- fancy indexing copies
        the live subset out, releasing the ``array('q')`` buffer before
        the host appends to it again.
        """
        t = self.host._tables[layer]
        version = t.version
        cached = self._cache.get(layer)
        if cached is not None and cached[0] == version:
            return cached[1]
        if t.order:
            idx = np.array(t.order, dtype=np.int64)
            x1 = np.frombuffer(t.x1, dtype=np.int64)[idx]
            x2 = np.frombuffer(t.x2, dtype=np.int64)[idx]
            if layer in self.host._net_layers:
                net = np.frombuffer(t.net, dtype=np.int64)[idx]
            else:
                net = _EMPTY
            arrays = (x1, x2, net)
        else:
            arrays = (_EMPTY, _EMPTY, _EMPTY)
        self._cache[layer] = (version, arrays)
        return arrays

    # ------------------------------------------------------------------
    # strip processing (step 2.c)
    # ------------------------------------------------------------------

    def process_strip(
        self, y_lo: int, y_hi: int, stream: GeometryStream
    ) -> None:
        h = self.host
        height = y_hi - y_lo
        faults = _scan.FAULTS
        keep_geometry = h.keep_geometry

        dx1, dx2, _ = self._layer(h._diff)
        px1, px2, pnet = self._layer(h._poly)

        # Channels: diffusion AND poly AND NOT buried, remembering the
        # poly span that forms each gate.  Pair enumeration per diffusion
        # span in ascending (diff, poly) order matches the reference
        # engine's merged sweep output order.
        ch_x1 = ch_x2 = ch_net = _EMPTY
        if dx1.shape[0] and px1.shape[0]:
            lo, hi = _overlap_windows(dx1, dx2, px1, px2)
            d_src, p_tgt = _pair_enum(lo, hi)
            if d_src.shape[0]:
                ch_x1 = np.maximum(dx1[d_src], px1[p_tgt])
                ch_x2 = np.minimum(dx2[d_src], px2[p_tgt])
                ch_net = pnet[p_tgt]
                if "channel-under-buried" not in faults:
                    bx1, bx2, _ = self._layer(h._buried)
                    if bx1.shape[0]:
                        ch_x1, ch_x2, src = _subtract_spans(
                            ch_x1, ch_x2, bx1, bx2
                        )
                        ch_net = ch_net[src]

        # Conducting diffusion: diffusion minus channels.
        if ch_x1.shape[0]:
            cond_x1, cond_x2, _ = _subtract_spans(dx1, dx2, ch_x1, ch_x2)
        else:
            cond_x1, cond_x2 = dx1, dx2

        # Bind conducting spans to nets by vertical adjacency, channels
        # to device ids -- batch for the fresh/single-overlap common
        # case, exact python replay when geometry lists must be kept.
        if keep_geometry:
            cond_net, cond_list = self._bind_nets_replay(
                cond_x1, cond_x2, y_lo, y_hi
            )
            ch_dev, ch_list = self._bind_devs_replay(
                ch_x1, ch_x2, y_lo, y_hi
            )
        else:
            cond_net = self._bind(
                cond_x1, cond_x2, self._pv_dx1, self._pv_dx2, self._pv_dnet,
                h._nets, "nets_created",
            )
            ch_dev = self._bind(
                ch_x1, ch_x2, self._pv_cx1, self._pv_cx2, self._pv_cdev,
                h._devs, "devices_created",
            )
            cond_list = ch_list = None
            if cond_net.shape[0]:
                # Strips sweep strictly downward, so once an id has been
                # touched its later (lower-y) touches can never win the
                # per-root location max -- drop them at the source to
                # keep the finalize lexsort input near the net count
                # instead of nets x strips.
                touched = self._touched
                n_nets = len(h._nets)
                if touched.shape[0] < n_nets:
                    grown = np.zeros(
                        max(n_nets, touched.shape[0] * 2), dtype=bool
                    )
                    grown[: touched.shape[0]] = touched
                    self._touched = touched = grown
                fresh = ~touched[cond_net]
                if fresh.all():
                    touched[cond_net] = True
                    self._tn_chunks.append(
                        (
                            cond_net,
                            np.full(
                                cond_net.shape[0], y_hi, dtype=np.int64
                            ),
                            -cond_x1,
                        )
                    )
                elif fresh.any():
                    ids = cond_net[fresh]
                    touched[ids] = True
                    self._tn_chunks.append(
                        (
                            ids,
                            np.full(ids.shape[0], y_hi, dtype=np.int64),
                            -cond_x1[fresh],
                        )
                    )

        n_ch = ch_dev.shape[0]
        n_cond = cond_net.shape[0]

        # Device attribute columns for this strip's channel spans.
        if n_ch:
            self._area_chunks.append((ch_dev, (ch_x2 - ch_x1) * height))
            self._gate_chunks.append((ch_dev, ch_net))
            self._loc_chunks.append(
                (
                    ch_dev,
                    np.full(n_ch, y_hi, dtype=np.int64),
                    -ch_x1,
                )
            )
            ix1, ix2, _ = self._layer(h._implant)
            if ix1.shape[0]:
                ilo, ihi = _overlap_windows(ch_x1, ch_x2, ix1, ix2)
                flagged = ihi > ilo
                if flagged.any():
                    self._impl_chunks.append(ch_dev[flagged])

        # Terminal contacts.
        if n_ch:
            if n_cond:
                # horizontal: channels and conducting spans partition
                # the diffusion, so an abutting pair shares an endpoint
                # exactly -- two exact-match searches replace the zipper.
                last = n_cond - 1
                pos = np.minimum(
                    np.searchsorted(cond_x2, ch_x1), last
                )
                m = cond_x2[pos] == ch_x1
                if m.any():
                    self._term_chunks.append(
                        (
                            ch_dev[m],
                            cond_net[pos[m]],
                            np.full(int(m.sum()), height, dtype=np.int64),
                        )
                    )
                pos = np.minimum(
                    np.searchsorted(cond_x1, ch_x2), last
                )
                m = cond_x1[pos] == ch_x2
                if m.any():
                    self._term_chunks.append(
                        (
                            ch_dev[m],
                            cond_net[pos[m]],
                            np.full(int(m.sum()), height, dtype=np.int64),
                        )
                    )
            # vertical: channel below conducting diffusion of the strip above
            if self._pv_dx1.shape[0]:
                lo, hi = _overlap_windows(
                    ch_x1, ch_x2, self._pv_dx1, self._pv_dx2
                )
                src, tgt = _pair_enum(lo, hi)
                if src.shape[0]:
                    overlap = np.minimum(
                        ch_x2[src], self._pv_dx2[tgt]
                    ) - np.maximum(ch_x1[src], self._pv_dx1[tgt])
                    self._term_chunks.append(
                        (ch_dev[src], self._pv_dnet[tgt], overlap)
                    )
        if self._pv_cx1.shape[0] and n_cond:
            # vertical: conducting diffusion below a channel of the strip above
            lo, hi = _overlap_windows(
                cond_x1, cond_x2, self._pv_cx1, self._pv_cx2
            )
            src, tgt = _pair_enum(lo, hi)
            if src.shape[0]:
                overlap = np.minimum(
                    cond_x2[src], self._pv_cx2[tgt]
                ) - np.maximum(cond_x1[src], self._pv_cx1[tgt])
                self._term_chunks.append(
                    (self._pv_cdev[tgt], cond_net[src], overlap)
                )

        # Contact cuts: batch-clip every (cut x conducting layer) overlap
        # into per-cut entry lists, then replay the reference engine's
        # sorted pairwise union cascade per cut.
        if h._tables[h._contact].order:
            self._contact_unions(cond_x1, cond_x2, cond_net)

        # Buried contacts: poly x buried x conducting triple overlaps,
        # unions replayed in (buried, poly, cond) sweep order.
        if (
            h._tables[h._buried].order
            and n_cond
            and px1.shape[0]
            and "buried-skip" not in faults
        ):
            bx1, bx2, _ = self._layer(h._buried)
            lo, hi = _overlap_windows(bx1, bx2, px1, px2)
            b_src, p_tgt = _pair_enum(lo, hi)
            if b_src.shape[0]:
                q1 = np.maximum(px1[p_tgt], bx1[b_src])
                q2 = np.minimum(px2[p_tgt], bx2[b_src])
                q_net = pnet[p_tgt]
                lo2, hi2 = _overlap_windows(q1, q2, cond_x1, cond_x2)
                src2, tgt2 = _pair_enum(lo2, hi2)
                if src2.shape[0]:
                    union = h._nets.union
                    for a, b in zip(
                        q_net[src2].tolist(), cond_net[tgt2].tolist()
                    ):
                        union(a, b)

        def cond_source() -> list[tuple[int, int, int]]:
            if cond_list is not None:
                return cond_list
            return list(
                zip(cond_x1.tolist(), cond_x2.tolist(), cond_net.tolist())
            )

        h._attach_labels(y_lo, y_hi, stream, cond_source)

        if h.window is not None:
            h._capture_boundary(
                y_lo,
                y_hi,
                cond_source(),
                ch_list
                if ch_list is not None
                else list(
                    zip(ch_x1.tolist(), ch_x2.tolist(), ch_dev.tolist())
                ),
            )

        if h.strip_consumers:
            h._feed_consumers(
                y_lo,
                y_hi,
                list(zip(ch_x1.tolist(), ch_x2.tolist(), ch_net.tolist())),
            )

        self._pv_dx1, self._pv_dx2, self._pv_dnet = cond_x1, cond_x2, cond_net
        self._pv_cx1, self._pv_cx2, self._pv_cdev = ch_x1, ch_x2, ch_dev
        if keep_geometry:
            self._pv_d_list = cond_list if cond_list is not None else []
            self._pv_c_list = ch_list if ch_list is not None else []

    # ------------------------------------------------------------------
    # net / device binding
    # ------------------------------------------------------------------

    def _bind(
        self,
        x1: "np.ndarray",
        x2: "np.ndarray",
        pv_x1: "np.ndarray",
        pv_x2: "np.ndarray",
        pv_id: "np.ndarray",
        uf,
        counter: str,
    ) -> "np.ndarray":
        """Assign each span the id inherited from strip-above overlaps.

        Fresh spans (no overlap) batch-allocate via ``extend`` -- the
        ids equal what interleaved ``make`` calls would return, because
        unions never involve same-strip fresh singletons.  Multi-overlap
        spans replay their union chains in ascending span order.
        """
        n = x1.shape[0]
        if n == 0:
            return _EMPTY
        h = self.host
        if pv_x1.shape[0] == 0:
            base = uf.extend(n)
            setattr(h.stats, counter, getattr(h.stats, counter) + n)
            return np.arange(base, base + n, dtype=np.int64)
        lo, hi = _overlap_windows(x1, x2, pv_x1, pv_x2)
        fresh = hi <= lo
        out = np.empty(n, dtype=np.int64)
        n_fresh = int(fresh.sum())
        if n_fresh:
            base = uf.extend(n_fresh)
            setattr(h.stats, counter, getattr(h.stats, counter) + n_fresh)
            out[fresh] = base - 1 + np.cumsum(fresh, dtype=np.int64)[fresh]
        if n_fresh < n:
            bound = np.nonzero(~fresh)[0]
            lo_l = lo[bound].tolist()
            hi_l = hi[bound].tolist()
            pv = pv_id.tolist()
            union = uf.union
            values = []
            for a, b in zip(lo_l, hi_l):
                ident = pv[a]
                for j in range(a + 1, b):
                    ident = union(ident, pv[j])
                values.append(ident)
            out[bound] = values
        return out

    def _bind_nets_replay(
        self,
        cond_x1: "np.ndarray",
        cond_x2: "np.ndarray",
        y_lo: int,
        y_hi: int,
    ) -> "tuple[np.ndarray, list[tuple[int, int, int]]]":
        """keep_geometry path: the reference engine's cond loop verbatim,
        so ``_net_geo`` keys and append order stay identical."""
        h = self.host
        nets = h._nets
        prev = self._pv_d_list
        n_prev = len(prev)
        cond: list[tuple[int, int, int]] = []
        pj = 0
        for x1, x2 in zip(cond_x1.tolist(), cond_x2.tolist()):
            while pj < n_prev and prev[pj][1] <= x1:
                pj += 1
            net = None
            k = pj
            while k < n_prev:
                entry = prev[k]
                if entry[0] >= x2:
                    break
                net = entry[2] if net is None else nets.union(net, entry[2])
                k += 1
            if net is None:
                net = nets.make()
                h.stats.nets_created += 1
            self._tn_scalar.append((net, y_hi, -x1))
            h._net_geo.setdefault(net, []).append(
                (h._diff, Box(x1, y_lo, x2, y_hi))
            )
            cond.append((x1, x2, net))
        if cond:
            net_arr = np.fromiter(
                (entry[2] for entry in cond), np.int64, len(cond)
            )
        else:
            net_arr = _EMPTY
        return net_arr, cond

    def _bind_devs_replay(
        self,
        ch_x1: "np.ndarray",
        ch_x2: "np.ndarray",
        y_lo: int,
        y_hi: int,
    ) -> "tuple[np.ndarray, list[tuple[int, int, int]]]":
        """keep_geometry path: device binding with find-at-append-time
        geometry grouping, matching the reference engine's record keys."""
        h = self.host
        devs = h._devs
        prev = self._pv_c_list
        n_prev = len(prev)
        out: list[tuple[int, int, int]] = []
        cj = 0
        for x1, x2 in zip(ch_x1.tolist(), ch_x2.tolist()):
            while cj < n_prev and prev[cj][1] <= x1:
                cj += 1
            dev = None
            k = cj
            while k < n_prev:
                entry = prev[k]
                if entry[0] >= x2:
                    break
                dev = entry[2] if dev is None else devs.union(dev, entry[2])
                k += 1
            if dev is None:
                dev = devs.make()
                h.stats.devices_created += 1
            self._dev_geo.setdefault(devs.find(dev), []).append(
                Box(x1, y_lo, x2, y_hi)
            )
            out.append((x1, x2, dev))
        if out:
            dev_arr = np.fromiter(
                (entry[2] for entry in out), np.int64, len(out)
            )
        else:
            dev_arr = _EMPTY
        return dev_arr, out

    # ------------------------------------------------------------------
    # contact cuts
    # ------------------------------------------------------------------

    def _contact_unions(
        self,
        cond_x1: "np.ndarray",
        cond_x2: "np.ndarray",
        cond_net: "np.ndarray",
    ) -> None:
        h = self.host
        cx1, cx2, _ = self._layer(h._contact)
        n_cuts = cx1.shape[0]
        entries = []
        mx1, mx2, mnet = self._layer(h._metal)
        px1, px2, pnet = self._layer(h._poly)
        for lx1, lx2, lnet in (
            (mx1, mx2, mnet),
            (px1, px2, pnet),
            (cond_x1, cond_x2, cond_net),
        ):
            if lx1.shape[0] == 0:
                continue
            lo, hi = _overlap_windows(cx1, cx2, lx1, lx2)
            counts = hi - lo
            total = int(counts.sum())
            if not total:
                continue
            cut_idx = np.repeat(np.arange(n_cuts), counts)
            tgt = _flat_targets(lo, counts, total)
            entries.append(
                (
                    cut_idx,
                    np.maximum(lx1[tgt], cx1[cut_idx]),
                    np.minimum(lx2[tgt], cx2[cut_idx]),
                    lnet[tgt],
                )
            )
        if not entries:
            return
        cut_i = np.concatenate([e[0] for e in entries])
        a1 = np.concatenate([e[1] for e in entries])
        a2 = np.concatenate([e[2] for e in entries])
        an = np.concatenate([e[3] for e in entries])
        # Per cut, the reference engine sorts its present-entry tuples
        # (x1, x2, net) and unions pairs until x-overlap stops; the
        # lexsort reproduces that sort, the loop replays the cascade.
        order = np.lexsort((an, a2, a1, cut_i))
        ci = cut_i[order].tolist()
        s1 = a1[order].tolist()
        s2 = a2[order].tolist()
        sn = an[order].tolist()
        union = h._nets.union
        m = len(ci)
        i = 0
        while i < m:
            cut = ci[i]
            j = i + 1
            while j < m and ci[j] == cut:
                j += 1
            for a in range(i, j):
                end = s2[a]
                for b in range(a + 1, j):
                    if s1[b] >= end:
                        break
                    union(sn[a], sn[b])
            i = j

    # ------------------------------------------------------------------
    # net location accumulation
    # ------------------------------------------------------------------

    def touch_net(self, net: int, xmin: int, ymax: int) -> None:
        self._tn_scalar.append((net, ymax, -xmin))

    # ------------------------------------------------------------------
    # finalize folds (step 3)
    # ------------------------------------------------------------------

    def net_order(self) -> "tuple[list[int], list[tuple[int, int]]]":
        h = self.host
        n_nets = len(h._nets)
        parent = np.array(h._nets.parent_snapshot(), dtype=np.int64)
        if parent.shape[0]:
            parent = _resolve_parents(parent)
        self._net_parent = parent

        chunks = list(self._tn_chunks)
        if self._tn_scalar:
            scalar = np.array(self._tn_scalar, dtype=np.int64)
            chunks.append((scalar[:, 0], scalar[:, 1], scalar[:, 2]))
        if not chunks or n_nets == 0:
            return [], []
        ids = np.concatenate([c[0] for c in chunks])
        ys = np.concatenate([c[1] for c in chunks])
        nxs = np.concatenate([c[2] for c in chunks])
        roots = parent[ids]
        # Group-max location per root: sort by (root, y, -x) and keep
        # each group's last row -- the python engine's tuple-max.  On a
        # union-free sweep the touched-filter leaves exactly one row per
        # root: the engine-chunk prefix and the host-scalar tail are each
        # strictly increasing and disjoint, every root appears once, and
        # grouping is the identity (the canonical sort below does not
        # care about pre-order, so no merge is needed either).
        n_c = roots.shape[0] - len(self._tn_scalar)
        roots_c, roots_s = roots[:n_c], roots[n_c:]
        if (
            bool(np.all(roots_c[1:] > roots_c[:-1]))
            and bool(np.all(roots_s[1:] > roots_s[:-1]))
            and (
                roots_s.shape[0] == 0
                or roots_c.shape[0] == 0
                or not bool(
                    (
                        roots_c[
                            np.minimum(
                                np.searchsorted(roots_c, roots_s),
                                roots_c.shape[0] - 1,
                            )
                        ]
                        == roots_s
                    ).any()
                )
            )
        ):
            g_root, g_y, g_nx = roots, ys, nxs
        else:
            order = _sort3(roots, ys, nxs)
            r_s, y_s, nx_s = roots[order], ys[order], nxs[order]
            last = np.append(np.nonzero(np.diff(r_s))[0], r_s.shape[0] - 1)
            g_root, g_y, g_nx = r_s[last], y_s[last], nx_s[last]
        # Canonical net order: key (-ymax, -(-xmin), root) ascending.
        out = _sort3(-g_y, -g_nx, g_root)
        self._order_roots = g_root[out]
        roots_list = self._order_roots.tolist()
        locations = list(
            zip(np.negative(g_nx[out]).tolist(), g_y[out].tolist())
        )
        return roots_list, locations

    def build_devices(
        self,
        index_of: "dict[int, int]",
        kind_enh: str,
        kind_dep: str,
        boundary_dev_roots: "set[int]",
    ) -> "tuple[list[Device], dict[int, int], list[str]]":
        h = self.host
        n_dev = len(h._devs)
        if n_dev == 0:
            return [], {}, []
        dparent = _resolve_parents(
            np.array(h._devs.parent_snapshot(), dtype=np.int64)
        )
        nparent = self._net_parent
        assert nparent is not None, "net_order must run before device_rows"

        # location fold -> canonical device order
        l_ids = np.concatenate([c[0] for c in self._loc_chunks])
        l_y = np.concatenate([c[1] for c in self._loc_chunks])
        l_nx = np.concatenate([c[2] for c in self._loc_chunks])
        l_root = dparent[l_ids]
        # Same strictly-increasing shortcut as the net fold: channel ids
        # allocate in strip order, so a union-free sweep needs no sort.
        if bool(np.all(l_root[1:] > l_root[:-1])):
            g_root, g_y, g_nx = l_root, l_y, l_nx
        else:
            order = _sort3(l_root, l_y, l_nx)
            r_s, y_s, nx_s = l_root[order], l_y[order], l_nx[order]
            last = np.append(np.nonzero(np.diff(r_s))[0], r_s.shape[0] - 1)
            g_root, g_y, g_nx = r_s[last], y_s[last], nx_s[last]
        out = _sort3(-g_y, -g_nx, g_root)
        order_roots = g_root[out]
        loc_y = g_y[out]
        loc_nx = g_nx[out]

        # area / implant folds (raw ids -> final roots).  bincount sums
        # in float64, which is exact for these magnitudes (areas are far
        # below 2**53), so the int64 round-trip loses nothing.
        a_ids = np.concatenate([c[0] for c in self._area_chunks])
        a_vals = np.concatenate([c[1] for c in self._area_chunks])
        areas = np.bincount(
            dparent[a_ids], weights=a_vals, minlength=n_dev
        ).astype(np.int64)
        impl = np.zeros(n_dev, dtype=bool)
        for ids in self._impl_chunks:
            impl[dparent[ids]] = True

        # net root -> 1-based wirelist index, as an array.  The host
        # builds index_of by enumerating net_order's roots 1-based, so
        # when the stashed order array matches we scatter an arange
        # instead of round-tripping the dict through fromiter.
        n_nets = nparent.shape[0]
        net_index = np.zeros(max(n_nets, 1), dtype=np.int64)
        order_roots_net = self._order_roots
        n_order = (
            order_roots_net.shape[0] if index_of is None else len(index_of)
        )
        if order_roots_net is not None and (
            index_of is None or order_roots_net.shape[0] == len(index_of)
        ):
            net_index[order_roots_net] = np.arange(
                1, n_order + 1, dtype=np.int64
            )
        elif index_of:
            keys = np.fromiter(index_of.keys(), np.int64, len(index_of))
            vals = np.fromiter(index_of.values(), np.int64, len(index_of))
            net_index[keys] = vals
        mult = n_order + 2

        # gates: unique (device root, gate net index) pairs, ascending --
        # identical to the python engine's sorted gate-index list.
        if self._gate_chunks:
            gd = dparent[np.concatenate([c[0] for c in self._gate_chunks])]
            gn = net_index[
                nparent[np.concatenate([c[1] for c in self._gate_chunks])]
            ]
            known = gn > 0
            g_all = gd[known] * mult + gn[known]
            if g_all.shape[0] > 1 and bool(np.all(g_all[1:] > g_all[:-1])):
                # already strictly increasing: sorted and duplicate-free
                g_keys = g_all
            elif g_all.shape[0]:
                g_all.sort()
                keep = np.empty(g_all.shape[0], dtype=bool)
                keep[0] = True
                np.not_equal(g_all[1:], g_all[:-1], out=keep[1:])
                g_keys = g_all[keep]
            else:
                g_keys = g_all
            g_dev = g_keys // mult
            g_idx = g_keys % mult
        else:
            g_dev = g_idx = _EMPTY

        # terminals: perimeter sums grouped by (device root, net index)
        if self._term_chunks:
            td = dparent[np.concatenate([c[0] for c in self._term_chunks])]
            tn = net_index[
                nparent[np.concatenate([c[1] for c in self._term_chunks])]
            ]
            tl = np.concatenate([c[2] for c in self._term_chunks])
            known = tn > 0
            td, tn, tl = td[known], tn[known], tl[known]
        else:
            td = tn = tl = _EMPTY
        if td.shape[0]:
            t_keys = td * mult + tn
            t_order = np.argsort(t_keys, kind="stable")
            k_s = t_keys[t_order]
            l_s = tl[t_order]
            starts = np.concatenate(
                ([0], np.nonzero(np.diff(k_s))[0] + 1)
            )
            t_sum = np.add.reduceat(l_s, starts)
            t_dev = k_s[starts] // mult
            t_idx = k_s[starts] % mult
        else:
            t_dev = t_idx = t_sum = _EMPTY

        # Per-device slices into the grouped gate/terminal arrays.  Both
        # grouped arrays are sorted by device root, so one bincount plus
        # an exclusive prefix sum gives every root's slice in a single
        # linear pass instead of four binary-search sweeps.
        if t_dev.shape[0]:
            t_cnt = np.bincount(t_dev, minlength=n_dev)
            t_off = np.cumsum(t_cnt) - t_cnt
            t_lo = t_off[order_roots]
            t_hi = t_lo + t_cnt[order_roots]
        else:
            t_lo = t_hi = np.zeros(order_roots.shape[0], dtype=np.int64)
        if g_dev.shape[0]:
            g_cnt_all = np.bincount(g_dev, minlength=n_dev)
            g_off = np.cumsum(g_cnt_all) - g_cnt_all
            g_lo = g_off[order_roots]
            g_hi = g_lo + g_cnt_all[order_roots]
        else:
            g_lo = g_hi = np.zeros(order_roots.shape[0], dtype=np.int64)

        # vectorized two-terminal sizing (the overwhelming common case);
        # other terminal counts fall back to size_device per row.
        n_out = order_roots.shape[0]
        area_out = areas[order_roots]
        t_count = t_hi - t_lo
        if t_idx.shape[0]:
            guard = t_idx.shape[0] - 1
            i0 = np.minimum(t_lo, guard)
            i1 = np.minimum(t_lo + 1, guard)
            n1, p1 = t_idx[i0], t_sum[i0]
            n2, p2 = t_idx[i1], t_sum[i1]
            swap = p1 < p2  # grouped ascending by net index: n1 < n2
            src2 = np.where(swap, n2, n1)
            drn2 = np.where(swap, n1, n2)
            width2 = (p1 + p2) / 2.0
            length2 = np.divide(
                area_out,
                width2,
                out=np.zeros(n_out, dtype=np.float64),
                where=width2 > 0,
            )
        else:
            src2 = drn2 = np.zeros(n_out, dtype=np.int64)
            width2 = length2 = np.zeros(n_out, dtype=np.float64)

        # geometry fold (keep_geometry replay): concatenate per raw key
        # ascending, the reference engine's record-table fold order.
        geo_fold: dict[int, list[Box]] = {}
        if self._dev_geo:
            dev_find = h._devs.find
            for key in sorted(self._dev_geo):
                geo_fold.setdefault(dev_find(key), []).extend(
                    self._dev_geo[key]
                )

        area_l = area_out.tolist()
        impl_out = impl[order_roots]
        locs = list(
            zip(np.negative(loc_nx).tolist(), loc_y.tolist())
        )
        g_cnt = g_hi - g_lo

        if geo_fold or boundary_dev_roots:
            return self._build_devices_rowwise(
                kind_enh, kind_dep, boundary_dev_roots, geo_fold,
                order_roots.tolist(), area_l, impl_out, locs,
                t_lo, t_hi, t_idx, t_sum,
                g_lo, g_hi, g_idx,
                src2, drn2, width2, length2,
            )

        # Bulk materialization: every per-device python object (the
        # Device itself, its terminals dict, gates list, location
        # tuple) is built by C-level map/zip passes; the rare rows that
        # do not fit the one-gate/two-terminal template are patched
        # afterwards.  One python iteration per device costs more than
        # the whole array pipeline at mesh scale.
        kinds = [kind_enh] * n_out
        impl_idx = (
            np.nonzero(impl_out)[0].tolist() if impl_out.any() else []
        )
        for i in impl_idx:
            kinds[i] = kind_dep
        if g_idx.shape[0]:
            g_first = g_idx[np.minimum(g_lo, g_idx.shape[0] - 1)]
            gate_l = g_first.tolist()
            gates_l = g_first.reshape(-1, 1).tolist()
        else:
            gate_l = [None] * n_out
            gates_l = list(map(list, repeat((), n_out)))
        if t_idx.shape[0]:
            # dict displays over four flat lists beat building and
            # re-walking an (n_out, 2, 2) nested tolist block
            terms_l = [
                {a: b, c: d}
                for a, b, c, d in zip(
                    n1.tolist(), p1.tolist(), n2.tolist(), p2.tolist()
                )
            ]
        else:
            terms_l = list(map(dict, repeat((), n_out)))
        devices = list(
            map(
                Device,
                range(n_out),
                kinds,
                gate_l,
                src2.tolist(),
                drn2.tolist(),
                length2.tolist(),
                width2.tolist(),
                area_l,
                locs,
                terms_l,
                gates_l,
            )
        )
        # geometry/touches_boundary take their dataclass defaults (the
        # bulk path never runs with kept geometry or a window); only the
        # rare depletion rows need patching.
        for i in impl_idx:
            devices[i].depletion = True

        # patch rows outside the two-terminal template
        for i in np.nonzero(t_count != 2)[0].tolist():
            lo, hi = int(t_lo[i]), int(t_hi[i])
            terms = dict(
                zip(t_idx[lo:hi].tolist(), t_sum[lo:hi].tolist())
            )
            sized = size_device(area_l[i], terms)
            d = devices[i]
            d.terminals = terms
            d.source, d.drain = sized.source, sized.drain
            d.length, d.width = sized.length, sized.width
        # patch rows outside the single-gate template
        for i in np.nonzero(g_cnt != 1)[0].tolist():
            lst = g_idx[int(g_lo[i]):int(g_hi[i])].tolist()
            d = devices[i]
            d.gates = lst
            d.gate = lst[0] if lst else None

        warnings: list[str] = []
        warn_mask = (g_cnt != 1) | (t_count < 2)
        if warn_mask.any():
            for i in np.nonzero(warn_mask)[0].tolist():
                d = devices[i]
                warnings.append(
                    f"malformed transistor at {d.location}: "
                    f"{len(d.gates)} gate nets, "
                    f"{len(d.terminals)} terminals"
                )
        # The root -> index map only feeds window boundary records;
        # whole-chip extraction never reads it.
        dev_index_of = (
            dict(zip(order_roots.tolist(), range(n_out)))
            if h.window is not None
            else {}
        )
        return devices, dev_index_of, warnings

    def _build_devices_rowwise(
        self,
        kind_enh: str,
        kind_dep: str,
        boundary_dev_roots: "set[int]",
        geo_fold: "dict[int, list[Box]]",
        roots_l: "list[int]",
        area_l: "list[int]",
        impl_out,
        locs: "list[tuple[int, int]]",
        t_lo, t_hi, t_idx, t_sum,
        g_lo, g_hi, g_idx,
        src2, drn2, width2, length2,
    ) -> "tuple[list[Device], dict[int, int], list[str]]":
        """Per-row construction for runs that keep geometry or carry a
        window boundary -- small layouts where clarity beats batching.
        """
        devices: list[Device] = []
        dev_index_of: dict[int, int] = {}
        warnings: list[str] = []
        t_idx_l, t_sum_l = t_idx.tolist(), t_sum.tolist()
        g_idx_l = g_idx.tolist()
        get_geo = geo_fold.get
        for (
            i,
            (root, area, is_impl, loc, lo_t, hi_t, lo_g, hi_g,
             source, drain, width, length),
        ) in enumerate(
            zip(
                roots_l,
                area_l,
                impl_out.tolist(),
                locs,
                t_lo.tolist(),
                t_hi.tolist(),
                g_lo.tolist(),
                g_hi.tolist(),
                src2.tolist(),
                drn2.tolist(),
                width2.tolist(),
                length2.tolist(),
            )
        ):
            if hi_t - lo_t == 2:
                terms = {
                    t_idx_l[lo_t]: t_sum_l[lo_t],
                    t_idx_l[lo_t + 1]: t_sum_l[lo_t + 1],
                }
            else:
                terms = dict(zip(t_idx_l[lo_t:hi_t], t_sum_l[lo_t:hi_t]))
                sized = size_device(area, terms)
                source, drain = sized.source, sized.drain
                width, length = sized.width, sized.length
            gate_indices = g_idx_l[lo_g:hi_g]
            on_boundary = root in boundary_dev_roots
            device = Device(
                i,
                kind_dep if is_impl else kind_enh,
                gate_indices[0] if gate_indices else None,
                source,
                drain,
                length,
                width,
                area,
                loc,
                terms,
                gate_indices,
                get_geo(root) or [] if geo_fold else [],
                on_boundary,
                is_impl,
            )
            devices.append(device)
            dev_index_of[root] = i
            if not on_boundary and (
                source is None
                or drain is None
                or len(gate_indices) != 1
            ):
                warnings.append(
                    f"malformed transistor at {device.location}: "
                    f"{len(gate_indices)} gate nets, {len(terms)} terminals"
                )
        return devices, dev_index_of, warnings

    # ------------------------------------------------------------------
    # banded streaming hooks (docs/STREAMING.md)
    # ------------------------------------------------------------------

    def live_roots(self) -> "tuple[set[int], set[int]]":
        h = self.host
        find = h._nets.find
        dev_find = h._devs.find
        return (
            {find(n) for n in self._pv_dnet.tolist()},
            {dev_find(d) for d in self._pv_cdev.tolist()},
        )

    def retire(
        self, live_nets: "set[int]", live_devs: "set[int]"
    ) -> "tuple[dict[int, tuple[int, int]], dict[int, dict]]":
        h = self.host
        n_nets = len(h._nets)
        n_devs = len(h._devs)
        nparent = (
            _resolve_parents(
                np.array(h._nets.parent_snapshot(), dtype=np.int64)
            )
            if n_nets
            else _EMPTY
        )
        dparent = (
            _resolve_parents(
                np.array(h._devs.parent_snapshot(), dtype=np.int64)
            )
            if n_devs
            else _EMPTY
        )
        net_live = np.zeros(max(n_nets, 1), dtype=bool)
        if live_nets:
            net_live[
                np.fromiter(live_nets, np.int64, len(live_nets))
            ] = True
        dev_live = np.zeros(max(n_devs, 1), dtype=bool)
        if live_devs:
            dev_live[
                np.fromiter(live_devs, np.int64, len(live_devs))
            ] = True

        # Net locations: resolve and group-max every accumulated touch
        # row by root (deferred folds are order-independent maxima), then
        # split by liveness.  Live rows collapse to one row per root --
        # valid because max-of-max is the same max -- which is what keeps
        # the accumulators O(live) between bands.
        dead_locs: dict[int, tuple[int, int]] = {}
        chunks = list(self._tn_chunks)
        if self._tn_scalar:
            scalar = np.array(self._tn_scalar, dtype=np.int64)
            chunks.append((scalar[:, 0], scalar[:, 1], scalar[:, 2]))
        self._tn_scalar = []
        self._tn_chunks = []
        if chunks:
            ids = np.concatenate([c[0] for c in chunks])
            ys = np.concatenate([c[1] for c in chunks])
            nxs = np.concatenate([c[2] for c in chunks])
            roots = nparent[ids]
            order = _sort3(roots, ys, nxs)
            r_s, y_s, nx_s = roots[order], ys[order], nxs[order]
            last = np.append(
                np.nonzero(np.diff(r_s))[0], r_s.shape[0] - 1
            )
            g_root, g_y, g_nx = r_s[last], y_s[last], nx_s[last]
            alive = net_live[g_root]
            dead = ~alive
            for r, y, nx in zip(
                g_root[dead].tolist(),
                g_y[dead].tolist(),
                g_nx[dead].tolist(),
            ):
                dead_locs[r] = (y, nx)
            if alive.any():
                self._tn_chunks = [
                    (g_root[alive], g_y[alive], g_nx[alive])
                ]

        # Device attribute columns: rows of dead roots fold into
        # reference-format records; rows of live roots stay raw (their
        # final-root resolution is unaffected by when it happens).
        recs: dict[int, dict] = {}

        def rec_for(root: int) -> dict:
            rec = recs.get(root)
            if rec is None:
                rec = recs[root] = {
                    "area": 0,
                    "gates": set(),
                    "terms": {},
                    "geo": [],
                    "loc": None,
                    "impl": False,
                }
            return rec

        if self._area_chunks:
            ids = np.concatenate([c[0] for c in self._area_chunks])
            vals = np.concatenate([c[1] for c in self._area_chunks])
            roots = dparent[ids]
            alive = dev_live[roots]
            dead = ~alive
            for d, v in zip(roots[dead].tolist(), vals[dead].tolist()):
                rec_for(d)["area"] += v
            self._area_chunks = (
                [(ids[alive], vals[alive])] if alive.any() else []
            )
        if self._gate_chunks:
            ids = np.concatenate([c[0] for c in self._gate_chunks])
            gnets = np.concatenate([c[1] for c in self._gate_chunks])
            roots = dparent[ids]
            alive = dev_live[roots]
            dead = ~alive
            for d, g in zip(
                roots[dead].tolist(), nparent[gnets[dead]].tolist()
            ):
                rec_for(d)["gates"].add(g)
            self._gate_chunks = (
                [(ids[alive], gnets[alive])] if alive.any() else []
            )
        if self._loc_chunks:
            ids = np.concatenate([c[0] for c in self._loc_chunks])
            ys = np.concatenate([c[1] for c in self._loc_chunks])
            nxs = np.concatenate([c[2] for c in self._loc_chunks])
            roots = dparent[ids]
            alive = dev_live[roots]
            dead = ~alive
            for d, y, nx in zip(
                roots[dead].tolist(),
                ys[dead].tolist(),
                nxs[dead].tolist(),
            ):
                rec = rec_for(d)
                loc = (y, nx)
                if rec["loc"] is None or loc > rec["loc"]:
                    rec["loc"] = loc
            self._loc_chunks = (
                [(ids[alive], ys[alive], nxs[alive])]
                if alive.any()
                else []
            )
        if self._impl_chunks:
            ids = np.concatenate(self._impl_chunks)
            roots = dparent[ids]
            alive = dev_live[roots]
            dead = ~alive
            for d in roots[dead].tolist():
                rec_for(d)["impl"] = True
            self._impl_chunks = [ids[alive]] if alive.any() else []
        if self._term_chunks:
            ids = np.concatenate([c[0] for c in self._term_chunks])
            tnets = np.concatenate([c[1] for c in self._term_chunks])
            lens = np.concatenate([c[2] for c in self._term_chunks])
            roots = dparent[ids]
            alive = dev_live[roots]
            dead = ~alive
            for d, n, ln in zip(
                roots[dead].tolist(),
                nparent[tnets[dead]].tolist(),
                lens[dead].tolist(),
            ):
                terms = rec_for(d)["terms"]
                terms[n] = terms.get(n, 0) + ln
            self._term_chunks = (
                [(ids[alive], tnets[alive], lens[alive])]
                if alive.any()
                else []
            )
        if self._dev_geo:
            dev_find = h._devs.find
            keep_geo: dict[int, list[Box]] = {}
            # Ascending raw-key order is the finalize fold order; dead
            # roots gain no future keys, so the restriction is exact.
            for key in sorted(self._dev_geo):
                root = dev_find(key)
                if dev_live[root]:
                    keep_geo[key] = self._dev_geo[key]
                else:
                    rec_for(root)["geo"].extend(self._dev_geo[key])
            self._dev_geo = keep_geo
        return dead_locs, recs

    def snapshot_state(self) -> dict:
        def rows(*cols) -> list[list[int]]:
            return np.column_stack(cols).tolist() if cols[0].shape[0] else []

        def chunk_rows(chunks) -> list[list[int]]:
            return [
                row
                for chunk in chunks
                for row in np.column_stack(chunk).tolist()
            ]

        return {
            "pv_diff": rows(self._pv_dx1, self._pv_dx2, self._pv_dnet),
            "pv_channels": rows(self._pv_cx1, self._pv_cx2, self._pv_cdev),
            "pv_d_list": [list(e) for e in self._pv_d_list],
            "pv_c_list": [list(e) for e in self._pv_c_list],
            "tn_scalar": [list(e) for e in self._tn_scalar],
            "tn_chunks": chunk_rows(self._tn_chunks),
            "touched": np.nonzero(self._touched)[0].tolist(),
            "touched_size": int(self._touched.shape[0]),
            "area": chunk_rows(self._area_chunks),
            "gates": chunk_rows(self._gate_chunks),
            "loc": chunk_rows(self._loc_chunks),
            "impl": [
                v
                for chunk in self._impl_chunks
                for v in chunk.tolist()
            ],
            "terms": chunk_rows(self._term_chunks),
            "dev_geo": [
                [key, [[b.xmin, b.ymin, b.xmax, b.ymax] for b in boxes]]
                for key, boxes in self._dev_geo.items()
            ],
        }

    def restore_state(self, state: dict) -> None:
        # The layer view cache is keyed by table version counters, which
        # restart after a restore -- stale entries could alias.
        self._cache.clear()

        def cols(rows, n: int):
            if not rows:
                return tuple(_EMPTY for _ in range(n))
            arr = np.array(rows, dtype=np.int64)
            return tuple(arr[:, i] for i in range(n))

        self._pv_dx1, self._pv_dx2, self._pv_dnet = cols(state["pv_diff"], 3)
        self._pv_cx1, self._pv_cx2, self._pv_cdev = cols(
            state["pv_channels"], 3
        )
        self._pv_d_list = [(a, b, c) for a, b, c in state["pv_d_list"]]
        self._pv_c_list = [(a, b, c) for a, b, c in state["pv_c_list"]]
        self._tn_scalar = [(a, b, c) for a, b, c in state["tn_scalar"]]
        self._tn_chunks = (
            [cols(state["tn_chunks"], 3)] if state["tn_chunks"] else []
        )
        touched = np.zeros(int(state["touched_size"]), dtype=bool)
        if state["touched"]:
            touched[np.array(state["touched"], dtype=np.int64)] = True
        self._touched = touched
        self._area_chunks = (
            [cols(state["area"], 2)] if state["area"] else []
        )
        self._gate_chunks = (
            [cols(state["gates"], 2)] if state["gates"] else []
        )
        self._loc_chunks = [cols(state["loc"], 3)] if state["loc"] else []
        self._impl_chunks = (
            [np.array(state["impl"], dtype=np.int64)]
            if state["impl"]
            else []
        )
        self._term_chunks = (
            [cols(state["terms"], 3)] if state["terms"] else []
        )
        self._dev_geo = {
            int(key): [Box(x1, y1, x2, y2) for x1, y1, x2, y2 in boxes]
            for key, boxes in state["dev_geo"]
        }
