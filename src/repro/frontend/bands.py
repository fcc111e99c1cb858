"""Banded geometry production for out-of-core streaming extraction.

The scanline only ever needs one strip of state, but the stock front-end
hands it a :class:`~repro.frontend.stream.GeometryStream` that is pulled
to exhaustion in one go.  This module splits production into y-*bands*
so the extractor can pause at band floors, retire finished state to a
spill store, and checkpoint (docs/STREAMING.md):

:class:`BandSource`
    Pulls the underlying stream band by band, issuing **exactly** the
    ``next_top()``/``fetch()`` call sequence the scanline engine would
    issue against the raw stream.  Each recorded stop also captures how
    many labels the stream had released right after ``next_top`` and
    right after ``fetch`` -- cell expansion is what releases labels, so
    these two counters pin down the label visibility the engine would
    have observed at that exact point of the sweep.  With ``prefetch``
    the pulls move to a producer thread feeding a bounded queue, the
    constant-motion idiom: the parser/instantiator runs ahead of the
    sweep by at most ``prefetch`` bands, never the whole chip.

:class:`BandFeed`
    A ``GeometryStream``-compatible facade replaying recorded bands to
    the engine.  ``labels()`` is gated to the recorded visibility
    prefix, which makes the feed *observationally identical* to the raw
    stream -- the engine cannot distinguish a banded run from an
    in-memory one, so wirelists stay byte-identical by construction.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from dataclasses import dataclass, field

from .instantiate import PlacedLabel
from .stream import GeometryStream

#: A recorded scanline stop: (top y, the ``(layer, xmin, ymin, xmax,
#: ymax)`` records fetched, labels visible after next_top, labels visible
#: after fetch).
Stop = tuple[int, list, int, int]


@dataclass
class Band:
    """One band's worth of recorded stream traffic."""

    index: int
    floor: int | None  #: stops satisfy ``y > floor``; None = final band
    stops: list[Stop] = field(default_factory=list)
    #: labels released while pulling this band (global order preserved)
    labels: list[PlacedLabel] = field(default_factory=list)


def plan_bands(
    chip_top: int | None,
    chip_bottom: int | None,
    *,
    band_height: int | None = None,
    boundaries: "list[int] | None" = None,
) -> list[int | None]:
    """Band floors, descending, ending with ``None`` (run to exhaustion).

    Either a uniform ``band_height`` below the chip top or an explicit
    descending ``boundaries`` list.  Floors never force scanline stops;
    they only mark where the sweep pauses between natural stops, so any
    floor list yields byte-identical output.
    """
    if boundaries is not None:
        floors: list[int | None] = sorted(
            {int(b) for b in boundaries}, reverse=True
        )
        floors.append(None)
        return floors
    if band_height is None or chip_top is None or chip_bottom is None:
        return [None]
    if band_height <= 0:
        raise ValueError(f"band height must be positive, got {band_height}")
    floors = []
    y = chip_top - band_height
    while y > chip_bottom:
        floors.append(y)
        y -= band_height
    floors.append(None)
    return floors


class BandSource:
    """Pulls a geometry stream in bands, recording the engine's view."""

    def __init__(
        self,
        stream: GeometryStream,
        floors: "list[int | None]",
        *,
        start: int = 0,
        prefetch: int = 0,
    ) -> None:
        self.stream = stream
        self._floors = list(floors)
        if not self._floors or self._floors[-1] is not None:
            self._floors.append(None)
        #: next band to pull; a resumed sweep starts past the bands its
        #: checkpoint already covers (the stream itself is fast-forwarded
        #: by the caller before the source is built)
        self._next = start
        #: labels already released before banding began (construction
        #: time, or the fast-forward prefix of a resumed sweep) --
        #: captured before the prefetch thread can touch the stream
        self.initial_labels: list[PlacedLabel] = list(stream._labels)
        self._label_taken = len(self.initial_labels)
        self._exhausted = False
        self._closed = False
        self._queue: "queue.Queue | None" = None
        self._thread: "threading.Thread | None" = None
        self._error: "BaseException | None" = None
        if prefetch > 0:
            self._queue = queue.Queue(maxsize=prefetch)
            self._thread = threading.Thread(
                target=self._produce, name="band-source", daemon=True
            )
            self._thread.start()

    # -- pulling -------------------------------------------------------

    def _pull_band(self) -> "Band | None":
        """Record one band of stream traffic (producer side)."""
        if self._exhausted or self._next >= len(self._floors):
            return None
        floor = self._floors[self._next]
        band = Band(index=self._next, floor=floor)
        self._next += 1
        stream = self.stream
        stops = band.stops
        while True:
            t = stream.next_top()
            if t is None:
                self._exhausted = True
                break
            if floor is not None and t <= floor:
                break
            labels_pre = len(stream._labels)
            boxes = stream.fetch(t)
            stops.append((t, boxes, labels_pre, len(stream._labels)))
        band.labels = stream._labels[self._label_taken :]
        self._label_taken = len(stream._labels)
        return band

    def _produce(self) -> None:
        assert self._queue is not None
        try:
            while True:
                band = self._pull_band()
                self._queue.put(band)
                if band is None or self._closed:
                    return
        except BaseException as exc:  # surface in the consumer thread
            self._error = exc
            self._queue.put(None)

    def next_band(self) -> "Band | None":
        """The next band, or None once the stream is exhausted."""
        if self._queue is None:
            return self._pull_band()
        band = self._queue.get()
        if band is None:
            if self._thread is not None:
                self._thread.join()
                self._thread = None
            if self._error is not None:
                raise self._error
        return band

    def close(self) -> None:
        """Release the producer thread after an abandoned sweep.

        A consumer that stops pulling mid-chip (cancellation, an error
        in the engine) would otherwise leave the producer blocked on the
        full prefetch queue forever.  Draining the queue until the
        thread observes the closed flag lets it exit; pulled-but-unused
        bands are simply dropped.
        """
        self._closed = True
        if self._thread is None:
            return
        while self._thread.is_alive():
            try:
                self._queue.get_nowait()
            except queue.Empty:
                pass
            self._thread.join(0.01)
        self._thread = None


class BandFeed:
    """Replays a :class:`BandSource` through the ``GeometryStream`` API.

    The feed holds at most the current band's unconsumed stops (plus the
    producer's bounded prefetch queue), so engine-visible memory stays
    O(band).  Label visibility follows the recorded per-stop counters:
    ``next_top`` exposes the prefix a raw stream would have released by
    that peek, ``fetch`` the prefix after consuming the stop.
    """

    def __init__(self, source: BandSource) -> None:
        self._source = source
        self._master: list[PlacedLabel] = list(source.initial_labels)
        self._visible = len(self._master)
        self._stops: "deque[Stop]" = deque()
        self._drained = False
        #: the underlying stream's counters (live object, shared)
        self.stats = source.stream.stats

    def _ensure(self) -> None:
        while not self._stops and not self._drained:
            band = self._source.next_band()
            if band is None:
                self._drained = True
                return
            self._master.extend(band.labels)
            self._stops.extend(band.stops)

    def next_top(self) -> int | None:
        self._ensure()
        if not self._stops:
            self._visible = len(self._master)
            return None
        t, _, labels_pre, _ = self._stops[0]
        self._visible = labels_pre
        return t

    def fetch(self, y: int) -> list:
        self._ensure()
        if not self._stops or self._stops[0][0] != y:
            # A pending-continuation stop: the raw stream has no boxes
            # topped here and would return [].
            return []
        _, boxes, _, labels_post = self._stops.popleft()
        self._visible = labels_post
        return boxes

    def labels(self) -> list[PlacedLabel]:
        return list(self._master[: self._visible])
