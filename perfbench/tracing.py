"""In-memory spans around public entry points, installed at run time.

A :class:`Tracer` replaces chosen functions and methods with timing
wrappers (and puts the originals back on :meth:`Tracer.uninstall`).  Each
wrapped call is one of two kinds:

- a **span** — ``(name, start_ns, end_ns, parent, folded_ns)`` appended to
  :attr:`Tracer.spans`, where ``parent`` is the index of the directly
  enclosing span (``None`` at the top, or when the direct caller is a
  folded call) and ``folded_ns`` is the time its directly nested folded
  calls took;
- a **folded** call — for functions called once per pair or per request,
  where one span per call would cost more than the work: only per-name
  ``[calls, total_ns, self_ns, items]`` are kept in :attr:`Tracer.folded`.

A layer's self time is its span minus the time its child spans cover
(:func:`span_self_ns`) minus its folded children; folded calls compute the
same quantity as they return.  Spans stay in memory and are written out by
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

_ABSENT = object()


def _merge_covered(intervals, low: int, high: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    covered = 0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            covered += end - start
            reach = end
    return covered


def span_self_ns(spans) -> list[int]:
    """Self time of every span: duration minus what its children cover.

    Children are the spans naming it as ``parent``; their intervals are
    merged (overlaps count once) and clipped to the parent's interval.  The
    span's own ``folded_ns`` (time in folded calls made directly from it)
    is subtracted too.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, folded_ns in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, folded_ns) in enumerate(spans):
        covered = _merge_covered(children.get(index, ()), start, end)
        out.append(max(0, end - start - covered - folded_ns))
    return out


class Tracer:
    """Timing wrappers with in-memory spans and folded per-name counters."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        #: finished spans (``None`` while a span is still open)
        self.spans: list = []
        #: folded call counters: name -> [calls, total_ns, self_ns, items]
        self.folded: dict[str, list[int]] = {}
        #: items counted by span wrappers: name -> count
        self.span_items: dict[str, int] = {}
        #: open calls, innermost last: [child_ns, folded_child_ns, span_index]
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- wrappers --------------------------------------------------------------

    def wrap(self, func, name: str, *, fold: bool = False, count=None):
        """A timing wrapper around ``func``.

        ``count(result)``, when given, returns how many work items (pairs,
        labels) the call handled; the totals land in ``folded[name][3]`` or
        ``span_items[name]``.
        """
        clock = self.clock
        stack = self._stack
        if fold:
            entry = self.folded.setdefault(name, [0, 0, 0, 0])

            @functools.wraps(func)
            def folded_call(*args, **kwargs):
                frame = [0, 0, None]
                stack.append(frame)
                start = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[0]
                    if stack:
                        parent = stack[-1]
                        parent[0] += elapsed
                        parent[1] += elapsed
                if count is not None:
                    entry[3] += count(result)
                return result

            return folded_call

        spans = self.spans
        items = self.span_items
        items.setdefault(name, 0)

        @functools.wraps(func)
        def span_call(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [0, 0, index]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, frame[1])
                if stack:
                    stack[-1][0] += end - start
            if count is not None:
                items[name] += count(result)
            return result

        return span_call

    def patch(self, owner, attr: str, name: str, *, fold: bool = False, count=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a wrapper.

        Static and class methods keep their binding; a method inherited
        from a base class is shadowed on ``owner`` and the shadow removed
        again on :meth:`uninstall`.
        """
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(raw.__func__, name, fold=fold, count=count))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, name, fold=fold, count=count))
        else:
            wrapped = self.wrap(raw, name, fold=fold, count=count)
        original = vars(owner).get(attr, _ABSENT)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def mark(self) -> dict:
        """A snapshot to difference against: folded counters + span count."""
        return {
            "clock_ns": self.clock(),
            "spans": len(self.spans),
            "folded": {name: list(entry) for name, entry in self.folded.items()},
            "span_items": dict(self.span_items),
        }

    def dump(self, path: str, marks: list | None = None) -> None:
        """Write spans (``null`` for one still open), folded counters and
        any marks as JSON; span indices, and so parent links, are kept."""
        payload = {
            "spans": self.spans,
            "folded": self.folded,
            "span_items": self.span_items,
            "marks": marks or [],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def window_totals(spans, before: dict, after: dict) -> dict:
    """Per-name ``{calls, total_ns, self_ns, items}`` over one window.

    ``spans`` are the spans that started inside the window, with parent
    indices relative to that list (:func:`rebase` prepares such a slice);
    folded counters and span item counts are the difference of the two
    :meth:`Tracer.mark` snapshots ``before`` and ``after``.
    """
    totals: dict[str, dict] = {}

    def row(name):
        return totals.setdefault(
            name, {"calls": 0, "total_ns": 0, "self_ns": 0, "items": 0}
        )

    for span, self_ns in zip(spans, span_self_ns(spans)):
        entry = row(span[0])
        entry["calls"] += 1
        entry["total_ns"] += span[2] - span[1]
        entry["self_ns"] += self_ns
    for name, count in after["span_items"].items():
        row(name)["items"] += count - before["span_items"].get(name, 0)
    for name, now in after["folded"].items():
        then = before["folded"].get(name, [0, 0, 0, 0])
        entry = row(name)
        entry["calls"] += now[0] - then[0]
        entry["total_ns"] += now[1] - then[1]
        entry["self_ns"] += now[2] - then[2]
        entry["items"] += now[3] - then[3]
    return totals


def rebase(spans, first: int, last: int) -> list:
    """The finished spans among ``first..last-1``, parents re-indexed.

    A parent outside the slice (a span already open when the window began)
    or one still open becomes ``None``.
    """
    position: dict[int, int] = {}
    out = []
    for index in range(first, min(last, len(spans))):
        span = spans[index]
        if span is None:
            continue
        position[index] = len(out)
        name, start, end, parent, folded_ns = span
        out.append((name, start, end, position.get(parent), folded_ns))
    return out
