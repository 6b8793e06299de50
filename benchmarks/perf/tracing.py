"""Outside-in span tracing for the perf harness.

The benchmark may not edit the program, so every layer is observed from
the harness's own files: a :class:`Tracer` replaces a public function or
method (class- or module-level) with a timing wrapper for the length of
one traced instance and puts the original back afterwards.

Span model (the choosing-metrics guide's): every span has a name, a start
and an end on ``perf_counter``, the index of the span that caused it
(``-1`` for a root) and the repetition id shared by all spans of one timed
repetition (``None`` during set-up).  A span's *self time* is its
duration minus the part its direct children cover, so the self times of
all spans under a root sum to the root's duration exactly; whatever the
root itself keeps is the harness's ``bench.unattributed_share``.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer", "aggregate"]

#: (name, start, end, parent index, repetition id, self seconds)
Span = Tuple[str, float, float, int, Optional[int], float]

_MISSING = object()


class Tracer:
    """In-memory span recorder plus the wrap/restore bookkeeping."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        #: Open spans, innermost last: ``[span index, child seconds]``.
        self._stack: List[list] = []
        #: Repetition id stamped on spans opened from now on.
        self.rep: Optional[int] = None
        #: ``(owner, attribute, original or _MISSING)`` for :meth:`restore`.
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self) -> Tuple[int, list]:
        idx = len(self.spans)
        self.spans.append(None)  # reserve the slot: parents index before children
        frame = [idx, 0.0]
        self._stack.append(frame)
        return idx, frame

    def _close(self, name: str, idx: int, frame: list, t0: float, t1: float) -> float:
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        if stack:
            parent = stack[-1]
            parent[1] += dur
            pidx = parent[0]
        else:
            pidx = -1
        self.spans[idx] = (name, t0, t1, pidx, self.rep, dur - frame[1])
        return dur

    def begin(self, name: str) -> tuple:
        """Open a span; hand the result to :meth:`end` to close it.  Spans
        must be closed innermost first."""
        idx, frame = self._open()
        return name, idx, frame, perf_counter()

    def end(self, handle: tuple) -> None:
        name, idx, frame, t0 = handle
        self._close(name, idx, frame, t0, perf_counter())

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        handle = self.begin(name)
        try:
            yield
        finally:
            self.end(handle)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_exit: Optional[Callable[[Any, float, tuple], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class, a module or an instance.  ``on_exit(result,
        seconds, args)`` runs after the span closes (outside it), for
        boundaries whose result carries a count worth keeping.
        """
        original = vars(owner).get(attr, _MISSING)
        # On a class this is the plain function, so the wrapper binds
        # like the method it replaces; on an instance, the bound method.
        fn = getattr(owner, attr)
        _open, _close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx, frame = _open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _close(name, idx, frame, t0, perf_counter())
            if on_exit is not None:
                on_exit(result, dur, args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back exactly as it was found: an
        attribute the owner only inherited is deleted, not re-assigned."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def closed_spans(self) -> List[Span]:
        return [s for s in self.spans if s is not None]


def aggregate(spans: List[Span], timed_only: bool = False) -> Dict[str, Dict[str, float]]:
    """Per-name ``calls`` / ``self_s`` / ``total_s`` over ``spans``.

    ``timed_only`` keeps the spans stamped with a repetition id, i.e. the
    ones opened inside a timed region.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name, t0, t1, _parent, rep, self_s in spans:
        if timed_only and rep is None:
            continue
        agg = out.get(name)
        if agg is None:
            agg = out[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        agg["calls"] += 1
        agg["self_s"] += self_s
        agg["total_s"] += t1 - t0
    return out
