"""Spans recorded from outside the program by wrapping its public functions.

`Tracer.wrap` and its variants replace one function at the name where its
caller looks it up (a module attribute or a class attribute), and
`Tracer.remove` puts every original back. Spans stay in memory until the
benchmark reads them. Each thread keeps its own span stack; a span opened on
an empty stack outside the main thread names the main thread's innermost
open span as its cause, so trials run by a worker pool hang under
`runner.run_plan`.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict, namedtuple
from time import perf_counter

Span = namedtuple("Span", "sid parent name thread request start end extra")

# forward bytes computed from array shapes: every operand entry read once and
# every result entry written once, 8 bytes each (float64 values, int64 indices)
_BYTES = {
    "matmul": lambda args, out: 8 * (args[0].shape[0] * args[0].shape[1]
                                     + args[1].shape[0] * args[1].shape[1]
                                     + out.data.size),
    "gather_rows": lambda args, out: 8 * (2 * out.data.size + out.shape[0]),
    "segment_sum": lambda args, out: 8 * (args[0].size + out.data.size
                                          + args[0].shape[0]),
}


class _TimedVjp:
    """A tensor's vector-Jacobian closure, timed as a backward span."""

    __slots__ = ("tracer", "vjp", "name")

    def __init__(self, tracer, vjp, name):
        self.tracer, self.vjp, self.name = tracer, vjp, name

    def __call__(self, g):
        tr = self.tracer
        st, parent, req = tr._enter()
        sid = next(tr._ids)
        st.append(sid)
        start = perf_counter()
        try:
            return self.vjp(g)
        finally:
            end = perf_counter()
            st.pop()
            tr.spans.append(Span(sid, parent, self.name, threading.get_ident(),
                                 req, start, end, None))


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = None
        self._patches = []

    # -- span stacks ----------------------------------------------------------

    def _enter(self):
        """(this thread's stack, parent span id, request id)."""
        local = self._local
        st = getattr(local, "stack", None)
        if st is None:
            st = local.stack = []
            local.request = None
            if threading.get_ident() == self._main:
                self._main_stack = st
        if st:
            parent = st[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        return st, parent, local.request

    def set_request(self, request):
        self._enter()
        self._local.request = request

    # -- wrapping -------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = vars(owner)[attr]  # only attributes the owner defines itself
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr, name, extra=None):
        """Time every call of owner.attr as a span called `name` (a string,
        or a function of the call's arguments). `extra(result)` may attach a
        count to the span."""
        fn = vars(owner)[attr]
        tracer = self

        def traced(*args, **kwargs):
            st, parent, req = tracer._enter()
            sid = next(tracer._ids)
            st.append(sid)
            start = perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                st.pop()
                label = name if isinstance(name, str) else name(args, kwargs)
                info = extra(out) if extra is not None and out is not None else None
                tracer.spans.append(Span(sid, parent, label, threading.get_ident(),
                                         req, start, end, info))

        self._patch(owner, attr, traced)

    def wrap_request(self, owner, attr, arg_index):
        """Make the given positional argument the request id of every span
        the call opens (the trial id for `runner._run_one`)."""
        fn = vars(owner)[attr]
        tracer = self

        def with_request(*args, **kwargs):
            tracer.set_request(args[arg_index])
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.set_request(None)

        self._patch(owner, attr, with_request)

    def wrap_primitive(self, module, prim):
        """Forward span `tensor.<prim>.fwd`; the returned tensor's vjp is
        timed as `tensor.<prim>.bwd`. A span's extra is 1 when the output was
        recorded on the tape, plus the computed bytes where defined."""
        fn = vars(module)[prim]
        tracer = self
        fwd_name, bwd_name = f"tensor.{prim}.fwd", f"tensor.{prim}.bwd"
        nbytes = _BYTES.get(prim)

        def traced(*args, **kwargs):
            st, parent, req = tracer._enter()
            sid = next(tracer._ids)
            st.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                vjp = out._vjp
                taped = (vjp is not None and not isinstance(vjp, _TimedVjp)
                         and not any(out is a for a in args))
                if taped:
                    out._vjp = _TimedVjp(tracer, vjp, bwd_name)
                info = (taped, nbytes(args, out) if nbytes else 0)
            finally:
                end = perf_counter()
                st.pop()
            tracer.spans.append(Span(sid, parent, fwd_name, threading.get_ident(),
                                     req, start, end, info))
            return out

        self._patch(module, prim, traced)

    def remove(self):
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval that its child
    spans cover. Children in the span's own thread nest and never overlap;
    children in other threads may, so their cover is an interval union."""
    by_id = {s.sid: s for s in spans}
    nested = defaultdict(float)
    crossing = set()
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and p.thread != s.thread:
            crossing.add(p.sid)
    intervals = defaultdict(list)
    for s in spans:
        if s.parent not in by_id:
            continue
        if s.parent in crossing:
            intervals[s.parent].append((s.start, s.end))
        else:
            nested[s.parent] += s.end - s.start
    out = {}
    for s in spans:
        covered = nested.get(s.sid, 0.0)
        if s.sid in intervals:
            covered = _union_length(intervals[s.sid], s.start, s.end)
        out[s.sid] = (s.end - s.start) - covered
    return out
