"""Outside-in spans around coldec's public layer boundaries.

`Tracer.install()` replaces each boundary in `BOUNDARIES` with a wrapper,
in its home module and in every loaded coldec module that imported it by
name, and `uninstall()` puts the originals back. A boundary that no longer
exists is listed in `absent` and skipped, so the benchmark keeps running
when the program changes shape.

While an op is open (`begin_op` .. `end_op`) each wrapped call records a
span: (span id, parent span id, op id, boundary index, start ns, end ns),
kept in memory until `write`. Self time is a span's duration minus the
durations of its direct children. The elimination kernels also count
their work; those counters depend only on the inputs, never on timing. A
kernel whose arguments no longer read as (rows, ...) is listed in
`uncounted` instead of stopping the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, qualified name) of every timed boundary, outermost layer first.
BOUNDARIES = (
    ("decoder", "decode"),
    ("code", "LinearCode.contains"),
    ("code", "LinearCode.augment"),
    ("ideals", "min_distance"),
    ("ideals", "build_ideal"),
    ("ideals", "IdealPiece.piece"),
    ("ideals", "ideal_degree"),
    ("ideals", "colon_linear_piece"),
    ("ideals", "point_from_forms"),
    ("polybasis", "multiply_by_form"),
    ("linalg", "solve"),
    ("linalg", "MatrixGF.nullspace"),
    ("linalg", "preimage_of_colspace"),
    ("kernels", "Echelon.insert"),
    ("kernels", "Echelon.reduce"),
    ("kernels", "rref_array"),
)

COUNTERS = ("calls", "rows_in", "cells_in", "rank_gained")


def metric_prefix(module: str, qualname: str) -> str:
    """Metric name stem; methods of LinearCode are named by method alone."""
    if qualname.startswith("LinearCode."):
        qualname = qualname.split(".", 1)[1]
    return f"{module}.{qualname}"


def _rows_cols(a):
    shape = np.shape(a)
    return (shape[0], shape[1]) if len(shape) == 2 else (0, 0)


def _insert_work(acc, rows, *args, **kwargs):
    r = _rows_cols(rows)[0]
    return r, r * acc.cols, acc.rank


def _reduce_work(acc, rows, *args, **kwargs):
    r = _rows_cols(rows)[0]
    return r, r * acc.cols, None


def _rref_work(a, *args, **kwargs):
    r, c = _rows_cols(a)
    return r, r * c, None


# Work counters of the elimination kernels: (rows in, cells in, rank before).
_WORK = {
    "Echelon.insert": _insert_work,
    "Echelon.reduce": _reduce_work,
    "rref_array": _rref_work,
}


def coldec_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "coldec" or name.startswith("coldec."))
    ]


class Patches:
    """Replacements of boundaries, undone in reverse order by `restore`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module: str, qualname: str, make) -> bool:
        """Swap in `make(original)` wherever coldec refers to the boundary.

        A method is replaced on its class. A function is replaced in its
        home module and in every coldec module that imported it by name.
        Returns False, changing nothing, when the boundary does not exist.
        """
        home = sys.modules.get(f"coldec.{module}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = home
        if owner is not None and owner_name:
            owner = getattr(home, owner_name, None)
        original = None if owner is None else vars(owner).get(attr)
        if original is None:
            return False
        value = make(original)
        owners = [owner] if owner_name else coldec_modules()
        for target in owners:
            for key, current in list(vars(target).items()):
                if current is original:
                    self._saved.append((target, key, current))
                    setattr(target, key, value)
        return True

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Tracer:
    """Spans, self time and work counters of the boundaries, per op."""

    def __init__(self):
        self.names = [metric_prefix(m, q) for m, q in BOUNDARIES]
        self.absent: list[str] = []
        self.uncounted: set[str] = set()  # boundaries whose work could not be read
        self.op = -1
        self.spans = array("q")
        self.self_ns = [0] * len(BOUNDARIES)
        self.counts = {c: [0] * len(BOUNDARIES) for c in COUNTERS}
        self._stack: list[int] = []  # child time accumulated per open span
        self._ids: list[int] = []
        self._next_id = 0
        self._patches = Patches()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for idx, (module, qualname) in enumerate(BOUNDARIES):
            work = _WORK.get(qualname)
            if not self._patches.replace(module, qualname, lambda fn: self._wrap(idx, fn, work)):
                self.absent.append(self.names[idx])

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, idx: int, fn, work):
        tracer = self
        self_ns = self.self_ns
        calls, rows_in, cells_in, gained = (self.counts[c] for c in COUNTERS)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            calls[idx] += 1
            before = None
            if work is not None:
                try:
                    rows, cells, before = work(*args, **kwargs)
                except (TypeError, AttributeError):  # the call's signature changed
                    tracer.uncounted.add(tracer.names[idx])
                else:
                    rows_in[idx] += rows
                    cells_in[idx] += cells
            stack, ids = tracer._stack, tracer._ids
            parent = ids[-1] if ids else -1
            sid = tracer._next_id
            tracer._next_id = sid + 1
            ids.append(sid)
            stack.append(0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()
                ids.pop()
                dur = t1 - t0
                self_ns[idx] += dur - child
                if stack:
                    stack[-1] += dur
                tracer.spans.extend((sid, parent, tracer.op, idx, t0, t1))
            if before is not None:
                try:
                    gained[idx] += int(out) - before
                except (TypeError, ValueError):  # the call no longer returns a rank
                    tracer.uncounted.add(tracer.names[idx])
            return out

        return wrapper

    # -- ops --------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        self.op = -1

    # -- results ----------------------------------------------------------

    def per_op(self, ops: int) -> dict[str, float]:
        """Counters and self milliseconds per op, by metric name."""
        out = {}
        for idx, name in enumerate(self.names):
            for c in COUNTERS:
                out[f"{name}.{c}"] = self.counts[c][idx] / ops
            out[f"{name}.self_ms"] = self.self_ns[idx] / 1e6 / ops
        return out

    def write(self, path: Path) -> None:
        """Save every span as an int64 (n, 6) array plus the boundary names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6)
        np.savez_compressed(path, spans=spans, names=np.array(self.names))
