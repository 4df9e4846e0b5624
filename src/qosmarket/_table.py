"""Piecewise-linear node tables and the package's CSV files.

A valuation density and a quality curve are each node positions ``xs``
(strictly ascending), node values ``ys`` and segment slopes (``slopes[i]``
holds between ``xs[i]`` and ``xs[i + 1]``), as tuples of floats.  Between
nodes the value is ``ys[i] + slopes[i] * (t - xs[i])``, the expression
``np.interp`` evaluates, so the scalar and array paths agree bit for bit;
node values come back exactly.  :func:`samples` holds the rules that both
tables' samples (and the samples of an affine fit) obey.

Every CSV file the package writes goes through :func:`write_rows`, which
prints each cell with :func:`fmt` (numbers to 12 significant digits, -0.0
as ``0``); every two-column file it reads goes through
:func:`read_columns`, which names the file in any error.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from pathlib import Path

import numpy as np

from .errors import ModelError

# how far a sample may rise above its left neighbour and still count as
# non-increasing
MONOTONE_SLACK = 1e-12


def indices(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Segment holding each ``t``: the one right of a node, the last at the top.

    Searching the interior nodes only clamps to the first and last segment.
    """
    return np.searchsorted(x[1:-1], t, side="right")


def value(xs, ys, slopes, t: float) -> float:
    """Table value at ``t`` in ``[xs[0], xs[-1]]``; NaN stays NaN."""
    i = bisect_right(xs, t) - 1
    if i < len(slopes):
        return ys[i] + slopes[i] * (t - xs[i])
    return ys[-1] if t == xs[-1] else t


def values(x: np.ndarray, y: np.ndarray, slope: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Array form of :func:`value`."""
    i = indices(x, t)
    return np.where(t == x[-1], y[-1], y[i] + slope[i] * (t - x[i]))


def one_segment(xs, t: np.ndarray) -> int | None:
    """The segment (as :func:`indices` numbers them) that holds all of a
    nonempty ascending array ``t`` within ``[xs[0], xs[-1]]``, or None when
    ``t`` reaches past an interior node."""
    last = len(xs) - 2
    i = bisect_right(xs, t[0], 1, last + 1) - 1
    return i if i == last or t[-1] < xs[i + 1] else None


def sorted_values(xs, ys, slopes, t: np.ndarray) -> np.ndarray:
    """:func:`values` of a nonempty ascending array ``t`` within
    ``[xs[0], xs[-1]]``, on the node tuples.

    Instead of searching every ``t`` among the nodes, it places the
    interior nodes among the ``t`` once.  When all of ``t`` lies on one
    segment its constants are scalars; otherwise each segment's constants
    repeat over the run of ``t`` it holds.  Each element sees the
    operations of :func:`values`, and the top node comes back exactly.
    """
    i = one_segment(xs, t)
    if i is not None:
        out = ys[i] + slopes[i] * (t - xs[i])
    else:
        ends = np.searchsorted(t, xs[1:-1])
        runs = np.diff(ends, prepend=0, append=t.size)
        x, y, slope = np.repeat(np.array((xs[:-1], ys[:-1], slopes)), runs, axis=1)
        out = np.add(y, np.multiply(slope, np.subtract(t, x, out=x), out=x), out=x)
    if t[-1] == xs[-1]:
        out[np.searchsorted(t, xs[-1]):] = ys[-1]
    return out


def frozen_arrays(*columns: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """Read-only numpy copies of table columns, for array arguments."""
    out = tuple(np.array(c, dtype=float) for c in columns)
    for arr in out:
        arr.flags.writeable = False
    return out


def samples(xs, ys, names: tuple[str, str], error=ModelError, sort=False):
    """``xs`` and ``ys`` as float arrays, checked against the rules every
    sample table shares: 1-D and of equal length, at least two samples,
    finite values and strictly ascending positions (distinct ones, put in
    ascending order, when ``sort``).  A broken rule raises ``error``, whose
    message calls the two arguments ``names``."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise error(f"{names[0]} and {names[1]} must be 1-D arrays of equal length")
    if x.size < 2:
        raise error(f"need at least two samples, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise error(f"{names[0]} and {names[1]} must be finite")
    if sort:
        order = np.argsort(x, kind="stable")
        x, y = x[order], y[order]
    if np.any(np.diff(x) <= 0.0):
        raise error(f"{names[0]} must be {'distinct' if sort else 'strictly ascending'}")
    return x, y


def read_columns(path, header: tuple[str, str], build=None):
    """Two numeric columns below ``header`` in a CSV file, as arrays, or
    what ``build`` makes of them.

    Every ModelError names the file: structural problems (bad header,
    non-numeric cells, short rows, fewer than two rows) with their 1-based
    line number, and those ``build`` raises in front of its message.
    """
    path = Path(path)
    rows: list[tuple[float, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, None)
        if head is None or [c.strip() for c in head] != list(header):
            raise ModelError(f"{path}:1: expected header '{','.join(header)}', got {head}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ModelError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError as exc:
                raise ModelError(f"{path}:{lineno}: non-numeric value in {row}") from exc
    if len(rows) < 2:
        raise ModelError(f"{path}: need at least two sample rows")
    first, second = (np.asarray(c) for c in zip(*rows))
    if build is None:
        return first, second
    try:
        return build(first, second)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from exc


def fmt(value) -> str:
    """One CSV cell or summary value: booleans as ``true``/``false``,
    integers as they are, text untouched, and any other number to 12
    significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    # adding 0.0 folds negative zero into plain zero
    return f"{float(value) + 0.0:.12g}"


def write_rows(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` as CSV, every cell through :func:`fmt`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(fmt, row) for row in rows)


def write_columns(path, header: tuple[str, str], first, second) -> None:
    """Write two numeric columns below ``header``."""
    write_rows(path, header, zip(np.asarray(first, dtype=float), np.asarray(second, dtype=float)))
