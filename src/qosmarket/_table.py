"""Piecewise-linear node tables, the one representation of both model inputs.

A valuation density and a quality curve are each node positions ``xs``
(strictly ascending), node values ``ys`` and segment slopes (``slopes[i]``
holds between ``xs[i]`` and ``xs[i + 1]``), as tuples of floats, read from
and written to two-column CSV files.  Between nodes the value is ``ys[i] +
slopes[i] * (t - xs[i])``, the expression ``np.interp`` evaluates, so the
scalar and array paths agree bit for bit; node values come back exactly.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from pathlib import Path

import numpy as np

from .errors import ModelError


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


def frozen_arrays(*columns: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """Read-only numpy copies of table columns, for array arguments."""
    out = tuple(np.array(c, dtype=float) for c in columns)
    for arr in out:
        arr.flags.writeable = False
    return out


def read_columns(path, header: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """Read two numeric columns below ``header`` from a CSV file.

    Structural problems (bad header, non-numeric cells, short rows, fewer
    than two rows) raise ModelError naming the file and 1-based line number.
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
    first, second = zip(*rows)
    return np.asarray(first), np.asarray(second)


def write_columns(path, header: tuple[str, str], first, second) -> None:
    """Write two columns below ``header``, 12 significant digits each."""
    rows = zip(np.asarray(first, dtype=float), np.asarray(second, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{a:.12g}", f"{b:.12g}"] for a, b in rows)
