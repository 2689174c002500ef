"""Bit-packed linear algebra over GF(2).

A matrix is a list of Python ints, one per row; bit i of a row is the entry
in column i. Python ints are unbounded, so any width works. A linear map is
also given by its columns, the images of the unit vectors; from those,
``image_tables`` translates single vectors or int64 arrays of them, and ``span``
enumerates images of whole subspaces (the arrays within numpy's int64).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["analyze", "reduce_basis", "span", "image_tables", "image", "image_array"]


def analyze(rows: list[int], width: int) -> tuple[int, list[int] | None, int | None]:
    """Gauss-Jordan elimination with row tracking.

    Returns (rank, inverse, dependency):
      inverse     when the rows form an invertible width x width matrix, the
                  inverse as row masks: bit p of inverse[c] set means input
                  row p participates in the combination producing unit
                  vector e_c; else None.
      dependency  when the rows are linearly dependent, a mask over input row
                  indices whose rows XOR to zero; else None.
    """
    n = len(rows)
    work = list(rows)
    combo = [1 << i for i in range(n)]  # combo[i] tracks which inputs sum into work[i]
    pivot_row_of_col: dict[int, int] = {}
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, n) if (work[i] >> col) & 1), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        combo[r], combo[piv] = combo[piv], combo[r]
        for i in range(n):
            if i != r and (work[i] >> col) & 1:
                work[i] ^= work[r]
                combo[i] ^= combo[r]
        pivot_row_of_col[col] = r
        r += 1
        if r == n:
            break
    if r < n:
        dep = next(combo[i] for i in range(n) if work[i] == 0)
        return r, None, dep
    if n != width:
        return r, None, None
    inverse = [combo[pivot_row_of_col[c]] for c in range(width)]
    return r, inverse, None


def reduce_basis(vectors: list[int]) -> list[int]:
    """A basis of the span of vectors: linearly independent, same span.

    The basis is in descending order with distinct leading bits, so reducing
    any x by each element in turn (x = min(x, x ^ b)) leaves the least member
    of x's coset.
    """
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def span(vectors: Sequence[int]) -> np.ndarray:
    """Every XOR combination of vectors, in natural index order.

    Entry i is the XOR of vectors[j] over the set bits j of i, so the result
    has 2**len(vectors) entries (with repeats when the vectors are dependent)
    and entry 0 is zero. Vectors must fit in int64.
    """
    out = np.zeros(1 << len(vectors), dtype=np.int64)
    filled = 1
    for v in vectors:
        out[filled : 2 * filled] = out[:filled] ^ v
        filled *= 2
    return out


def image_tables(columns: Sequence[int]) -> tuple[list[int], ...]:
    """Per-byte lookup tables of the linear map whose columns are given.

    columns[j] is the image of the unit vector e_j. Table t holds, for every
    byte value b, the image of b << 8t; ``image`` XORs one entry per byte.
    """
    return tuple(span(columns[lo : lo + 8]).tolist() for lo in range(0, len(columns), 8))


def image(tables: tuple[list[int], ...], x: int) -> int:
    """Image of x under the map ``image_tables`` built; x must fit its width."""
    out = 0
    for table in tables:
        out ^= table[x & 0xFF]
        x >>= 8
    return out


def image_array(tables: tuple[list[int], ...], xs: Sequence[int]) -> np.ndarray:
    """``image`` of every entry of xs, as an int64 array, one lookup per byte."""
    xs = np.asarray(xs, dtype=np.int64)
    out = np.zeros(len(xs), dtype=np.int64)
    for t, table in enumerate(tables):
        out ^= np.array(table, dtype=np.int64)[(xs >> 8 * t) & 0xFF]
    return out
