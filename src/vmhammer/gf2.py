"""Bit-packed linear algebra over GF(2).

A matrix is a list of Python ints, one per row; bit i of a row is the entry
in column i. Python ints are unbounded, so any width works. ``reduce_basis``
is the one elimination step: ``analyze`` runs it on rows tagged with their
indices to read off rank, inverse and a dependency. A linear map is
also given by its columns, the images of the unit vectors; from those,
``image_tables`` translates single vectors or int64 arrays of them, and ``span``
enumerates images of whole subspaces (the arrays within numpy's int64).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["analyze", "reduce_basis", "span", "image_tables", "image", "image_array"]


def analyze(rows: list[int], width: int) -> tuple[int, list[int] | None, int | None]:
    """Rank, inverse and first dependency of rows, each width bits wide.

    ``reduce_basis`` is the one elimination step. With n = len(rows), row i
    enters it tagged as row << n | 1 << i, so the low n bits of every vector
    name the input rows XORed into it, and a vector whose row part (v >> n)
    is zero names rows that XOR to zero.

    Returns (rank, inverse, dependency):
      rank        the number of basis vectors with a nonzero row part.
      inverse     when the rows form an invertible width x width matrix, the
                  inverse as row masks: bit p of inverse[c] set means input
                  row p participates in the combination producing unit
                  vector e_c (1 << (c + n) reduced by the basis); else None.
      dependency  when the rows are linearly dependent, the least basis
                  vector with a zero row part. Its top bit is the first row
                  that is an XOR of earlier rows, and its other bits are
                  exactly those earlier rows (unique, as they are
                  independent); else None.
    """
    n = len(rows)
    basis = reduce_basis([row << n | 1 << i for i, row in enumerate(rows)])
    rank = sum(1 for b in basis if b >> n)
    if rank < n:
        return rank, None, min(b for b in basis if not b >> n)
    if n != width:
        return rank, None, None
    inverse = []
    for c in range(width):
        x = 1 << (c + n)
        for b in basis:
            x = min(x, x ^ b)
        inverse.append(x)
    return rank, inverse, None


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


def image_array(tables: Sequence[Sequence[int]], xs: np.ndarray) -> np.ndarray:
    """``image`` of every entry of int64 array xs, one lookup per byte. Tables
    that are int64 arrays already are used as they are, not copied."""
    out = np.zeros(len(xs), dtype=np.int64)
    for t, table in enumerate(tables):
        out ^= np.asarray(table, dtype=np.int64)[(xs >> 8 * t) & 0xFF]
    return out
