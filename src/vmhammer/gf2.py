"""Bit-packed linear algebra over GF(2).

A matrix is a list of Python ints, one per row; bit i of a row is the entry
in column i. Python ints are unbounded, so any width works. ``_eliminate`` is
the one elimination and ``_reduce`` the one reduction; every caller goes
through them. Elimination is indexed by pivot: the basis is kept as a leading
bit -> vector dict plus a mask of those bits, and a vector is reduced only
by the pivots set in it, highest first, so it costs one XOR per pivot it
meets, not one step per basis vector. ``analyze`` runs elimination on rows
tagged with their indices to read off rank, inverse and a dependency;
``coset`` lists a coset of a span strictly increasing, and ``least`` reduces
vectors to the least members of their cosets.

A linear map is also given by its columns, the images of the unit vectors;
from those, ``image_tables`` translates single vectors or int64 arrays of
them, and ``span`` enumerates images of whole subspaces (the arrays within
numpy's int64), writing each doubling step in place.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["analyze", "coset", "least", "span", "image_tables", "image", "image_array"]


def analyze(rows: list[int], width: int) -> tuple[int, list[int] | None, int | None]:
    """Rank, inverse and first dependency of rows, each width bits wide.

    ``_eliminate`` is the one step. With n = len(rows), row i enters it
    tagged as row << n | 1 << i, so the low n bits of every vector name the
    input rows XORed into it, and a vector whose row part (v >> n) is zero
    names rows that XOR to zero.

    Returns (rank, inverse, dependency):
      rank        the number of basis vectors with a nonzero row part.
      inverse     when the rows form an invertible width x width matrix, the
                  inverse as row masks: bit p of inverse[c] set means input
                  row p participates in the combination producing unit
                  vector e_c (1 << (c + n) reduced by the basis, one XOR
                  per pivot met); else None.
      dependency  when the rows are linearly dependent, the least basis
                  vector with a zero row part. Its top bit is the first row
                  that is an XOR of earlier rows, and its other bits are
                  exactly those earlier rows (unique, as they are
                  independent); else None.
    """
    n = len(rows)
    lead, pivots = _eliminate([row << n | 1 << i for i, row in enumerate(rows)])
    rank = sum(1 for p in lead if p >= n)
    if rank < n:
        return rank, None, lead[min(lead)]  # least leading bit, so least vector
    if n != width:
        return rank, None, None
    return rank, [_reduce(1 << (c + n), lead, pivots) for c in range(width)], None


def coset(vectors: Sequence[int], anchor: int) -> np.ndarray:
    """Every member of anchor ^ span(vectors), once each, as a strictly
    increasing int64 array; vectors and anchor must fit in int64.

    Back-substituted, each basis vector holds its own pivot and no other,
    and the anchor reduced by the basis holds none. Two members then differ
    first at the highest pivot of the vectors that tell them apart, and the
    one holding that vector is the greater; so spanning the vectors in
    ascending pivot order lists the members ascending.
    """
    lead, pivots = _eliminate(vectors)
    ascending = [_reduce(lead[p], lead, pivots ^ (1 << p)) for p in sorted(lead)]
    out = span(ascending)
    out ^= _reduce(anchor, lead, pivots)
    return out


def least(xs: Sequence[int], vectors: Sequence[int]) -> list[int]:
    """Each x reduced to the least member of x ^ span(vectors).

    The least member is the one member holding no pivot of the basis, so the
    map is linear: least(a ^ b) = least(a) ^ least(b).
    """
    lead, pivots = _eliminate(vectors)
    return [_reduce(x, lead, pivots) for x in xs]


def _eliminate(vectors: Sequence[int]) -> tuple[dict[int, int], int]:
    """A basis of the span of vectors, as a leading bit (pivot) -> vector
    dict, and the mask of those pivots. Each vector is reduced by the basis
    so far and, if anything is left, joins it under its leading bit."""
    lead: dict[int, int] = {}
    pivots = 0
    for v in vectors:
        v = _reduce(v, lead, pivots)
        if v:
            p = v.bit_length() - 1
            lead[p] = v
            pivots |= 1 << p
    return lead, pivots


def _reduce(x: int, lead: dict[int, int], pivots: int) -> int:
    """x reduced by the basis in ``lead``: the least member of its coset.

    A basis vector touches no bit above its own leading bit, so XORing the
    one at the highest pivot set in x clears that pivot and leaves higher
    ones as they were; x ends holding no pivot, the same as
    ``x = min(x, x ^ b)`` over the basis in descending order.
    """
    hit = x & pivots
    while hit:
        x ^= lead[hit.bit_length() - 1]
        hit = x & pivots
    return x


def span(vectors: Sequence[int]) -> np.ndarray:
    """Every XOR combination of vectors, in natural index order.

    Entry i is the XOR of vectors[j] over the set bits j of i, so the result
    has 2**len(vectors) entries (with repeats when the vectors are dependent)
    and entry 0 is zero. Vectors must fit in int64.
    """
    out = np.zeros(1 << len(vectors), dtype=np.int64)
    filled = 1
    for v in vectors:
        np.bitwise_xor(out[:filled], v, out=out[filled : 2 * filled])
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
