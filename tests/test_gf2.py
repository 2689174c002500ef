"""Bit-matrix elimination, cosets and least members against an
enumerate-the-span reference and against the quadratic elimination they
replaced, kept in oracles.py."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vmhammer.gf2 import _eliminate, analyze, coset, image, image_tables, least, span

from oracles import brute_analyze, brute_reduce_basis


def brute_span(rows):
    """The span of rows as a set, by brute force: every XOR of a subset."""
    span = {0}
    for row in rows:
        span |= {s ^ row for s in span}
    return span


def span_size(rows):
    """2**rank by brute force: materialize the whole span."""
    return len(brute_span(rows))


def brute_image(columns, x):
    """Image of x under the map with the given columns: XOR of the columns
    selected by the set bits of x."""
    acc = 0
    for j, column in enumerate(columns):
        if x >> j & 1:
            acc ^= column
    return acc


def matmul(a_rows, b_rows):
    """Row-space product: row i of the result is XOR of b rows selected by a."""
    out = []
    for a in a_rows:
        acc = 0
        k = 0
        while a:
            if a & 1:
                acc ^= b_rows[k]
            a >>= 1
            k += 1
        out.append(acc)
    return out


def test_rank_known_cases():
    assert analyze([], 4)[0] == 0
    assert analyze([0b0001, 0b0010, 0b0100, 0b1000], 4)[0] == 4
    assert analyze([0b0001, 0b0001], 4)[0] == 1
    assert analyze([0b011, 0b101, 0b110], 3)[0] == 2  # third row = xor of first two
    assert analyze([0], 4)[0] == 0


def test_analyze_identity():
    rows = [1 << i for i in range(6)]
    r, inverse, dep = analyze(rows, 6)
    assert r == 6
    assert inverse == rows
    assert dep is None


def test_analyze_reports_dependency_witness():
    rows = [0b011, 0b101, 0b110]
    r, inverse, dep = analyze(rows, 3)
    assert r == 2
    assert inverse is None
    # the witness selects a subset of input rows that xors to zero
    assert dep is not None and dep != 0
    acc = 0
    for i in range(3):
        if dep >> i & 1:
            acc ^= rows[i]
    assert acc == 0


def test_dependency_is_the_first_dependent_row():
    # rows 1 and 2 both repeat row 0; the witness names row 1 and row 0
    assert analyze([0b01, 0b01, 0b01, 0b10], 2) == (2, None, 0b0011)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 6) - 1), max_size=10))
def test_dependency_matches_brute_force_subsets(rows):
    r, inverse, dep = analyze(rows, 6)
    dependent = [j for j in range(len(rows)) if span_size(rows[: j + 1]) == span_size(rows[:j])]
    first = dependent[0] if dependent else None
    if first is None:
        assert dep is None
        return
    # the earlier rows are independent, so exactly one subset of them XORs to rows[first]
    subsets = [m for m in range(1 << first) if brute_image(rows, m) == rows[first]]
    assert len(subsets) == 1
    assert dep == 1 << first | subsets[0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1), max_size=10))
def test_rank_matches_span_enumeration(rows):
    assert 2 ** analyze(rows, 8)[0] == span_size(rows)


def shuffled_invertible(rng: random.Random, width: int) -> list[int]:
    """A random invertible width x width matrix: a permuted identity mixed by
    row additions."""
    rows = [1 << i for i in range(width)]
    rng.shuffle(rows)
    for _ in range(width * 3):
        i, j = rng.randrange(width), rng.randrange(width)
        if i != j:
            rows[i] ^= rows[j]
    return rows


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_analyze_inverse_roundtrips(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 63)
    rows = shuffled_invertible(rng, width)
    r, inverse, dep = analyze(rows, width)
    assert (r, inverse, dep) == brute_analyze(rows, width)
    assert r == width and dep is None
    identity = [1 << i for i in range(width)]
    assert matmul(rows, inverse) == identity
    assert matmul(inverse, rows) == identity


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=(1 << 10) - 1), min_size=10, max_size=10
    )
)
def test_analyze_square_matrices(rows):
    r, inverse, dep = analyze(rows, 10)
    assert 2**r == span_size(rows)
    if r == 10:
        assert dep is None
        identity = [1 << i for i in range(10)]
        assert matmul(rows, inverse) == identity
    else:
        assert inverse is None
        acc = 0
        for i, row in enumerate(rows):
            if dep >> i & 1:
                acc ^= row
        assert acc == 0 and dep != 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1), max_size=10))
def test_span_is_brute_force_enumeration_in_index_order(vectors):
    out = span(vectors).tolist()
    assert out == [brute_image(vectors, i) for i in range(1 << len(vectors))]
    assert len(set(out)) == span_size(vectors)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coset_is_the_sorted_brute_coset(data):
    # a back-substituted basis spanned in ascending pivot order, XORed with
    # the reduced anchor, lists the coset ascending at every width
    width = data.draw(st.integers(min_value=1, max_value=62))
    vector = st.integers(min_value=0, max_value=(1 << width) - 1)
    vectors = data.draw(st.lists(vector, max_size=min(width, 10)))
    anchor = data.draw(vector)
    out = coset(vectors, anchor)
    assert out.dtype == np.int64 and out.ndim == 1
    assert bool(np.all(out[1:] > out[:-1]))
    assert out.tolist() == sorted({anchor ^ s for s in brute_span(vectors)})
    assert len(out) == 2 ** analyze(vectors, width)[0]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 12) - 1), max_size=12),
    st.lists(st.integers(min_value=0, max_value=(1 << 12) - 1), min_size=2, max_size=6),
)
def test_least_is_the_brute_coset_minimum_and_linear(vectors, xs):
    members = brute_span(vectors)
    assert set(coset(vectors, 0).tolist()) == members  # the elimination keeps the span
    reduced = least(xs, vectors)
    assert reduced == [min(x ^ s for s in members) for x in xs]
    # the least member is the one without a pivot bit, so reducing is linear
    assert least([xs[0] ^ xs[1], 0], vectors) == [reduced[0] ^ reduced[1], 0]
    assert least([], vectors) == []


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_image_tables_match_brute_force(data):
    width = data.draw(st.integers(min_value=0, max_value=40))
    columns = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << 62) - 1), min_size=width, max_size=width)
    )
    tables = image_tables(columns)
    assert len(tables) == (width + 7) // 8
    for x in data.draw(st.lists(st.integers(min_value=0, max_value=(1 << width) - 1), max_size=20)):
        assert image(tables, x) == brute_image(columns, x)


@st.composite
def bit_matrices(draw):
    """(rows, width) with width 1-63: sparse rows (at most three bits), dense
    rows or an invertible square matrix; square or not, possibly empty, and
    with up to three extra rows that XOR two rows already drawn (a zero row
    when both are the same)."""
    width = draw(st.integers(min_value=1, max_value=63))
    shape = draw(st.sampled_from(["sparse", "dense", "invertible"]))
    if shape == "invertible":
        rows = shuffled_invertible(random.Random(draw(st.integers(0, 2**32 - 1))), width)
    else:
        if shape == "sparse":
            row = st.sets(st.integers(0, width - 1), max_size=3).map(
                lambda bits: sum(1 << b for b in bits)
            )
        else:
            row = st.integers(min_value=0, max_value=(1 << width) - 1)
        n = draw(st.one_of(st.just(width), st.integers(min_value=0, max_value=width + 4)))
        rows = draw(st.lists(row, min_size=n, max_size=n))
    for i, j in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=3)):
        if rows:
            rows.insert(j % (len(rows) + 1), rows[i % len(rows)] ^ rows[j % len(rows)])
    return rows, width


@settings(max_examples=400, deadline=None)
@given(bit_matrices())
def test_elimination_matches_the_quadratic_oracle(matrix):
    rows, width = matrix
    lead, pivots = _eliminate(rows)
    assert sorted(lead.values(), reverse=True) == brute_reduce_basis(rows)  # same vectors
    assert all(v.bit_length() - 1 == p for p, v in lead.items())  # keyed by leading bit
    assert pivots == sum(1 << p for p in lead)
    assert analyze(rows, width) == brute_analyze(rows, width)


def test_elimination_of_no_rows():
    assert _eliminate([]) == ({}, 0) and brute_reduce_basis([]) == []
    assert analyze([], 0) == brute_analyze([], 0) == (0, [], None)
    assert analyze([], 5) == brute_analyze([], 5) == (0, None, None)
