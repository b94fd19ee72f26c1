"""Brute-force validation of the HNF sublattice machinery."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jzero.forms import substitute
from jzero.lattices import SubLattice
from reference import contains, is_sublattice_of


def _brute_points(congs, box):
    pts = set()
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if all((u * x + v * y) % N == 0 for (u, v, N) in congs if N > 1):
                pts.add((x, y))
    return pts


def test_kernel_lattices_match_bruteforce():
    rng = random.Random(11)
    for _ in range(300):
        congs = [
            (
                rng.randint(-12, 12),
                rng.randint(-12, 12),
                rng.randint(2, 18),
            )
            for _ in range(rng.randint(1, 3))
        ]
        L = SubLattice.from_congruences(congs)
        box = 24
        expected = _brute_points(congs, box)
        got = {
            (x, y)
            for x in range(-box, box + 1)
            for y in range(-box, box + 1)
            if contains(L, x, y)
        }
        assert got == expected, (congs, L)


def test_index_counts_residues():
    rng = random.Random(12)
    for _ in range(100):
        congs = [(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(2, 12))]
        L = SubLattice.from_congruences(congs)
        M = L.index
        count = sum(
            1 for x in range(M) for y in range(M) if contains(L, x, y)
        )
        assert count * L.index == M * M


def test_nesting():
    L1 = SubLattice.from_congruences([(1, 1, 3)])
    L2 = SubLattice.from_congruences([(1, 1, 9)])
    assert is_sublattice_of(L2, L1)
    assert not is_sublattice_of(L1, L2)


@settings(max_examples=300, deadline=2000, database=None)
@given(
    st.tuples(*[st.integers(-30, 30)] * 3),
    st.tuples(st.integers(1, 12), st.integers(0, 11), st.integers(1, 12)),
    st.integers(1, 60),
    st.booleans(),
)
def test_transport_property(f, hnf, m, from_content):
    d1, k, d2 = hnf
    L = SubLattice(d1, k % d2, d2)
    sub = substitute(f, (L.d1, 0, L.k, L.d2))
    # a divisor of the content half the time, so both outcomes occur
    scale = math.gcd(math.gcd(*sub), m) if from_content else m
    if any(c % scale for c in sub):
        with pytest.raises(ValueError):
            L.transport(f, scale)
    else:
        assert tuple(scale * c for c in L.transport(f, scale)) == sub
