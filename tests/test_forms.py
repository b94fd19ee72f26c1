"""Unit and property tests for exact form arithmetic."""

import ast
import dataclasses
import importlib
import itertools
import math
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jzero import forms
from jzero.classes import reduced_forms
from jzero.families import family_coefficients, lattice_Lfa
from jzero.forms import (
    _divisors,
    _exact_sqrt,
    _factor_witness,
    _mignotte_bound,
    _quadratic_split,
    IDENTITY,
    QuadraticForm,
    QuarticForm,
    SplittingType,
    Unimodular,
    act_quadratic,
    act_quartic,
    hessian,
    hessian_sqrt,
    invariants,
    irreducible_mod_p,
    irreducible_rows,
    is_irreducible_Q,
    prime_factorization,
    quadratic_product,
    quartic_factorization,
    splitting_type,
    substitute,
    unimodular_completion,
)
from jzero.reducible import ReducibleKind, classify
from reference import act_quartic_by_products, brute_quartics_both_signs, hessian_sqrt_by_forms

X4_PLUS_Y4 = QuarticForm(1, 0, 0, 0, 1)
BIQUAD = QuarticForm(1, 0, -6, 0, 1)  # x^4 - 6x^2y^2 + y^4
X3Y = QuarticForm(0, 1, 0, 0, 0)


def test_invariants_examples():
    assert invariants(X4_PLUS_Y4) == pytest.approx_triple if False else True
    t = invariants(X4_PLUS_Y4)
    assert (t.I, t.J, t.disc) == (12, 0, 256)
    t = invariants(BIQUAD)
    assert (t.I, t.J, t.disc) == (48, 0, 16384)
    t = invariants(X3Y)
    assert (t.I, t.J, t.disc) == (0, 0, 0)


def test_disc_identity_random():
    rng = random.Random(1)
    for _ in range(2000):
        F = QuarticForm(*(rng.randint(-50, 50) for _ in range(5)))
        t = invariants(F)
        assert 27 * t.disc == 4 * t.I**3 - t.J**2


def test_hessian_examples():
    assert hessian(X4_PLUS_Y4) == QuarticForm(0, 0, -48, 0, 0)
    assert hessian(BIQUAD) == QuarticForm(48, 0, 96, 0, 48)
    assert hessian(QuarticForm(0, 0, 1, 0, 0)) == QuarticForm(0, 0, 4, 0, 0)


def test_hessian_sqrt_examples():
    assert hessian_sqrt(BIQUAD) == (QuadraticForm(1, 0, 1), 48)
    assert hessian_sqrt(X4_PLUS_Y4) == (QuadraticForm(0, 1, 0), -48)
    # J = -27 here, so no square root up to scale
    assert invariants(QuarticForm(1, 1, 0, 0, 1)).J == -27
    assert hessian_sqrt(QuarticForm(1, 1, 0, 0, 1)) is None


def test_hessian_sqrt_iff_j_zero_random():
    rng = random.Random(2)
    for _ in range(3000):
        F = QuarticForm(*(rng.randint(-30, 30) for _ in range(5)))
        if F.is_zero():
            continue
        res = hessian_sqrt(F)
        if hessian(F).is_zero():
            continue  # outside the contract (disc = 0 territory)
        assert (res is not None) == (invariants(F).J == 0)
        if res is not None:
            f, c = res
            sq = [
                f.a * f.a,
                2 * f.a * f.b,
                2 * f.a * f.c + f.b * f.b,
                2 * f.b * f.c,
                f.c * f.c,
            ]
            assert [c * s for s in sq] == list(hessian(F).coeffs())
            assert f.is_primitive()


def _random_unimodular(rng, size=8):
    # random product of elementary matrices keeps entries modest
    T = IDENTITY
    for _ in range(rng.randint(1, 5)):
        k = rng.randint(-size, size)
        if rng.random() < 0.5:
            T = T.mul(Unimodular(1, k, 0, 1))
        else:
            T = T.mul(Unimodular(1, 0, k, 1))
        if rng.random() < 0.3:
            T = T.mul(Unimodular(0, -1, 1, 0))
        if rng.random() < 0.2:
            T = T.mul(Unimodular(1, 0, 0, -1))
    return T


def test_action_examples():
    assert act_quartic(X4_PLUS_Y4, Unimodular(1, 1, 0, 1)) == QuarticForm(1, 4, 6, 4, 2)
    assert act_quartic(BIQUAD, IDENTITY) == BIQUAD
    f = QuadraticForm(1, 0, 1)
    assert act_quadratic(f, Unimodular(0, 1, 1, 0)) == f


def test_action_invariance_and_group_law():
    rng = random.Random(3)
    for _ in range(1500):
        F = QuarticForm(*(rng.randint(-1000, 1000) for _ in range(5)))
        T = _random_unimodular(rng)
        S = _random_unimodular(rng)
        t0, t1 = invariants(F), invariants(act_quartic(F, T))
        assert (t0.I, t0.J, t0.disc) == (t1.I, t1.J, t1.disc)
        assert act_quartic(act_quartic(F, T), S) == act_quartic(F, T.mul(S))
        f = QuadraticForm(*(rng.randint(-100, 100) for _ in range(3)))
        assert act_quadratic(f, T).disc() == f.disc()
        assert act_quadratic(act_quadratic(f, T), S) == act_quadratic(f, T.mul(S))


_QUADRATIC = st.tuples(*[st.integers(-50, 50)] * 3)
_POINT = st.tuples(st.integers(-20, 20), st.integers(-20, 20))


@settings(max_examples=300, deadline=2000, database=None)
@given(_QUADRATIC, st.tuples(*[st.integers(-9, 9)] * 4), _POINT)
def test_substitute_property(f, t, pt):
    # any integer matrix, singular ones included
    t1, t2, t3, t4 = t
    x, y = pt
    g = QuadraticForm(*substitute(f, t))
    f = QuadraticForm(*f)
    assert g.value(x, y) == f.value(t1 * x + t2 * y, t3 * x + t4 * y)
    assert g.disc() == (t1 * t4 - t2 * t3) ** 2 * f.disc()


@settings(max_examples=300, deadline=2000, database=None)
@given(_QUADRATIC, _QUADRATIC, _POINT)
def test_quadratic_product_property(g, h, pt):
    gh = QuarticForm(*quadratic_product(g, h))
    assert gh.value(*pt) == QuadraticForm(*g).value(*pt) * QuadraticForm(*h).value(*pt)


def test_hessian_covariance():
    rng = random.Random(4)
    for _ in range(1500):
        F = QuarticForm(*(rng.randint(-200, 200) for _ in range(5)))
        T = _random_unimodular(rng)
        assert hessian(act_quartic(F, T)) == act_quartic(hessian(F), T)


# unimodular matrices with large entries: products of shears by up to 10^6,
# with the swap and the reflection mixed in
_STEP = st.tuples(st.booleans(), st.integers(-(10**6), 10**6), st.booleans(), st.booleans())


def _unimodular_from(steps):
    T = IDENTITY
    for lower, k, swap, flip in steps:
        T = T.mul(Unimodular(1, 0, k, 1) if lower else Unimodular(1, k, 0, 1))
        if swap:
            T = T.mul(Unimodular(0, -1, 1, 0))
        if flip:
            T = T.mul(Unimodular(1, 0, 0, -1))
    return T


@settings(max_examples=300, deadline=2000, database=None)
@given(st.tuples(*[st.integers(-(10**15), 10**15)] * 5), st.lists(_STEP, min_size=1, max_size=4))
def test_act_quartic_matches_products_property(coeffs, steps):
    F, T = QuarticForm(*coeffs), _unimodular_from(steps)
    assert act_quartic(F, T) == act_quartic_by_products(F, T)


_J0_BOX = brute_quartics_both_signs(4)


@settings(max_examples=300, deadline=2000, database=None)
@given(st.tuples(*[st.integers(-40, 40)] * 5))
def test_hessian_sqrt_matches_reference_on_random_quartics(coeffs):
    # almost every draw has J != 0, so both sides return None
    F = QuarticForm(*coeffs)
    assert hessian_sqrt(F) == hessian_sqrt_by_forms(F)


@settings(max_examples=300, deadline=2000, database=None)
@given(st.sampled_from(_J0_BOX), st.lists(_STEP, min_size=1, max_size=3))
def test_hessian_sqrt_matches_reference_on_j_zero_quartics(F, steps):
    G = act_quartic(F, _unimodular_from(steps))
    assert invariants(G).J == 0
    got = hessian_sqrt(G)
    assert got is not None and got == hessian_sqrt_by_forms(G)


@settings(max_examples=200, deadline=2000, database=None)
@given(st.integers(-(10**6), 10**6), st.integers(-50, 50), st.integers(-50, 50))
def test_hessian_sqrt_matches_reference_on_zero_hessians(k, p, q):
    # every k (p x + q y)^4 has a zero Hessian
    F = QuarticForm(k * p**4, 4 * k * p**3 * q, 6 * k * p * p * q * q, 4 * k * p * q**3, k * q**4)
    assert hessian(F).is_zero()
    assert hessian_sqrt(F) is None and hessian_sqrt_by_forms(F) is None


def test_non_unimodular_rejected():
    with pytest.raises(ValueError):
        Unimodular(2, 0, 0, 1)


def test_unimodular_completion():
    for x in range(-12, 13):
        for y in range(-12, 13):
            if math.gcd(x, y) == 1:
                T = unimodular_completion(x, y)
                assert (T.t1, T.t3, T.det()) == (x, y, 1), (x, y)


def test_prime_factorization():
    assert prime_factorization(1) == []
    assert prime_factorization(360) == [(2, 3), (3, 2), (5, 1)]
    for n in range(1, 3000):
        fac = prime_factorization(n)
        assert math.prod(p**e for p, e in fac) == n
        assert all(sympy.isprime(p) and e > 0 for p, e in fac), n
        assert [p for p, _ in fac] == sorted({p for p, _ in fac}), n


def test_splitting_type_examples():
    assert splitting_type(BIQUAD) is SplittingType.S1111
    assert splitting_type(X4_PLUS_Y4) is SplittingType.S22
    assert splitting_type(QuarticForm(1, 0, 0, 0, -1)) is SplittingType.S112
    assert splitting_type(X3Y) is SplittingType.DEGENERATE


def test_splitting_type_act_invariant():
    rng = random.Random(5)
    for _ in range(400):
        F = QuarticForm(*(rng.randint(-20, 20) for _ in range(5)))
        if F.is_zero():
            continue
        T = _random_unimodular(rng)
        assert splitting_type(F) is splitting_type(act_quartic(F, T))


def test_splitting_type_matches_sympy():
    # sympy counts the distinct real roots of F(t, 1); a4 = 0 adds the
    # projective root at infinity (the factor y)
    t = sympy.Symbol("t")
    by_roots = {4: SplittingType.S1111, 2: SplittingType.S112, 0: SplittingType.S22}
    rng = random.Random(16)
    small = itertools.product(range(-2, 3), repeat=5)
    big = [[rng.randint(-(10**6), 10**6) for _ in range(5)] for _ in range(200)]
    for c in big[::5]:
        c[0] = 0
    checked = with_a4_zero = 0
    seen = set()
    for c in itertools.chain(small, big):
        F = QuarticForm(*c)
        if F.is_zero() or invariants(F).disc == 0:
            continue
        a4, a3, a2, a1, a0 = c
        poly = sympy.Poly(a4 * t**4 + a3 * t**3 + a2 * t**2 + a1 * t + a0, t)
        roots = poly.sqf_part().count_roots() + (a4 == 0)
        assert splitting_type(F) is by_roots[roots], (c, roots)
        seen.add(by_roots[roots])
        checked += 1
        with_a4_zero += a4 == 0
    assert checked == 2824 + 200 and with_a4_zero > 300
    assert seen == set(by_roots.values())


def test_irreducibility_examples():
    # NOTE: x^4 - 6x^2y^2 + y^4 = (x^2-2xy-y^2)(x^2+2xy-y^2); its roots
    # +-1+-sqrt(2) pair into rational quadratics, so it is reducible.
    assert not is_irreducible_Q(BIQUAD)
    fac = quartic_factorization(BIQUAD)
    assert sorted(q.coeffs() for q in fac.quadratics) == [(1, -2, -1), (1, 2, -1)]
    # t = 1 is a root here
    assert not is_irreducible_Q(QuarticForm(1, 4, 0, -4, -1))
    assert not is_irreducible_Q(QuarticForm(1, 0, 0, 0, -1))
    assert is_irreducible_Q(X4_PLUS_Y4)
    assert is_irreducible_Q(QuarticForm(1, 1, -6, -1, 1))


def _exhaustive_quadratic_divisor(F, bound):
    """Independent oracle: scan every linear and quadratic candidate divisor
    with coefficients <= bound."""
    coeffs = list(F.coeffs())
    for s in range(0, bound + 1):
        for r in range(-bound, bound + 1):
            if (s, r) == (0, 0) or math.gcd(s, abs(r)) != 1 or (s == 0 and r != -1):
                continue
            vals = [
                sum(c * x ** (4 - i) * y**i for i, c in enumerate(coeffs))
                for x, y in ((r, s), (r + 1, s + 7), (r - 3, s + 11))
            ]
            if s == 0:
                vals = [coeffs[0]]  # y | F iff the x^4 coefficient vanishes
            if all(v == 0 for v in vals) or (s != 0 and vals[0] == 0):
                # (sx - ry) divides iff (r : s) is a root
                if s != 0 and vals[0] == 0:
                    return ("linear", s, r)
                if s == 0 and coeffs[0] == 0:
                    return ("linear", 0, -1)
    for a in range(0, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if a == 0 and (b, c) <= (0, 0):
                    continue
                if math.gcd(math.gcd(a, abs(b)), abs(c)) != 1:
                    continue
                if _divides_quartic(coeffs, (a, b, c)):
                    return (a, b, c)
    return None


def _divides_quartic(f, q):
    a, b, c = q
    rem = list(f)
    g = [0, 0, 0]
    if a != 0:
        for i in range(3):
            if rem[i] % a:
                return False
            g[i] = rem[i] // a
            rem[i] -= a * g[i]
            rem[i + 1] -= b * g[i]
            rem[i + 2] -= c * g[i]
        return rem[3] == 0 and rem[4] == 0
    # a == 0: divisor b xy + c y^2 = y(bx + cy); need y | F and then bx+cy | F/y
    if f[0] != 0:
        return False
    cubic = f[:4] if f[0] == 0 else None
    rem = list(f[1:])  # F/y has x-descending coefficients f[1:]
    if b == 0:
        return f[0] == 0 and f[1] == 0  # need y^2 | F
    for i in range(3):
        if rem[i] % b:
            return False
        gi = rem[i] // b
        rem[i] -= b * gi
        rem[i + 1] -= c * gi
    return rem[3] == 0


def test_irreducibility_vs_exhaustive_oracle():
    rng = random.Random(6)
    checked = 0
    for _ in range(300):
        F = QuarticForm(*(rng.randint(-3, 3) for _ in range(5)))
        if F.is_zero() or F.a4 == 0:
            continue
        bound = 30  # far above the Mignotte bound for coefficients <= 3
        div = _exhaustive_quadratic_divisor(F.primitive_part(), bound)
        assert is_irreducible_Q(F) == (div is None), (F, div)
        checked += 1
    assert checked > 150


def test_zero_end_coefficient_is_reducible():
    # the a4 * a0 = 0 shortcut against full factorization on the J = 0 box
    edge = [F for F in brute_quartics_both_signs(12) if F.a4 * F.a0 == 0]
    assert len(edge) > 1000
    for F in edge:
        assert is_irreducible_Q(F) == quartic_factorization(F).is_irreducible(), F


def test_factorization_reassembles():
    rng = random.Random(7)
    for _ in range(400):
        F = QuarticForm(*(rng.randint(-12, 12) for _ in range(5)))
        if F.is_zero():
            continue
        fac = quartic_factorization(F)
        prod = [fac.content]
        for lf in fac.linears:
            prod = _mul(prod, [lf.s, -lf.r])
        for q in fac.quadratics:
            prod = _mul(prod, list(q.coeffs()))
        if fac.cubic is not None:
            prod = _mul(prod, list(fac.cubic))
        if fac.quartic is not None:
            prod = _mul(prod, list(fac.quartic.coeffs()))
        prod += [0] * (5 - len(prod))
        assert prod == list(F.coeffs()), (F, fac)


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def test_disc_matches_sympy_discriminant():
    # the certificate's Legendre test reads disc(F) as the discriminant of F(x, 1)
    x = sympy.Symbol("x")
    rng = random.Random(8)
    for _ in range(200):
        a4 = rng.choice([-1, 1]) * rng.randint(1, 40)
        F = QuarticForm(a4, *(rng.randint(-40, 40) for _ in range(4)))
        poly = sum(c * x ** (4 - i) for i, c in enumerate(F.coeffs()))
        assert invariants(F).disc == sympy.discriminant(poly, x), F


def test_certificate_implies_irreducible():
    rng = random.Random(9)
    certified = 0
    for _ in range(3000):
        F = QuarticForm(*(rng.randint(-60, 60) for _ in range(5)))
        if F.is_zero():
            continue
        p = irreducible_mod_p(F)
        if p is not None:
            certified += 1
            assert quartic_factorization(F).is_irreducible(), (F, p)
            assert F.a4 % p and invariants(F).disc % p
    assert certified > 1500


def test_square_disc_irreducible_falls_back():
    # x^4 + y^4 has Galois group V4 and disc 256 = 16^2: no prime certifies it
    assert invariants(X4_PLUS_Y4).disc == 256
    assert irreducible_mod_p(X4_PLUS_Y4) is None
    assert is_irreducible_Q(X4_PLUS_Y4)


def test_irreducible_rows_match_the_scalar_decision():
    box = brute_quartics_both_signs(8)
    got = irreducible_rows([F.coeffs() for F in box])
    assert got.dtype == bool and got.tolist() == [is_irreducible_Q(F) for F in box]
    assert 0 < got.sum() < len(box)


def test_irreducible_rows_edge_rows(monkeypatch):
    square = QuarticForm(*quadratic_product((1, 1, 1), (1, 1, 1)))  # (x^2 + xy + y^2)^2
    split = QuarticForm(*quadratic_product((5, -1, 3), (-12, -1, -5)))
    rows = [
        QuarticForm(0, 1, 2, 3, 4),  # a4 = 0
        QuarticForm(5, 0, 1, 2, 0),  # a0 = 0
        X4_PLUS_Y4,  # disc 256 = 16^2, irreducible
        QuarticForm(-12, 0, 0, 0, -12),  # J = 0 and 3I = 36^2, irreducible
        QuarticForm(-12, 0, 0, 0, -3),  # J = 0 and 3I = 18^2, reducible
        # disc not a square, and each prime divides a4 or fails the test
        QuarticForm(-3, -3, -1, -2, -5),  # irreducible
        QuarticForm(-12, -12, 0, -12, 12),  # reducible
        # no rational root, and every split (s, r) has det = s a0/r - a4 r/s = 0
        square,
        square.neg(),
        # no rational root, and the split (5, -1, 3)(-12, -1, -5) has det = 11
        split,
        # irreducible, where a det = 0 pair, or an inexact quotient, solves
        # the x^2 y^2 equation of the split test
        QuarticForm(-28, -56, -28, -57, -28),
        QuarticForm(7, 7, -13, 24, -14),
        QuarticForm(60, -60, 60, -60, 59),  # at the coefficient bound
    ]
    assert square.coeffs() == (1, 2, 3, 2, 1) and split.coeffs() == (-60, 7, -60, 2, -15)
    for F in rows[3:5]:
        assert invariants(F).J == 0 and _exact_sqrt(3 * invariants(F).I) is not None
    for F in rows[5:7]:
        assert _exact_sqrt(invariants(F).disc) is None and irreducible_mod_p(F) is None
    for F in rows[7:10]:
        assert not quartic_factorization(F).linears and len(quartic_factorization(F).quadratics) == 2
    want = [is_irreducible_Q(F) for F in rows]
    assert want[:12] == [False, False, True, True, False, True, False, False, False, False, True, True]
    # the witness alone, on the rows with a4 a0 != 0, certified ones too;
    # -12 x^4 - 3 y^4 = -3 (2, -2, 1)(2, 2, 1) has det = 0 at every split
    witnessed = _factor_witness(np.array([F.coeffs() for F in rows[2:]], dtype=np.int64))
    assert witnessed.tolist() == [False, False, False, False, True, False, False, True, False, False, False]
    factored = []

    def spy(F):
        factored.append(F)
        return quartic_factorization(F)

    monkeypatch.setattr(forms, "quartic_factorization", spy)
    assert irreducible_rows([F.coeffs() for F in rows]).tolist() == want
    assert irreducible_rows([]).tolist() == []
    # the witness settles the split; the square and its negation are left
    # to factoring, with the irreducible rows no prime certifies
    assert square in factored and square.neg() in factored and split not in factored


def _times(p, q):
    """The coefficients of the product of two binary forms, x-degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _in_row_bound(row):
    return any(row) and max(map(abs, row)) <= 60


_SMALL = st.integers(-8, 8)
_FACTOR_PAIRS = st.one_of(
    st.tuples(st.tuples(_SMALL, _SMALL), st.tuples(*[_SMALL] * 4)),  # linear x cubic
    st.tuples(st.tuples(*[_SMALL] * 3), st.tuples(*[_SMALL] * 3)),  # quadratic x quadratic
    st.tuples(st.tuples(*[st.integers(-60, 60)] * 5), st.just((1,))),  # a random row
).filter(lambda pq: _in_row_bound(_times(*pq)))


@settings(max_examples=200, deadline=5000, database=None)
@given(st.lists(_FACTOR_PAIRS, min_size=1, max_size=40))
def test_irreducible_rows_match_the_scalar_decision_on_products(pairs):
    # rows p q, each |a_i| <= 60: the row decision is the scalar one, and
    # on the rows with a4 a0 != 0 the witness alone (before any
    # certificate) marks only reducible rows, finds every linear factor and
    # every quadratic one whose split (s, r) = (p2, p0), (c2, c0) = (q2, q0)
    # has det = s c0 - c2 r != 0 (negating both factors keeps det)
    rows = [_times(p, q) for p, q in pairs]
    want = [is_irreducible_Q(QuarticForm(*row)) for row in rows]
    assert irreducible_rows(rows).tolist() == want
    outer = [i for i, row in enumerate(rows) if row[0] * row[4]]
    witnessed = _factor_witness(np.array([rows[i] for i in outer], dtype=np.int64).reshape(-1, 5))
    for i, w in zip(outer, witnessed):
        p, q = pairs[i]
        assert not (w and want[i]), rows[i]
        assert w or len(p) != 2, rows[i]
        assert w or len(p) != 3 or p[0] * q[2] == q[0] * p[2], rows[i]


@pytest.mark.parametrize(
    "rows",
    [
        [(0, 0, 0, 0, 0)],
        [(1, 0, 0, 0, 1), (0, 0, 0, 0, 0)],
        [(61, 0, 0, 0, 1)],
        [(1, 0, 0, 0, -61)],
        [(1, 0, 0, 0, 10**30)],
    ],
)
def test_irreducible_rows_reject_zero_rows_and_large_coefficients(rows):
    with pytest.raises(ValueError):
        irreducible_rows(rows)


def test_type2_reducible_family_point():
    # a Type 2 member of the family of x^2 + xy + y^2 with non-square disc
    f = QuadraticForm(1, 1, 1)
    F = QuarticForm(*family_coefficients(f, -8, -20))
    assert F == QuarticForm(-8, -20, 18, 32, 5)
    assert classify(F, f).kind is ReducibleKind.TYPE2
    assert invariants(F).disc == 813189888
    assert irreducible_mod_p(F) is None
    assert not is_irreducible_Q(F)
    assert len(quartic_factorization(F).quadratics) == 2


def _split_by_scan(p, bound):
    """_quadratic_split as it was before the closed form: its det == 0
    branch scans b1 over [-bound, bound]."""
    A4, A3, A2, A1, A0 = p
    for b2 in _divisors(A4):
        c2 = A4 // b2
        for b0a in _divisors(A0):
            for b0 in (b0a, -b0a):
                if A0 % b0 != 0:
                    continue
                c0 = A0 // b0
                det = b2 * c0 - c2 * b0
                if det != 0:
                    num_b1 = b2 * A1 - b0 * A3
                    num_c1 = c0 * A3 - c2 * A1
                    if num_b1 % det or num_c1 % det:
                        continue
                    b1, c1 = num_b1 // det, num_c1 // det
                    if b2 * c0 + b1 * c1 + b0 * c2 == A2:
                        return QuadraticForm(b2, b1, b0), QuadraticForm(c2, c1, c0)
                else:
                    for b1 in range(-bound, bound + 1):
                        rem = A3 - c2 * b1
                        if rem % b2:
                            continue
                        c1 = rem // b2
                        if b2 * c0 + b1 * c1 + b0 * c2 == A2 and b0 * c1 + c0 * b1 == A1:
                            return QuadraticForm(b2, b1, b0), QuadraticForm(c2, c1, c0)
    return None


def _split_input(coeffs):
    F = QuarticForm(*coeffs).primitive_part()
    p = list(F.coeffs()) if F.a4 > 0 else [-c for c in F.coeffs()]
    return p, _mignotte_bound(p)


def test_quadratic_split_matches_scan():
    rng = random.Random(91)
    inputs = []
    # products with b2*c0 = c2*b0, which only the det == 0 branch can split
    for _ in range(400):
        a, c = rng.randint(1, 9), rng.choice([-1, 1]) * rng.randint(1, 9)
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        g = (m * a, rng.randint(-15, 15), m * c)
        h = (n * a, rng.randint(-15, 15), n * c)
        inputs.append(
            (
                g[0] * h[0],
                g[0] * h[1] + g[1] * h[0],
                g[0] * h[2] + g[1] * h[1] + g[2] * h[0],
                g[1] * h[2] + g[2] * h[1],
                g[2] * h[2],
            )
        )
    # family points of the reducibility suite's box at small D
    for D in (3, 4, 7, 8):
        for f in reduced_forms(D):
            L = lattice_Lfa(f)
            for s in range(-(12 // L.d1) - 1, 12 // L.d1 + 2):
                for t in range(-13, 14):
                    A, B = L.point(s, t)
                    if max(abs(A), abs(B)) <= 12 and (A, B) != (0, 0):
                        inputs.append(family_coefficients(f, A, B))
    split = 0
    for coeffs in inputs:
        p, bound = _split_input(coeffs)
        got = _quadratic_split(p, bound)
        assert got == _split_by_scan(p, bound), coeffs
        split += got is not None
    assert split > 300


# ---------------------------------------------------------------------------
# Value types (`forms.value_type`)
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "jzero"


def _value_type_classes():
    """(module, class name) of every class decorated with `value_type`."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if isinstance(target, ast.Name) and target.id == "value_type":
                        out.add((path.stem, node.name))
    return out


_F = QuadraticForm(1, 1, 6)
# two argument tuples per value type, unequal, for eq, hash and order
_VALUE_SAMPLES = {
    ("forms", "QuadraticForm"): [(1, 2, 3), (1, 2, 4)],
    ("forms", "QuarticForm"): [(1, 0, -6, 0, 1), (-1, 0, 6, 0, -1)],
    ("forms", "Unimodular"): [(2, 1, 1, 1), (1, 0, 0, -1)],
    ("forms", "InvariantTriple"): [(3, 0, 4), (12, 0, 256)],
    ("forms", "LinearFactor"): [(1, 2), (2, 1)],
    ("classes", "FormClass"): [(_F, -23), (QuadraticForm(2, 1, 3), -23)],
    ("counting", "HeightPolicy"): [("disc",), ("absI",)],
    ("families", "FamilyPoint"): [(_F, 1, 2), (_F, 2, 1)],
    ("families", "FiberAction"): [(_F, 1, ((1, 0, 0, 1),)), (_F, 2, ((2, 0, 0, 2),))],
    ("hensel", "CanonicalFp"): [(3, 1, 2, IDENTITY), (3, 1, 2, Unimodular(0, -1, 1, 0))],
    ("lattices", "SubLattice"): [(1, 0, 2), (2, 1, 3)],
    ("reducible", "CurvePoint"): [(1, 2, 3, True), (1, 2, 3, False)],
    ("oracle", "OrbitKey"): [
        ("posdef", (1, 1, 6), (1, 0), (3, 0, 4)),
        ("posdef", (1, 1, 6), (-1, 2), (3, 0, 4)),
    ],
    ("oracle", "Divisor"): [
        ("posdef", (1, 1, 6), _F, IDENTITY, None, 2),
        ("indefinite", (1, 1, -1), None, None, None, 0),
    ],
}


def _twin(cls):
    """A plain frozen dataclass with the name, fields and order of cls."""
    ns = {"__annotations__": {f.name: f.type for f in dataclasses.fields(cls)}}
    plain = type(cls.__name__, (), ns)
    plain.__qualname__ = cls.__qualname__
    return dataclasses.dataclass(plain, frozen=True, order=cls.__dataclass_params__.order)


def test_no_frozen_dataclass_left():
    for path in sorted(SRC.glob("*.py")):
        assert "@dataclass(frozen=True" not in path.read_text(), path.name
    assert set(_VALUE_SAMPLES) == _value_type_classes()


@pytest.mark.parametrize("where", sorted(_VALUE_SAMPLES), ids=lambda w: f"{w[0]}.{w[1]}")
def test_value_type_matches_a_frozen_dataclass(where):
    mod, name = where
    cls = getattr(importlib.import_module(f"jzero.{mod}"), name)
    twin = _twin(cls)
    first, second = _VALUE_SAMPLES[where]
    x, y, x2 = cls(*first), cls(*second), cls(*first)
    tx, ty = twin(*first), twin(*second)
    names = [f.name for f in dataclasses.fields(cls)]
    assert cls(**dict(zip(names, first))) == x
    for obj in (x, y):
        assert not hasattr(obj, "__dict__")
        for field in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field, None)
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert type(pickle.loads(pickle.dumps(obj))) is cls
    assert [getattr(x, n) for n in names] == list(first)
    assert repr(x) == repr(tx) and repr(y) == repr(ty)
    assert hash(x) == hash(tx) == hash(x2) and hash(y) == hash(ty)
    assert (x == x2, x == y, x != y) == (tx == twin(*first), tx == ty, tx != ty) == (True, False, True)
    if cls.__dataclass_params__.order:
        for a, b, ta, tb in ((x, y, tx, ty), (y, x, ty, tx), (x, x2, tx, twin(*first))):
            assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)


def test_value_type_validation_still_runs():
    from jzero.classes import FormClass
    from jzero.lattices import SubLattice

    with pytest.raises(ValueError):
        Unimodular(1, 1, 1, 1)
    with pytest.raises(ValueError):
        SubLattice(1, 2, 2)
    with pytest.raises(AssertionError):
        FormClass(QuadraticForm(1, 1, 6), -20)
