"""Tests for reduction, class enumeration, and composition."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jzero.classes import (
    ClassGroup,
    canonical_square_label,
    class_number_sum_report,
    class_of,
    class_pairs,
    compose,
    compose_rows,
    cover_multiplicity,
    enumerate_reduced,
    gauss_reduce,
    gauss_reduce_rows,
    indefinite_class_key,
    inverse,
    is_ambiguous,
    is_opaque,
    order,
    principal_class,
    reduce_form,
    reduced_forms,
    reducible_class_reps,
    representations,
    represents,
    represents_rows,
    square_label_inverse,
    square_label_negation,
    xgcd_rows,
)
from jzero.forms import QuadraticForm, Unimodular, act_quadratic
from reference import enumerate_reduced_scan, indefinite_class_key_four_cycles


def test_reduce_examples():
    f = QuadraticForm(1, 1, 1)
    g, T = reduce_form(f)
    assert g == f and T.entries() == (1, 0, 0, 1)
    # one swap step gives (2,-2,3); the boundary convention b >= 0 when
    # |b| = a forces the representative (2,2,3)
    g, T = reduce_form(QuadraticForm(3, 2, 2))
    assert g == QuadraticForm(2, 2, 3)
    assert act_quadratic(QuadraticForm(3, 2, 2), T) == g
    g, _ = reduce_form(QuadraticForm(5, 7, 3))
    assert g == QuadraticForm(1, 1, 3)


def test_reduce_rejects_indefinite():
    with pytest.raises(ValueError):
        reduce_form(QuadraticForm(1, 3, 1))
    with pytest.raises(ValueError):
        reduce_form(QuadraticForm(1, 2, 1))


def test_reduce_idempotent_and_equivalent():
    rng = random.Random(21)
    for _ in range(500):
        a = rng.randint(1, 40)
        b = rng.randint(-40, 40)
        cmin = (b * b) // (4 * a) + 1
        c = rng.randint(cmin, cmin + 60)
        f = QuadraticForm(a, b, c)
        if f.disc() >= 0:
            continue
        g, T = reduce_form(f)
        assert act_quadratic(f, T) == g
        g2, T2 = reduce_form(g)
        assert g2 == g and T2.entries() == (1, 0, 0, 1)


def _reduce_form_by_matrices(f):
    """Reference: Gauss reduction by Unimodular products, step by step."""
    swap = Unimodular(0, -1, 1, 0)
    T, g = Unimodular(1, 0, 0, 1), f
    while True:
        a, b, c = g.coeffs()
        if not (-a < b <= a):
            k = -((b + a - 1) // (2 * a)) if b > a else (a - b) // (2 * a)
            step = Unimodular(1, k, 0, 1)
        elif c < a or (c == a and b < 0):
            step = swap
        elif b == -a:  # never reached: the first branch moves b into (-a, a]
            step = Unimodular(1, 1, 0, 1)
        else:
            return g, T
        g, T = act_quadratic(g, step), T.mul(step)


def test_gauss_reduce_matches_matrix_reduction():
    rng = random.Random(22)
    cases = [(a, -a, c) for a in range(1, 12) for c in range(a, a + 6)]  # b = -a
    cases += [(a, b, a) for a in range(1, 12) for b in range(-a, a + 1)]  # a = c
    cases += [(1, 1, 1), (2, -2, 3), (3, 2, 2), (5, 7, 3), (4, -4, 4)]
    while len(cases) < 1500:
        a = rng.randint(1, 10**rng.randint(1, 6))
        b = rng.randint(-10**rng.randint(1, 7), 10**rng.randint(1, 7))
        c = b * b // (4 * a) + rng.randint(1, 10**rng.randint(1, 6))
        cases.append((a, b, c))
    for (a, b, c) in cases:
        f = QuadraticForm(a, b, c)
        assert f.disc() < 0
        g, T = _reduce_form_by_matrices(f)
        assert gauss_reduce(a, b, c) == (g.coeffs(), T.entries()), f
        assert reduce_form(f) == (g, T), f
    # the row reduction, on int64 and on Python integers, by the same steps
    want = [(*g, *T) for g, T in (gauss_reduce(*f) for f in cases)]
    for dtype in (np.int64, object):
        got = gauss_reduce_rows(*np.array(cases, dtype=dtype).T)
        assert [tuple(map(int, r)) for r in got.T] == want, dtype


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(-10**9, 10**9), st.integers(1, 10**9)), min_size=1, max_size=30))
@example([(0, 1), (5, 1), (6, 4), (-6, 4), (7, 7), (3, 10**9)])
def test_xgcd_rows_is_bezout(pairs):
    u, v = (list(col) for col in zip(*pairs))
    for dtype in (np.int64, object):
        g, x, y = (col.tolist() for col in xgcd_rows(np.array(u, dtype=dtype), np.array(v, dtype=dtype)))
        for ui, vi, gi, xi, yi in zip(u, v, g, x, y):
            assert gi == math.gcd(ui, vi) and ui * xi + vi * yi == gi, (ui, vi, dtype)
            assert abs(xi) <= vi
            if gi == 1:
                assert xi % vi == pow(ui, -1, vi)


def test_unique_reduced_rep_vs_orbit_search():
    # two positive definite primitive forms are SL2-equivalent iff their
    # reduced representatives coincide; cross-checked by a matrix search
    rng = random.Random(22)
    mats = _unimodular_ball(4)
    for _ in range(40):
        D = rng.choice([d for d in range(3, 500) if d % 4 in (0, 3)])
        forms = reduced_forms(D)
        for f in forms:
            for g in forms:
                equiv_search = any(act_quadratic(f, T) == g for T in mats if T.det() == 1)
                assert equiv_search == (f == g), (f, g, D)


def _unimodular_ball(bound):
    out = []
    for t1 in range(-bound, bound + 1):
        for t2 in range(-bound, bound + 1):
            for t3 in range(-bound, bound + 1):
                for t4 in range(-bound, bound + 1):
                    if t1 * t4 - t2 * t3 in (1, -1):
                        out.append(Unimodular(t1, t2, t3, t4))
    return out


def test_enumerate_reduced_examples():
    assert reduced_forms(3) == [QuadraticForm(1, 1, 1)]
    assert reduced_forms(23) == [
        QuadraticForm(1, 1, 6),
        QuadraticForm(2, 1, 3),
        QuadraticForm(2, -1, 3),
    ]
    assert reduced_forms(20) == [QuadraticForm(1, 0, 5), QuadraticForm(2, 2, 3)]
    assert reduced_forms(7) == [QuadraticForm(1, 1, 2)]
    assert reduced_forms(21) == []  # 21 = 1 mod 4
    assert reduced_forms(22) == []
    with pytest.raises(ValueError):
        reduced_forms(0)
    rows = enumerate_reduced(20, 24)
    assert rows.dtype == np.int64 and rows.tolist() == [[20, 1, 0, 5], [20, 2, 2, 3], [23, 1, 1, 6], [23, 2, 1, 3], [23, 2, -1, 3]]
    assert enumerate_reduced(21, 23).shape == (0, 4)


def test_enumerate_reduced_matches_scan():
    # the one-D case against the divisor scan, list for list (order
    # included), for every D < 20000
    for D in range(1, 20000):
        assert reduced_forms(D) == enumerate_reduced_scan(D), D


def _scan_rows(lo, hi):
    # the reference rows (D, a, b, c) of every D in [lo, hi), D by D
    return [[D, *f.coeffs()] for D in range(lo, hi) for f in enumerate_reduced_scan(D)]


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(1, 6000), st.integers(0, 400))
@example(1, 6)  # D = 3, 4 and D = 1, 2, 5 (mod 4) with no form
@example(3, 2)
@example(2, 3)
def test_enumerate_reduced_window_is_the_per_d_scan(lo, width):
    # a window [lo, lo + width) lists the rows of every D in it, sorted by
    # (D, a, c, -b); D = 1, 2 (mod 4) contribute none
    assert enumerate_reduced(lo, lo + width).tolist() == _scan_rows(lo, lo + width)


def test_enumerate_reduced_past_the_table():
    # a single large D goes through its (a, b) pairs in several chunks of a
    # (D = 10^7 has 1825 values of a); at and beside 10^6 and 10^7, and a
    # window of 640 D near 50000, against the scan
    for D in (10**6, 10**6 + 3, 10**6 + 7, 10**7, 10**7 + 3, 10**7 + 4):
        assert enumerate_reduced(D, D + 1).tolist() == _scan_rows(D, D + 1), D
        assert reduced_forms(D) == enumerate_reduced_scan(D), D
    assert enumerate_reduced(49883, 50523).tolist() == _scan_rows(49883, 50523)


def test_class_numbers():
    # classical values of h2(-D)
    for D, h in [(3, 1), (4, 1), (7, 1), (8, 1), (11, 1), (15, 2), (20, 2), (23, 3), (47, 5), (71, 7)]:
        assert len(reduced_forms(D)) == h, D


def test_compose_examples():
    c = class_of(QuadraticForm(2, 1, 3))
    e = principal_class(-23)
    assert compose(e, c) == c
    assert compose(c, c) == class_of(QuadraticForm(2, -1, 3))
    assert inverse(c) == class_of(QuadraticForm(2, -1, 3))
    assert order(c) == 3


def test_class_group_elements_are_their_classes():
    # ClassGroup keeps each reduced form as its class without reducing it
    # again; class_of must give back the same element, for every D <= 2000
    for D in range(3, 2001):
        if D % 4 in (0, 3):
            G = ClassGroup(D)
            assert len(G) == len(reduced_forms(D)), D
            for e in G.elements:
                assert class_of(e.rep) == e, (D, e)


def test_compose_rows_matches_compose():
    # Shanks' row composition against Dirichlet's through concordant reps,
    # on every ordered pair of classes of every D <= 500
    rows = enumerate_reduced(3, 501)
    i, j = class_pairs(rows)
    h = np.bincount(rows[:, 0])
    assert len(i) == (h * h).sum() == 13928
    assert (rows[i, 0] == rows[j, 0]).all()
    got = compose_rows(rows[i, 1:], rows[j, 1:]).tolist()
    for D, f1, f2, f3 in zip(rows[i, 0].tolist(), rows[i, 1:].tolist(), rows[j, 1:].tolist(), got):
        c1, c2 = (class_of(QuadraticForm(*f)) for f in (f1, f2))
        assert compose(c1, c2).rep.coeffs() == tuple(f3), (D, f1, f2)


def test_group_axioms_sample():
    rng = random.Random(23)
    discs = [d for d in range(3, 400) if len(reduced_forms(d)) > 1]
    for D in rng.sample(discs, 20):
        G = ClassGroup(D)
        e = G.identity()
        els = G.elements
        for c in els:
            assert G.compose(e, c) == c
            assert G.compose(c, inverse(c)) == e
        for _ in range(30):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert G.compose(a, G.compose(b, c)) == G.compose(G.compose(a, b), c)
            assert G.compose(a, b) == G.compose(b, a)
            assert G.compose(a, b) in els


def test_compose_represented_values():
    rng = random.Random(24)
    checked = 0
    while checked < 200:
        D = rng.choice([d for d in range(3, 300) if d % 4 in (0, 3)])
        G = ClassGroup(D)
        c1, c2 = rng.choice(G.elements), rng.choice(G.elements)
        vals1 = _small_values(c1.rep, 60)
        vals2 = _small_values(c2.rep, 60)
        pair = next(
            ((m1, m2) for m1 in vals1 for m2 in vals2 if math.gcd(m1, m2) == 1),
            None,
        )
        if pair is None:
            continue
        prod = compose(c1, c2)
        assert representations(prod.rep, pair[0] * pair[1]), (c1, c2, pair)
        checked += 1


def _small_values(f, bound):
    vals = set()
    for x in range(-8, 9):
        for y in range(-8, 9):
            v = f.value(x, y)
            if 0 < v <= bound and math.gcd(x, y) == 1:
                vals.add(v)
    return sorted(vals)


def test_ambiguous_iff_order_two():
    for D in range(3, 500):
        if D % 4 not in (0, 3):
            continue
        for f in reduced_forms(D):
            c = class_of(f)
            assert is_ambiguous(c) == (order(c) <= 2), (D, f)


def test_cover_multiplicities():
    assert cover_multiplicity(class_of(QuadraticForm(1, 1, 1))) == 6
    c = class_of(QuadraticForm(1, 0, 1))
    assert is_ambiguous(c) and not is_opaque(c)
    assert cover_multiplicity(c) == 2
    assert cover_multiplicity(class_of(QuadraticForm(2, 1, 3))) == 1


def test_reducible_class_reps():
    assert [f.coeffs() for f in reducible_class_reps(6)] == [(1, 6, 0), (5, 6, 0)]
    assert [f.coeffs() for f in reducible_class_reps(2)] == [(1, 2, 0)]
    assert len(reducible_class_reps(12)) == 4
    assert [f.a for f in reducible_class_reps(12)] == [1, 5, 7, 11]
    assert reducible_class_reps(1) == []
    for n in range(1, 200):
        phi = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
        expected = phi if n > 1 else 0
        assert len(reducible_class_reps(n)) == expected


def test_square_labels_invariant():
    rng = random.Random(25)
    mats = [
        Unimodular(1, 0, 1, 1),
        Unimodular(1, 1, 0, 1),
        Unimodular(0, -1, 1, 0),
        Unimodular(1, 0, 0, -1),
    ]
    for n in (1, 2, 3, 4, 5, 8, 9, 12):
        for a in range(1, n + 1):
            if math.gcd(a, n) != 1 or (n > 1 and a == n):
                continue
            f = QuadraticForm(a, n, 0)
            for _ in range(20):
                T = mats[0]
                for _ in range(rng.randint(1, 6)):
                    T = T.mul(rng.choice(mats))
                g = act_quadratic(f, T)
                lab, U = canonical_square_label(g)
                if T.det() == 1:
                    assert lab == a
                else:
                    assert lab in (a, square_label_inverse(a, n))
                assert act_quadratic(g, U) == QuadraticForm(lab, n, 0)


def test_square_label_inverse_negation():
    for n in (5, 7, 12, 15):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            assert canonical_square_label(QuadraticForm(a, -n, 0))[0] == square_label_inverse(a, n)
            assert canonical_square_label(QuadraticForm(-a, -n, 0))[0] == square_label_negation(a, n)


def test_opaque_square_disc():
    # x^2 - y^2 has the opaque shape (1, 0, -1) with disc 4, label set of n=2
    c = class_of(QuadraticForm(1, 2, 0))
    assert is_opaque(c)
    # disc 1 class (x^2 + xy ~ xy) is opaque via (0, 1, 0)
    assert is_opaque(class_of(QuadraticForm(1, 1, 0)))


def test_representations():
    f = QuadraticForm(1, 0, 1)
    assert (1, 2) in representations(f, 5)
    assert representations(f, 2) and not representations(f, 3)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.integers(1, 40),
    st.integers(-80, 80),
    st.integers(1, 40),
    st.integers(1, 10**5),
)
@example(1, 0, 1, 5)
@example(1, 0, 1, 3)
@example(3, 7, 5, 5)  # not reduced: disc -11, f(0, 1) = 5
@example(3, 7, 5, 2)
def test_represents_matches_representations(a, b, c, m):
    f = QuadraticForm(a, b, c)
    assume(f.disc() < 0 and f.is_primitive())
    assert represents(f, m) == bool(representations(f, m))


def test_represented_matches_every_class_test():
    # the row scan against the full search, for every class and every m
    reps = []
    for D in (3, 4, 23, 84, 420, 1000):
        forms = [f.coeffs() for f in reduced_forms(D)]
        reps += forms
        f = np.array(forms * 2000)
        m = np.repeat(np.arange(1, 2001), len(forms))
        got = represents_rows(np.full(len(f), D), f, m).tolist()
        want = [bool(representations(QuadraticForm(*g), int(n))) for g, n in zip(forms * 2000, m)]
        assert got == want, D
    # every shape of rep that is its own inverse pair occurs
    assert any(b == 0 for a, b, c in reps)
    assert any(b == a for a, b, c in reps)
    assert any(a == c and b > 0 for a, b, c in reps)


def test_class_number_sum_report():
    r1 = class_number_sum_report(1000)
    r2 = class_number_sum_report(2000)
    assert r1.total < r2.total
    assert r1.total == sum(len(reduced_forms(D)) for D in range(1, 1001))


@settings(max_examples=400, deadline=2000, database=None)
@given(st.integers(-300, 300), st.integers(-300, 300), st.integers(-300, 300))
def test_indefinite_class_key_matches_four_cycles(a, b, c):
    D = b * b - 4 * a * c
    assume(D > 0 and math.isqrt(D) ** 2 != D)
    f = QuadraticForm(a, b, c)
    assert indefinite_class_key(f) == indefinite_class_key_four_cycles(f)
