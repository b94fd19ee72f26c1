"""Tests for the exact counting kernels and aggregates."""

import math
import random

from jzero.classes import enumerate_reduced
from jzero.counting import (
    ABS_I_POLICY,
    DISC_POLICY,
    count_family,
    count_M,
    count_N,
    ellipse_points,
    fit_ladder,
    icbrt,
    merged_square_labels,
    per_class_error_audit,
    primitive_uniqueness_check,
    red_Nf_compare,
    square_family_points,
    write_count_csv,
)
from jzero.families import FamilyPoint, family_coefficients, family_invariant, lattice_Lfa
from jzero.forms import QuadraticForm, QuarticForm, invariants


def test_icbrt():
    big = (10**100 + 1) ** 3
    for n in (0, 1, 7, 8, 9, 26, 27, 28, 10**12, 10**12 + 1, 10**400, big - 1, big, big + 1):
        r = icbrt(n)
        assert r**3 <= n < (r + 1) ** 3


def test_policies():
    assert DISC_POLICY.ibound(4) == icbrt(27)
    # 4 I^3 <= 27 X exactly at the cube root
    X = 123456
    Z = DISC_POLICY.ibound(X)
    assert 4 * Z**3 <= 27 * X < 4 * (Z + 1) ** 3
    assert ABS_I_POLICY.ibound(1000) == 1000


def test_ellipse_points_example():
    pts = list(ellipse_points(QuadraticForm(1, 0, 1), 100))
    assert len(pts) == 28
    fc = count_family(QuadraticForm(1, 0, 1), 100)
    assert fc.points == 28
    assert fc.irreducible_points == 12 and fc.irreducible_orbits == 6
    assert not list(ellipse_points(QuadraticForm(1, 1, 1), 1))


def test_ellipse_points_match_naive():
    rng = random.Random(61)
    for _ in range(100):
        D = rng.choice([d for d in range(3, 120) if d % 4 in (0, 3)])
        f = rng.choice(enumerate_reduced(D))
        Z = rng.randint(1, 500)
        got = sorted(ellipse_points(f, Z))
        a, b, c = f.coeffs()
        L = lattice_Lfa(f)
        K = 4 * a**3 * Z
        want = sorted(
            (A, B)
            for A in range(-200, 201)
            for B in range(-200, 201)
            if (A, B) != (0, 0)
            and L.contains(A, B)
            and 3 * D * (a * B * B - 4 * b * A * B + 16 * c * A * A) <= K
        )
        assert got == want, (f, Z)


def test_counted_points_have_valid_invariants():
    # no degenerate member is counted and I is within bound and a positive
    # multiple of 3D/4
    for D in (3, 4, 7, 8):
        for f in enumerate_reduced(D):
            for (A, B) in ellipse_points(f, 200):
                F = QuarticForm(*family_coefficients(f, A, B))
                t = invariants(F)
                assert t.J == 0 and t.I > 0 and t.I <= 200
                assert (4 * t.I) % (3 * D) == 0
                assert t.disc != 0


def test_square_family_points_match_naive():
    for (a, n, Z) in [(1, 1, 60), (1, 2, 60), (1, 4, 100), (3, 4, 200), (2, 5, 300)]:
        f = QuadraticForm(a, n, 0)
        L = lattice_Lfa(f)
        R = 4 * a**3 * Z // (3 * n * n) + 20
        want = []
        for B in range(-R, R + 1):
            for A in range(-R, R + 1):
                if (A, B) == (0, 0) or not L.contains(A, B):
                    continue
                I, _ = family_invariant(FamilyPoint(f, A, B))
                if I != 0 and abs(I) <= Z:
                    want.append((A, B))
        assert sorted(square_family_points(a, n, Z)) == sorted(want), (a, n, Z)


def test_merged_square_labels():
    assert merged_square_labels(1) == [1]
    assert merged_square_labels(2) == [1]
    # mod 5: {1,4} merge (negation), {2,3} merge
    assert merged_square_labels(5) == [1, 2]
    # mod 7: {1,6}, {2,3,4,5} (2^-1=4, -2=5, -4=3)
    assert merged_square_labels(7) == [1, 2]
    for n in range(2, 60):
        labels = merged_square_labels(n)
        phi = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
        assert sum(1 for _ in labels) <= phi


def test_count_monotone():
    prev_n = prev_m = -1
    for X in (10**3, 10**4, 10**5, 10**6):
        n = count_N(X).irreducible_orbits
        m = count_M(X).irreducible_orbits
        assert n >= prev_n and m >= prev_m
        prev_n, prev_m = n, m


def test_count_example_form():
    # the A=2, B=1 member of the (1,1) reducible family
    f = QuadraticForm(1, 1, 0)
    coeffs = family_coefficients(f, 2, 4)
    F = QuarticForm(*coeffs)
    assert F == QuarticForm(2, 4, 6, 4, 1)
    t = invariants(F)
    assert (t.I, t.J) == (12, 0)
    # A = B member degenerates
    c2 = family_coefficients(f, 1, 4)
    assert invariants(QuarticForm(*c2)).I == 0


def test_red_nf_identity_random():
    rng = random.Random(62)
    for _ in range(20):
        beta = rng.randint(1, 10)
        alpha = rng.choice([a for a in range(1, 10) if math.gcd(a, beta) == 1])
        X = rng.randint(10**3, 10**9)
        rep = red_Nf_compare(alpha, beta, X)
        assert rep.identity_holds, (alpha, beta, X)
    assert red_Nf_compare(1, 1, 10).raw_pairs == 0  # Y < 1


def test_primitive_uniqueness_small():
    rep = primitive_uniqueness_check(10**5)
    assert rep.passed, rep.violations[:3]
    assert rep.checked_forms > 0


def test_per_class_audit_supports_area_det():
    audits = per_class_error_audit(
        [QuadraticForm(1, 0, 1), QuadraticForm(1, 1, 2)], [10**8, 10**10]
    )
    for a in audits:
        assert a.supports == "area/det", (a.f, a.rows)


def test_fit_and_csv(tmp_path):
    reports = [count_N(X) for X in (10**5, 10**6, 10**7)]
    a, b = fit_ladder(reports)
    assert a > 0
    path = tmp_path / "counts.csv"
    write_count_csv(str(path), reports)
    text = path.read_text().splitlines()
    assert text[0] == "X,D,points,orbits"
    assert len(text) > 3


def test_workers_deterministic():
    for counter in (count_N, count_M):
        r1 = counter(10**7)
        r2 = counter(10**7, workers=2)
        assert r1.per_D == r2.per_D
        assert r1.irreducible_orbits == r2.irreducible_orbits
        assert r1.irreducible_points == r2.irreducible_points
        assert r1.cover_findings == r2.cover_findings
        assert r1.max_coeff == r2.max_coeff


def test_imprimitive_scaling_consistency():
    # r-multiples of a family point are counted exactly when r^2 I <= bound
    from jzero.forms import invariants as _inv

    for f in (QuadraticForm(1, 0, 1), QuadraticForm(1, 1, 1), QuadraticForm(2, 1, 3)):
        Z = 600
        pts = set(ellipse_points(f, Z))
        for (A, B) in pts:
            F = QuarticForm(*family_coefficients(f, A, B))
            I = _inv(F).I
            for r in (2, 3):
                expected = r * r * I <= Z
                assert ((r * A, r * B) in pts) == expected, (f, A, B, r)
