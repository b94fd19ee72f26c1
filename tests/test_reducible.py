"""Tests for the reducibility classification machinery."""

import math
import random

import pytest

from jzero.classes import reduced_forms
from jzero.families import FamilyPoint, family_coefficients, jacobian
from jzero.forms import QuadraticForm, QuarticForm, invariants, is_irreducible_Q
from jzero.reducible import (
    ReducibleKind,
    apply_mf,
    classify,
    in_lambda,
    lambda_f,
    lambda_form,
    square_disc_points,
    square_part_split,
)

F101 = QuadraticForm(1, 0, 1)


def test_quadratic_factorization_examples():
    # the biquadratic x^4 - 6x^2y^2 + y^4 factors into two quadratics
    F = QuarticForm(1, 0, -6, 0, 1)
    w = classify(F, F101)
    assert w.scale == 1 and w.product_equals(F)
    assert {w.g.coeffs(), w.h.coeffs()} == {(1, -2, -1), (1, 2, -1)}


def test_classify_examples():
    w = classify(QuarticForm(0, 1, 0, -1, 0), F101)
    assert w.kind is ReducibleKind.TYPE2
    assert {w.g.coeffs(), w.h.coeffs()} == {(0, 1, 0), (1, 0, -1)}
    assert in_lambda(F101, w.g) and in_lambda(F101, w.h)
    w2 = classify(QuarticForm(1, 1, -6, -1, 1), F101)
    assert w2.kind is ReducibleKind.IRREDUCIBLE
    with pytest.raises(ValueError):
        classify(QuarticForm(1, 0, 0, 0, 1), F101)  # not a member


def test_classify_agrees_with_irreducibility():
    found = {ReducibleKind.TYPE1: 0, ReducibleKind.TYPE2: 0}
    for D in range(3, 50):
        if D % 4 not in (0, 3):
            continue
        for f in reduced_forms(D):
            from jzero.families import lattice_Lfa

            L = lattice_Lfa(f)
            for s in range(-8, 9):
                for t in range(-8, 9):
                    A, B = L.point(s, t)
                    if (A, B) == (0, 0) or abs(A) > 20 or abs(B) > 20:
                        continue
                    F = QuarticForm(*family_coefficients(f, A, B))
                    if invariants(F).disc == 0:
                        continue
                    w = classify(F, f)
                    assert (w.kind is ReducibleKind.IRREDUCIBLE) == is_irreducible_Q(F)
                    if w.kind in found:
                        found[w.kind] += 1
                        assert w.product_equals(F)
    assert found[ReducibleKind.TYPE1] > 0 and found[ReducibleKind.TYPE2] > 0


def test_type1_has_square_disc():
    for D in range(3, 50):
        if D % 4 not in (0, 3):
            continue
        for f in reduced_forms(D):
            from jzero.families import lattice_Lfa

            L = lattice_Lfa(f)
            for s in range(-6, 7):
                for t in range(-6, 7):
                    A, B = L.point(s, t)
                    if (A, B) == (0, 0) or abs(A) > 15 or abs(B) > 15:
                        continue
                    F = QuarticForm(*family_coefficients(f, A, B))
                    if invariants(F).disc == 0:
                        continue
                    w = classify(F, f)
                    if w.kind is ReducibleKind.TYPE1:
                        d = invariants(F).disc
                        assert math.isqrt(abs(d)) ** 2 == abs(d)


def test_lambda_lattice():
    f = QuadraticForm(2, 1, 3)
    L = lambda_f(f)
    for s in range(-5, 6):
        for t in range(-5, 6):
            g2, g1 = L.point(s, t)
            g = lambda_form(f, g2, g1)
            if g.is_zero():
                continue
            assert in_lambda(f, g)
            img = apply_mf(f, g)
            # involution-stable: image proportional to g
            assert g.a * img.b == g.b * img.a and g.a * img.c == g.c * img.a


def test_jacobian_cofactor_properties():
    rng = random.Random(81)
    checked = 0
    while checked < 300:
        f = QuadraticForm(rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 12))
        if f.disc() >= 0 or not f.is_primitive() or f.a == 0:
            continue
        L = lambda_f(f)
        g2, g1 = L.point(rng.randint(-6, 6), rng.randint(-6, 6))
        try:
            u = lambda_form(f, g2, g1)
        except ValueError:
            continue
        if u.is_zero() or u.a == 0 or u.disc() == 0 or not u.is_primitive():
            continue
        v = jacobian(f, u)
        if v.is_zero():
            continue
        checked += 1
        # symmetry of the stability relation
        assert in_lambda(f, u) and in_lambda(u, f)
        # content divides gcd of discriminants
        xi = v.content()
        assert math.gcd(abs(f.disc()), abs(u.disc())) % xi == 0


def test_cofactor_forced_in_type2():
    # if F = u*v with u, v in Lambda(f) non-proportional then v ~ J(f, u)
    f = F101
    u = QuadraticForm(0, 1, 0)
    v = jacobian(f, u)
    assert v.primitive_part().coeffs() in {(1, 0, -1), (-1, 0, 1)}


def test_square_part_split():
    assert square_part_split(4) == (1, 2)
    assert square_part_split(12) == (3, 2)
    assert square_part_split(23) == (23, 1)
    assert square_part_split(72) == (2, 6)


def test_square_disc_points_correspondence():
    # curve points match I-square family members for odd canonical middle
    from jzero.counting import ellipse_frame, ellipse_points, icbrt
    from jzero.families import family_invariant
    from jzero.hensel import canonical_fp

    X = 10**9
    for f in (QuadraticForm(1, 1, 1), QuadraticForm(1, 1, 2), QuadraticForm(2, 1, 3)):
        D = -f.disc()
        s, t = square_part_split(D)
        assert canonical_fp(f).m % 2 == 1
        fam = set()
        for (A, B) in ellipse_points(ellipse_frame(f), icbrt(27 * X // 4)):
            I, _ = family_invariant(FamilyPoint(f, A, B))
            if math.isqrt(I) ** 2 == I:
                fam.add(I)
        curve = {4 * t * t * p.z * p.z for p in square_disc_points(f, X)}
        assert fam == curve, (f, sorted(fam)[:4], sorted(curve)[:4])
