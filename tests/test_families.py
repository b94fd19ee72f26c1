"""Tests for the J = 0 family parametrization and pair machinery."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jzero.classes import reduced_forms, signed_automorphisms
from jzero.counting import decide_member, ellipse_frame
from jzero.families import (
    FamilyPoint,
    family_coefficients,
    family_invariant,
    family_member,
    fiber_action,
    invariant_form,
    jacobian,
    joint_disc,
    lattice_diagonal,
    lattice_Lfa,
    lattice_det,
    lattice_triple,
    member_of,
    outer_I,
    outer_h0,
    outer_value,
    plane_residual,
    square_split,
)
from jzero.forms import (
    QuadraticForm,
    QuarticForm,
    Unimodular,
    act_quadratic,
    act_quartic,
    hessian,
    hessian_sqrt,
    invariants,
    is_irreducible_Q,
    quartic_factorization,
)
from jzero.lattices import SubLattice
from reference import contains
F101 = QuadraticForm(1, 0, 1)
F111 = QuadraticForm(1, 1, 1)


def test_lattice_examples():
    assert lattice_Lfa(F101).index == 1
    L = lattice_Lfa(F111)
    assert L.index == 4
    assert contains(L, 7, 4) and contains(L, 3, 0) and not contains(L, 0, 2)
    assert lattice_det(QuadraticForm(5, 4, 1)) == 125
    assert lattice_det(QuadraticForm(3, 1, 2)) == 108
    assert lattice_det(F111) == 4
    assert lattice_det(F101) == 1


def test_lattice_membership_exhaustive_small():
    # membership = integrality of the family coefficients, checked mod 4a^3
    rng = random.Random(41)
    for _ in range(60):
        a = rng.randint(1, 6)
        b = rng.randint(-6, 6)
        c = rng.randint(-6, 6)
        f = QuadraticForm(a, b, c)
        if f.disc() == 0 or not f.is_primitive():
            continue
        L = lattice_Lfa(f)
        M = 4 * a**3
        for A in range(M):
            for B in range(M):
                member = contains(L, A, B)
                try:
                    family_coefficients(f, A, B)
                    integral = True
                except ValueError:
                    integral = False
                assert member == integral, (f, A, B)


def test_family_member_examples():
    assert family_member(FamilyPoint(F101, 1, 0)) == QuarticForm(1, 0, -6, 0, 1)
    assert family_member(FamilyPoint(F101, 0, 1)) == QuarticForm(0, 1, 0, -1, 0)
    assert family_member(FamilyPoint(F111, 1, 4)) == QuarticForm(1, 4, 0, -4, -1)
    assert invariants(QuarticForm(1, 4, 0, -4, -1)).I == 36


def test_family_invariant_examples():
    I, sI = family_invariant(FamilyPoint(F101, 1, 0))
    assert I == 48 and Fraction(*sI) == 4
    I, _ = family_invariant(FamilyPoint(F101, 0, 1))
    assert I == 3
    I, sI = family_invariant(FamilyPoint(F111, 1, 4))
    assert I == 36 and Fraction(*sI) == 4


def test_member_of_examples():
    assert member_of(F101, QuarticForm(1, 0, -6, 0, 1)) == FamilyPoint(F101, 1, 0)
    assert member_of(F101, QuarticForm(1, 0, 0, 0, 1)) is None
    assert member_of(F101, QuarticForm(0, 0, 0, 0, 0)) is None


def test_plane_residual_examples():
    assert plane_residual(F101, QuarticForm(1, 0, -6, 0, 1)) == 0
    assert plane_residual(F111, QuarticForm(1, 4, 0, -4, -1)) == 0
    assert plane_residual(F101, QuarticForm(1, 0, 0, 0, 1)) == 12


def test_parametrization_identities_sweep():
    # family members are integral with J = 0, f^2 | H, residual 0, and
    # member_of round-trips; moderate sweep here, the full-size sweep is in
    # the acceptance suite
    for D in range(3, 60):
        if D % 4 not in (0, 3):
            continue
        for f in reduced_forms(D):
            L = lattice_Lfa(f)
            for s in range(-6, 7):
                for t in range(-6, 7):
                    A, B = L.point(s, t)
                    if abs(A) > 25 or abs(B) > 25:
                        continue
                    pt = FamilyPoint(f, A, B)
                    F = family_member(pt)  # asserts J = 0 and f^2 | H_F
                    assert plane_residual(f, F) == 0
                    if (A, B) != (0, 0):
                        assert member_of(f, F) == pt
                    I, sI = family_invariant(pt)
                    assert invariants(F).I == I


def test_completeness_small_box():
    # every J = 0 quartic with small coefficients and disc != 0 lands in the
    # family of its normalized Hessian square root; J = 0 forms are produced
    # by solving J for a0 given the other four coefficients
    count = 0
    for a4 in range(-6, 7):
        for a3 in range(-6, 7):
            for a2 in range(-6, 7):
                for a1 in range(-6, 7):
                    den = 72 * a4 * a2 - 27 * a3 * a3
                    num = 9 * a3 * a2 * a1 - 27 * a4 * a1 * a1 - 2 * a2**3
                    if den == 0 or num % den:
                        continue
                    a0 = -num // den
                    if abs(a0) > 6:
                        continue
                    F = QuarticForm(a4, a3, a2, a1, a0)
                    t = invariants(F)
                    assert t.J == 0
                    if t.disc == 0:
                        continue
                    res = hessian_sqrt(F)
                    assert res is not None
                    f, _ = res
                    # a shear y -> kx + y gives f a nonzero leading coefficient
                    k = 0 if f.a else (1 if f.value(1, 1) else -1)
                    T = Unimodular(1, 0, k, 1)
                    pt = member_of(act_quadratic(f, T), act_quartic(F, T))
                    assert pt is not None, (F, f)
                    count += 1
    assert count > 500


def test_lattice_det_sweep():
    for a in range(1, 9):
        for b in range(-8, 9):
            for c in range(1, 12):
                f = QuadraticForm(a, b, c)
                if f.disc() == 0 or not f.is_primitive():
                    continue
                lattice_det(f)  # asserts the closed form internally


@settings(max_examples=400, deadline=2000, database=None)
@given(st.integers(-30, 30).filter(bool), st.integers(-30, 30), st.integers(-60, 60))
def test_lattice_Lfa_matches_congruences_property(a, b, c):
    # `lattice_Lfa`, and the closed forms of `lattice_triple` and
    # `lattice_diagonal`, against the three congruences solved directly;
    # a < 0 and c <= 0 included, which covers M's a x^2 + n xy
    f = QuadraticForm(a, b, c)
    assume(f.is_primitive() and f.disc() != 0)
    reference = SubLattice.from_congruences(
        [
            (4 * c, -b, 2 * a),
            (4 * b * c, -(b * b - a * c), a * a),
            (4 * c * (b * b - a * c), -b * (b * b - 2 * a * c), 4 * a**3),
        ]
    )
    assert lattice_Lfa(f) == reference == SubLattice(*lattice_triple(a, b, c)), f
    assert lattice_diagonal(a, b, c) == (reference.d1, reference.d2), f
    assert lattice_det(f) == (4 if b % 2 else 1) * abs(a) ** 3


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("definite", [True, False])
@settings(max_examples=150, deadline=2000, database=None)
@given(st.integers(2, 12), st.integers(1, 20), st.integers(-20, 20), st.integers(0, 400))
def test_two_congruences_suffice_when_gcd_a_b_exceeds_1(sign, definite, g, a0, b0, extra):
    # the lemma `lattice_triple` rests on: A2 = 0 (mod a^2) and
    # A3 = 0 (mod 4a^3) cut out the lattice of all three congruences, here
    # where A1 = 0 (mod 2a) is not implied by A3 alone (gcd(a, b) > 1)
    a, b = sign * g * a0, g * b0
    c = sign * (b * b // (4 * g * a0) + 1 + extra) if definite else -sign * extra
    f = QuadraticForm(a, b, c)
    assume(f.is_primitive() and f.disc() != 0)
    assert (f.disc() < 0) == definite and math.gcd(a, b) > 1
    congruences = [
        (4 * c, -b, 2 * a),
        (4 * b * c, -(b * b - a * c), a * a),
        (4 * c * (b * b - a * c), -b * (b * b - 2 * a * c), 4 * a**3),
    ]
    two = SubLattice.from_congruences(congruences[1:])
    assert two == SubLattice.from_congruences(congruences) == SubLattice(*lattice_triple(a, b, c)), f
    assert lattice_det(f) == (4 if b % 2 else 1) * abs(a) ** 3


def test_lattice_triple_lifts_by_crt():
    # D = 164, the least D of a reduced form whose k the CRT step moves:
    # the third congruence alone gives k = 5 mod m3 = 27, the second
    # k = 14 mod 18
    assert lattice_triple(6, 2, 7) == (4, 32, 54)
    assert lattice_Lfa(QuadraticForm(6, 2, 7)) == SubLattice(4, 32, 54)


def test_lattice_triple_exhaustive_small():
    # every family form with |a|, |b|, |c| <= 12: a < 0, the M divisors
    # a x^2 + n xy (c = 0), b^2 = ac, and the forms that take the CRT step
    forms = lifts = 0
    for a in range(-12, 13):
        for b in range(-12, 13):
            for c in range(-12, 13):
                if a == 0 or b * b == 4 * a * c or math.gcd(a, b, c) != 1:
                    continue
                L = lattice_Lfa(QuadraticForm(a, b, c))
                assert lattice_triple(a, b, c) == (L.d1, L.k, L.d2), (a, b, c)
                assert lattice_diagonal(a, b, c) == (L.d1, L.d2), (a, b, c)
                m2 = a * a // math.gcd(b * b - a * c, a * a)
                m3 = 4 * abs(a) ** 3 // math.gcd(b * (b * b - 2 * a * c), 4 * abs(a) ** 3)
                forms += 1
                lifts += m3 % m2 != 0
    assert (forms, lifts) == (12276, 912)


def test_frames_need_no_congruence_solver(monkeypatch):
    # the frame path takes every triple in closed form, gcd(a, b) > 1 too
    def refuse(congs):
        raise AssertionError("from_congruences called")

    monkeypatch.setattr(SubLattice, "from_congruences", staticmethod(refuse))
    cases = [((6, 2, 7), (4, 32, 54)), ((2, 2, 3), (4, 0, 2)), ((4, 2, 5), (2, 16, 32)),
             ((4, 4, 5), (8, 4, 8))]
    for (a, b, c), triple in cases:
        assert math.gcd(a, b) > 1
        assert lattice_triple(a, b, c) == triple
        assert ellipse_frame(QuadraticForm(a, b, c))[0] == triple
    with pytest.raises(AssertionError):
        lattice_Lfa(QuadraticForm(6, 2, 7))


def test_jacobian_examples():
    u, v = QuadraticForm(1, 0, 0), QuadraticForm(0, 0, 1)
    assert jacobian(u, v) == QuadraticForm(0, 2, 0)
    assert joint_disc(u, v) == 2
    assert invariant_form(u, v) == QuadraticForm(0, 4, 0)
    assert jacobian(u, u).is_zero()
    u2, v2 = QuadraticForm(1, 0, 1), QuadraticForm(0, 1, 0)
    assert jacobian(u2, v2) == QuadraticForm(1, 0, -1)
    assert invariant_form(u2, v2).disc() == 4 * jacobian(u2, v2).disc()


def test_invariant_form_disc_identity_random():
    rng = random.Random(43)
    for _ in range(3000):
        u = QuadraticForm(*(rng.randint(-20, 20) for _ in range(3)))
        v = QuadraticForm(*(rng.randint(-20, 20) for _ in range(3)))
        invariant_form(u, v)  # asserts disc identity internally


def test_outer_action_scales_jacobian_by_det():
    from jzero.forms import Unimodular

    rng = random.Random(44)
    for _ in range(2000):
        u = QuadraticForm(*(rng.randint(-10, 10) for _ in range(3)))
        v = QuadraticForm(*(rng.randint(-10, 10) for _ in range(3)))
        t = [rng.randint(-4, 4) for _ in range(4)]
        det = t[0] * t[3] - t[1] * t[2]
        if det not in (1, -1):
            continue
        U = QuadraticForm(
            t[0] * u.a + t[1] * v.a, t[0] * u.b + t[1] * v.b, t[0] * u.c + t[1] * v.c
        )
        V = QuadraticForm(
            t[2] * u.a + t[3] * v.a, t[2] * u.b + t[3] * v.b, t[2] * u.c + t[3] * v.c
        )
        JU = jacobian(U, V)
        J = jacobian(u, v)
        assert JU == QuadraticForm(det * J.a, det * J.b, det * J.c)
        # inner action: simultaneous substitution leaves all three invariants
        S = _rand_unimodular(rng)
        us, vs = act_quadratic(u, S), act_quadratic(v, S)
        assert us.disc() == u.disc() and vs.disc() == v.disc()
        assert joint_disc(us, vs) == S.det() ** 0 * joint_disc(u, v) if S.det() == 1 else True


def _rand_unimodular(rng):
    from jzero.forms import IDENTITY, Unimodular

    T = IDENTITY
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-3, 3)
        T = T.mul(Unimodular(1, k, 0, 1) if rng.random() < 0.5 else Unimodular(1, 0, k, 1))
    return T


def test_outer_value_and_I():
    # h = t^2 on the pair (x^2, y^2) gives x^4
    F = outer_value(1, 0, 0, QuadraticForm(1, 0, 0), QuadraticForm(0, 0, 1))
    assert F == QuarticForm(1, 0, 0, 0, 0)
    rng = random.Random(45)
    checked = 0
    while checked < 300:
        u = QuadraticForm(*(rng.randint(-6, 6) for _ in range(3)))
        v = QuadraticForm(*(rng.randint(-6, 6) for _ in range(3)))
        if v.disc() == 0:
            continue
        h2, h1 = rng.randint(-6, 6), rng.randint(-6, 6)
        try:
            h0 = outer_h0(h2, h1, u, v)
        except ValueError:
            continue
        F = outer_value(h2, h1, h0, u, v)
        assert Fraction(invariants(F).I) == Fraction(*outer_I(h2, h1, u, v)), (u, v, h2, h1)
        checked += 1


def test_unit_automorphisms_orders():
    # a definite form has no T with f_T = -f, so these are its GL2 automorphisms
    assert len(signed_automorphisms(QuadraticForm(1, 0, 1))) == 8
    assert len(signed_automorphisms(QuadraticForm(1, 1, 1))) == 12
    assert len(signed_automorphisms(QuadraticForm(2, 1, 3))) == 2
    assert len(signed_automorphisms(QuadraticForm(1, 0, 2))) == 4


def test_fiber_action_orbit_sizes():
    act = fiber_action(F101)
    assert len(act.maps) == 2
    assert act.orbit(1, 2) == [(1, -2), (1, 2)]
    assert act.orbit(1, 0) == [(1, 0)]  # special point: smaller fiber
    act3 = fiber_action(F111)
    assert len(act3.maps) == 6
    assert len(act3.orbit(1, 4)) == 6
    act23 = fiber_action(QuadraticForm(2, 1, 3))
    assert len(act23.maps) == 1


def test_fiber_action_maps_preserve_lattice_and_invariant():
    rng = random.Random(46)
    for f in (F101, F111, QuadraticForm(2, 1, 3), QuadraticForm(1, 1, 0), QuadraticForm(2, 5, 0)):
        act = fiber_action(f)
        L = lattice_Lfa(f)
        for _ in range(50):
            A, B = L.point(rng.randint(-9, 9), rng.randint(-9, 9))
            I0, _ = family_invariant(FamilyPoint(f, A, B))
            for (A2, B2) in act.orbit(A, B):
                assert contains(L, A2, B2)
                I1, _ = family_invariant(FamilyPoint(f, A2, B2))
                assert I1 == I0


_NONZERO = st.integers(-12, 12).filter(bool)


@settings(max_examples=150, deadline=2000, database=None)
@given(_NONZERO, st.integers(-12, 12), st.integers(-12, 12), st.integers(-6, 6), st.integers(-6, 6))
def test_family_coefficients_round_trip_property(a, b, c, s, t):
    # definite, indefinite and square-discriminant divisors alike
    f = QuadraticForm(a, b, c)
    assume(f.disc() != 0 and f.is_primitive())
    A, B = lattice_Lfa(f).point(s, t)
    assume((A, B) != (0, 0))
    F = QuarticForm(*family_coefficients(f, A, B))
    assert member_of(f, F) == FamilyPoint(f, A, B)
    assert member_of(f, QuarticForm(F.a4, F.a3, F.a2, F.a1, F.a0 + 1)) is None


def _product(g, h):
    return (
        g.a * h.a,
        g.a * h.b + g.b * h.a,
        g.a * h.c + g.b * h.b + g.c * h.a,
        g.b * h.c + g.c * h.b,
        g.c * h.c,
    )


def test_square_split_type2_example():
    # a Type 2 product with a non-square disc: q(-8, -20) = 784 = 28^2
    f = F111
    F = QuarticForm(*family_coefficients(f, -8, -20))
    assert F.coeffs() == (-8, -20, 18, 32, 5)
    G, H = square_split(f, -8, -20, F)
    assert (G.coeffs(), H.coeffs()) == ((-32, 16, 40), (-32, -96, -16))
    assert _product(G, H) == tuple(-128 * x for x in F.coeffs())
    # (1, -4, -12, -4, 1) is irreducible: q(1, -4) = 48
    assert square_split(f, 1, -4, QuarticForm(*family_coefficients(f, 1, -4))) is None


def test_square_split_takes_the_callers_root():
    # q(-8, -20) = 784 = 28^2 for F111: a passed root gives the same split,
    # and a wrong one fails the product check instead of a false split
    f = F111
    F = QuarticForm(*family_coefficients(f, -8, -20))
    assert square_split(f, -8, -20, F, 28) == square_split(f, -8, -20, F)
    assert square_split(f, -8, -20, F, -28) is not None  # the factors swap
    for wrong in (0, 1, 27, 29, 56):
        assert square_split(f, -8, -20, F, wrong) is None


_DIVISORS = st.one_of(
    # positive definite a x^2 + b xy + c y^2
    st.tuples(st.integers(1, 12), st.integers(-12, 12), st.integers(1, 12)),
    # a x^2 + n xy, disc n^2
    st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(0)),
)


@settings(max_examples=300, deadline=2000, database=None)
@given(_DIVISORS, st.integers(-6, 6), st.integers(-6, 6))
def test_square_split_property(abc, s, t):
    f = QuadraticForm(*abc)
    assume(f.is_primitive() and (f.disc() < 0 or f.c == 0))
    A, B = lattice_Lfa(f).point(s, t)
    F = QuarticForm(*family_coefficients(f, A, B))
    disc = invariants(F).disc
    assume(disc != 0)
    split = square_split(f, A, B, F)
    reducible = not quartic_factorization(F).is_irreducible()
    if split is not None:
        G, H = split
        assert _product(G, H) == tuple(16 * f.a**4 * A * x for x in F.coeffs())
        assert reducible
    elif reducible and F.a4 * F.a0 != 0:
        # every reducible point the split misses is Type 1: square disc(F)
        assert disc > 0 and math.isqrt(disc) ** 2 == disc, (f, A, B)


@settings(max_examples=300, deadline=2000, database=None)
@given(_DIVISORS, st.integers(-6, 6), st.integers(-6, 6))
def test_kernel_decision_property(abc, s, t):
    # the counting kernel decides without factoring wherever disc(F) is
    # not a square, and must agree with full factorization everywhere
    f = QuadraticForm(*abc)
    assume(f.is_primitive() and (f.disc() < 0 or f.c == 0))
    A, B = lattice_Lfa(f).point(s, t)
    assume(A != 0)
    F = QuarticForm(*family_coefficients(f, A, B))
    assert decide_member(f, A, B, F.coeffs())[1] == is_irreducible_Q(F), (f, A, B)


def test_family_map_determinant():
    # F -> F o T maps the family of f onto that of f o T, and on
    # (A, B) = (a4, a3) it is linear with det M_T = det T (f(t1, t3) / a)^3:
    # so the index of L_{f,a} over |a|^3 is a class invariant, which proves
    # the determinant for every form (`families` module docstring)
    a, b, c, A, B, x, y = sympy.symbols("a b c A B x y")
    t1, t2, t3, t4 = sympy.symbols("t1:5")
    A1 = 4 * c * A - b * B
    A2 = 4 * b * c * A - (b * b - a * c) * B
    A3 = 4 * c * (b * b - a * c) * A - b * (b * b - 2 * a * c) * B
    coeffs = (A, B, -3 * A1 / (2 * a), -A2 / a**2, -A3 / (4 * a**3))
    F = sum(co * x ** (4 - i) * y**i for i, co in enumerate(coeffs))
    FT = sympy.expand(F.subs({x: t1 * x + t2 * y, y: t3 * x + t4 * y}, simultaneous=True))
    a4, a3 = FT.coeff(x, 4).coeff(y, 0), FT.coeff(x, 3).coeff(y, 1)
    M = sympy.Matrix([[a4.diff(A), a4.diff(B)], [a3.diff(A), a3.diff(B)]])
    assert sympy.expand(M.diff(A)) == sympy.zeros(2, 2) == sympy.expand(M.diff(B))
    f13 = a * t1**2 + b * t1 * t3 + c * t3**2
    assert sympy.simplify(M.det() - (t1 * t4 - t2 * t3) * (f13 / a) ** 3) == 0


def test_resolvent_identity():
    # psi = joint_disc(G, H) is a root of x^3 - 3 I x + J for F = G H
    # (the cover statement at counting.decide_member rests on it)
    g2, g1, g0, h2, h1, h0, x = sympy.symbols("g2 g1 g0 h2 h1 h0 x")
    poly = sympy.Poly((g2 * x**2 + g1 * x + g0) * (h2 * x**2 + h1 * x + h0), x)
    a4, a3, a2, a1, a0 = poly.all_coeffs()
    I = 12 * a4 * a0 - 3 * a3 * a1 + a2 * a2
    J = 72 * a4 * a2 * a0 + 9 * a3 * a2 * a1 - 27 * a4 * a1**2 - 27 * a0 * a3**2 - 2 * a2**3
    psi = joint_disc(QuadraticForm(g2, g1, g0), QuadraticForm(h2, h1, h0))
    assert sympy.expand(psi**3 - 3 * I * psi + J) == 0
