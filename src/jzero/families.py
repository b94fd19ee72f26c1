"""The two-parameter families of integral quartics with vanishing J.

Fix a primitive quadratic form f = a x^2 + b xy + c y^2 with a != 0 and
disc(f) != 0.  The integral quartics whose Hessian is divisible by f^2
form a rank-2 lattice: with

    A1 = 4c A - b B,  A2 = 4bc A - (b^2 - ac) B,  A3 = 4c(b^2 - ac) A - b(b^2 - 2ac) B,

the pairs (A, B) subject to

    A1 = 0 (mod 2a),  A2 = 0 (mod a^2),  A3 = 0 (mod 4a^3)

map bijectively onto that family via

    F = A x^4 + B x^3 y - (3 A1 / 2a) x^2 y^2 - (A2 / a^2) x y^3 - (A3 / 4a^3) y^4,

and then I(F) = -3 (a B^2 - 4b A B + 16c A^2) disc(f) / (4 a^3) with J(F) = 0.

The lattice has determinant 4|a|^3 when b is odd and |a|^3 when b is even.
When gcd(a, b) = 1 it is {(A, kA + d2 t)} with d2 that determinant and k
in closed form (`lattice_triple`): the third congruence alone.  Otherwise the
second and third congruences cut it out; they imply the first.

The second half of the module handles pairs of quadratic forms (u, v):
their half-Jacobian, joint discriminant, the invariant form with
disc = 4 * disc(half-Jacobian), and the quartic h(u, v) of an outer
quadratic h composed with the pair.
"""

from __future__ import annotations

import math
from typing import Optional

from .forms import (
    QuadraticForm,
    QuarticForm,
    _exact_sqrt,
    act_quartic,
    hessian_sqrt,
    invariants,
    normalize_quadratic_sign,
    quadratic_product,
    value_type,
)
from .lattices import SubLattice


# ---------------------------------------------------------------------------
# The (A, B) lattice
# ---------------------------------------------------------------------------


def _check_family_form(a: int, b: int, c: int) -> None:
    """Raise ValueError unless (a, b, c) is a family form: a != 0,
    disc != 0, primitive."""
    if a == 0:
        raise ValueError("family forms need a nonzero leading coefficient")
    if b * b == 4 * a * c:
        raise ValueError("family forms need nonzero discriminant")
    if math.gcd(a, b, c) != 1:
        raise ValueError("family forms must be primitive")


def _lattice_congruences(a: int, b: int, c: int) -> list[tuple[int, int, int]]:
    """The congruences A1 = 0 (mod 2a), A2 = 0 (mod a^2), A3 = 0 (mod 4a^3)."""
    return [
        (4 * c, -b, 2 * a),
        (4 * b * c, -(b * b - a * c), a * a),
        (4 * c * (b * b - a * c), -b * (b * b - 2 * a * c), 4 * a**3),
    ]


def lattice_Lfa(f: QuadraticForm) -> SubLattice:
    """The lattice of coefficient pairs (A, B) giving integral members,
    with the HNF triple of `lattice_triple`."""
    return SubLattice(*lattice_triple(f.a, f.b, f.c))


def lattice_triple(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The HNF triple (d1, k, d2) of the lattice of the family form
    (a, b, c), on plain integers; ValueError unless it is a family form.

    When gcd(a, b) = 1 the triple is (1, k, d2), in closed form:
    b odd: d2 = 4|a|^3, k = 4c(b^2 - ac) / (b(b^2 - 2ac)) mod d2;
    b even, h = b/2: d2 = |a|^3, k = c(b^2 - ac) / (h(2h^2 - ac)) mod d2.
    The divisor is a unit mod d2: b, h, and b^2 - 2ac = b^2, 2h^2 - ac = 2h^2
    mod p | a are prime to a, b(b^2 - 2ac) is odd, and a is odd when b is
    even.  As A3 = 4(c(b^2 - ac) A - h(2h^2 - ac) B) for b = 2h, the third
    congruence is B = kA (mod d2), and it implies the other two:
    A3 = (b^2 - ac) A1 + abc B with b^2 - ac a unit mod a gives a | A1; with
    A1 = a m, (b^2 - ac) m = -bc B (mod a^2) gives a | bm + cB, so
    a^2 | A2 = bA1 + acB = a(bm + cB).  And 2a | A1: for b even A1 is even
    and a odd; for b odd 4 | A3 gives 4 | B, so 2 | A1 = 4cA - bB, and if
    a is even b^2 - ac is odd and (b^2 - ac) A1 = -abc B (mod 4a^3) puts
    one more 2 in A1 than in a.

    Other forms go through `SubLattice.from_congruences` with the second
    and third congruences only, since for any primitive f those imply
    A1 = 0 (mod 2a).  It suffices that v_p(A1) >= v_p(2a) for each prime
    p | 2a; let v = v_p(a).  The identities
    a c A1 = b A2 - A3 and A2 = b A1 + a c B hold.
    * p | a, p does not divide c, and p is odd or b even:
      v + v_p(A1) = v_p(b A2 - A3) >= min(v_p(b) + 2v, 3v + 2 v_p(2)),
      which is >= 2v, and >= 2v + 1 when p = 2 divides b; so
      v_p(A1) >= v_p(2a).
    * p | a and p | c: then p does not divide b (f is primitive), and
      v_p(b A1) = v_p(A2 - a c B) >= min(2v, v + 1) = v + 1 >= v_p(2a).
    * p = 2, b odd: b(b^2 - 2ac) is odd and 4 | A3 = 4c(b^2 - ac) A -
      b(b^2 - 2ac) B, so 4 | B and 4 | A1 = 4cA - bB, enough for a odd;
      for a even, b^2 - ac is odd and (b^2 - ac) A1 = A3 - abc B has
      v_2 >= min(3v + 2, v + 2) = v + 2.
    * p = 2, a odd, b even: A1 = 4cA - bB is even.
    The HNF triple of a lattice is unique, so the two congruences give the
    same triple as the three; `lattice_det` asserts it against all three.
    """
    _check_family_form(a, b, c)
    if math.gcd(a, b) != 1:
        L = SubLattice.from_congruences(_lattice_congruences(a, b, c)[1:])
        return L.d1, L.k, L.d2
    if b % 2:
        d2 = 4 * abs(a * a * a)
        k = 4 * c * (b * b - a * c) * pow(b * (b * b - 2 * a * c), -1, d2) % d2
    else:
        h, d2 = b // 2, abs(a * a * a)
        k = c * (b * b - a * c) * pow(h * (2 * h * h - a * c), -1, d2) % d2
    return 1, k, d2


def lattice_det(f: QuadraticForm) -> int:
    """Index of the (A, B) lattice; the triple is asserted against
    `SubLattice.from_congruences` and the index against 4|a|^3 or |a|^3."""
    L = lattice_Lfa(f)
    assert L == SubLattice.from_congruences(_lattice_congruences(*f.coeffs())), (f, L)
    a = abs(f.a)
    expected = 4 * a**3 if f.b % 2 else a**3
    assert L.index == expected, (f, L.index, expected)
    return L.index


@value_type
class FamilyPoint:
    f: QuadraticForm
    A: int
    B: int


def family_coefficients(f: QuadraticForm, A: int, B: int) -> tuple[int, int, int, int, int]:
    """Quartic coefficients for (A, B); raises on a lattice violation."""
    a, b, c = f.coeffs()
    A1 = 4 * c * A - b * B
    A2 = 4 * b * c * A - (b * b - a * c) * B
    A3 = 4 * c * (b * b - a * c) * A - b * (b * b - 2 * a * c) * B
    if (3 * A1) % (2 * a) or A2 % (a * a) or A3 % (4 * a**3):
        raise ValueError(f"({A},{B}) is not in the lattice of {f}")
    return (A, B, -3 * A1 // (2 * a), -A2 // (a * a), -A3 // (4 * a**3))


def family_member(pt: FamilyPoint) -> QuarticForm:
    """The quartic of a family point, with its defining identities asserted."""
    _check_family_form(*pt.f.coeffs())
    F = QuarticForm(*family_coefficients(pt.f, pt.A, pt.B))
    triple = invariants(F)
    assert triple.J == 0, (pt, F)
    if triple.disc != 0:
        res = hessian_sqrt(F)
        assert res is not None
        fdiv, _ = res
        assert fdiv == normalize_quadratic_sign(pt.f), (pt, F, fdiv)
    return F


def family_invariant(pt: FamilyPoint) -> tuple[int, tuple[int, int]]:
    """(I(F), script-I) for the family point, via the closed forms; script-I
    is the exact rational q / (4 a^3) as the integer pair (q, 4 a^3), not
    reduced."""
    a, b, c = pt.f.coeffs()
    A, B = pt.A, pt.B
    q = a * B * B - 4 * b * A * B + 16 * c * A * A
    num = -3 * q * pt.f.disc()
    den = 4 * a**3
    assert num % den == 0, pt
    return num // den, (q, den)


def square_split(
    f: QuadraticForm, A: int, B: int, F: QuarticForm, s: Optional[int] = None
) -> Optional[tuple[QuadraticForm, QuadraticForm]]:
    """Integral quadratics (G, H) with G H = 16 a^4 A F, where F is the
    member of the family of f at (A, B), when a q(A, B) is a perfect
    square s^2 (q = a B^2 - 4b AB + 16c A^2); otherwise None.  A caller
    that has taken the root s already passes it; a wrong s fails the
    product check below and gives None, never a false split.

        G = (4a^2 A, 2a(aB + s), b(aB + s) - 4ac A),
        H = (4a^2 A, 2a(aB - s), b(aB - s) - 4ac A).

    The product is checked coefficient by coefficient before (G, H) is
    returned, and A != 0, so G and H have nonzero x^2 coefficients and
    F = G H / (16 a^4 A) is reducible over Q: a returned split proves
    that without the argument below, for any divisor f.

    Why the split finds every point F = u v whose rational quadratic
    factors have psi(u, v) = `joint_disc`(u, v) = 0; the argument uses
    only a != 0 and I(F) != 0, so it covers positive definite f and
    a x^2 + n xy alike.  Write u = u2 (x^2 + g1 xy + g0 y^2) and
    v = v2 (x^2 + h1 xy + h0 y^2) with A = u2 v2 != 0; psi = 0 reads
    g0 + h0 = g1 h1 / 2.  Matching the x^4, x^3 y and x^2 y^2 coefficients
    with F = (A, B, -3(4cA - bB)/(2a), ...) gives B = A (g1 + h1) and
    (3/2) A g1 h1 = -3(4cA - bB)/(2a), so g1 and h1 are the roots of

        A t^2 - B t - (4cA - bB)/a,

    whose discriminant is q/a.  Since I(F) = -3 q disc(f) / (4a^3) != 0,
    g1 != h1, a q = (aA (g1 - h1))^2 is a nonzero integer square s^2, and
    {g1, h1} = {(aB + s)/(2aA), (aB - s)/(2aA)}.  The x y^3 coefficient
    a1 = ((b^2 - ac) B - 4bc A)/a^2 and psi = 0 give h1 g0 + g1 h0 = a1/A
    and g0 + h0 = g1 h1 / 2, a nonsingular system (g1 != h1) that
    g0 = (b g1 - 2c)/(2a), h0 = (b h1 - 2c)/(2a) solve.  So u and v are,
    up to order and scale, the G and H above, the product check passes,
    and the split is returned.  Points whose factors
    have psi != 0 have a square disc(F) (`counting.decide_member`) and
    need not be split.
    """
    if A == 0:
        return None
    a, b, c = f.coeffs()
    if s is None:
        s = _exact_sqrt(a * (a * B * B - 4 * b * A * B + 16 * c * A * A))
        if s is None:
            return None
    lead = 4 * a * a * A
    G = QuadraticForm(lead, 2 * a * (a * B + s), b * (a * B + s) - 4 * a * c * A)
    H = QuadraticForm(lead, 2 * a * (a * B - s), b * (a * B - s) - 4 * a * c * A)
    scale = 4 * a * a * lead
    if quadratic_product(G.coeffs(), H.coeffs()) != tuple(scale * x for x in F.coeffs()):
        return None
    return G, H


def member_of(f: QuadraticForm, F: QuarticForm) -> Optional[FamilyPoint]:
    """Invert the family map: Some(A, B) iff F is exactly a member for f."""
    _check_family_form(*f.coeffs())
    if F.is_zero():
        return None
    A, B = F.a4, F.a3
    try:
        coeffs = family_coefficients(f, A, B)
    except ValueError:
        return None
    if coeffs == F.coeffs():
        return FamilyPoint(f, A, B)
    return None


def plane_residual(f: QuadraticForm, F: QuarticForm) -> int:
    """12c a4 - 3b a3 + 2a a2; vanishes on the family plane of f."""
    a, b, c = f.coeffs()
    return 12 * c * F.a4 - 3 * b * F.a3 + 2 * a * F.a2


def mf_unscaled(f: QuadraticForm) -> tuple[tuple[int, int], tuple[int, int]]:
    """The integer matrix ((b, 2c), (-2a, -b)); divide by sqrt|disc| to get
    the involution fixing the family."""
    a, b, c = f.coeffs()
    return ((b, 2 * c), (-2 * a, -b))


# ---------------------------------------------------------------------------
# Pairs of quadratic forms
# ---------------------------------------------------------------------------


def jacobian(u: QuadraticForm, v: QuadraticForm) -> QuadraticForm:
    """Half the Jacobian determinant of the pair (u, v)."""
    return QuadraticForm(
        u.a * v.b - u.b * v.a,
        2 * (u.a * v.c - u.c * v.a),
        u.b * v.c - u.c * v.b,
    )


def joint_disc(u: QuadraticForm, v: QuadraticForm) -> int:
    return 2 * u.a * v.c - u.b * v.b + 2 * u.c * v.a


def invariant_form(u: QuadraticForm, v: QuadraticForm) -> QuadraticForm:
    """disc(u) x^2 + 2 joint xy + disc(v) y^2; disc = 4 disc(jacobian)."""
    F = QuadraticForm(u.disc(), 2 * joint_disc(u, v), v.disc())
    assert F.disc() == 4 * jacobian(u, v).disc()
    return F


def outer_value(h2: int, h1: int, h0: int, u: QuadraticForm, v: QuadraticForm) -> QuarticForm:
    """The quartic h2 u^2 + h1 uv + h0 v^2."""
    uu = quadratic_product(u.coeffs(), u.coeffs())
    vv = quadratic_product(v.coeffs(), v.coeffs())
    uv = quadratic_product(u.coeffs(), v.coeffs())
    return QuarticForm(
        *(h2 * x + h1 * y + h0 * z for x, y, z in zip(uu, uv, vv))
    )


def outer_h0(h2: int, h1: int, u: QuadraticForm, v: QuadraticForm) -> int:
    """h0 forced by the J = 0 constraint; exact division required."""
    dv = v.disc()
    if dv == 0:
        raise ValueError("disc(v) = 0")
    num = joint_disc(u, v) * h1 - u.disc() * h2
    if num % dv:
        raise ValueError("constraint does not have an integral solution")
    return num // dv


def outer_I(h2: int, h1: int, u: QuadraticForm, v: QuadraticForm) -> tuple[int, int]:
    """I of h(u, v) under the J = 0 constraint, as the exact rational
    num / den given by the integer pair (num, den), not reduced.

    The denominator is 4 disc(v), matching the 4 a^3 denominator of the
    in-family invariant; verified against the direct invariant on
    randomized constrained instances.
    """
    dv = v.disc()
    if dv == 0:
        raise ValueError("disc(v) = 0")
    dj = jacobian(u, v).disc()
    num = -3 * dj * (dv * h1 * h1 - 4 * joint_disc(u, v) * h1 * h2 + 4 * u.disc() * h2 * h2)
    return num, 4 * dv


# ---------------------------------------------------------------------------
# The fiber action: symmetries of f acting on (A, B)
# ---------------------------------------------------------------------------


@value_type
class FiberAction:
    """The finite group induced on (A, B) by {T: f_T = +-f}.

    Maps are exact rational 2x2 matrices preserving the coefficient lattice,
    stored as integer numerators (m11, m12, m21, m22) over the common
    denominator `den`; the generic orbit size equals the cover multiplicity
    n_f, while special points can have smaller orbits.
    """

    f: QuadraticForm
    den: int
    maps: tuple[tuple[int, int, int, int], ...]

    def orbit(self, A: int, B: int) -> list[tuple[int, int]]:
        den = self.den
        out = set()
        for (m11, m12, m21, m22) in self.maps:
            x, rx = divmod(m11 * A + m12 * B, den)
            y, ry = divmod(m21 * A + m22 * B, den)
            assert rx == 0 and ry == 0, (self.f, A, B)
            out.add((x, y))
        return sorted(out)

    def orbit_size(self, A: int, B: int) -> int:
        return len(self.orbit(A, B))

    def canonical(self, A: int, B: int) -> tuple[int, int]:
        return self.orbit(A, B)[0]


def fiber_action(f: QuadraticForm) -> FiberAction:
    """Compute the induced (A, B)-action of the signed automorphisms of f."""
    from .classes import signed_automorphisms

    _check_family_form(*f.coeffs())
    L = lattice_Lfa(f)
    v1, v2 = (L.d1, L.k), (0, L.d2)
    F1 = family_member(FamilyPoint(f, *v1))
    F2 = family_member(FamilyPoint(f, *v2))
    maps = set()
    for T in signed_automorphisms(f):
        i1 = act_quartic(F1, T)
        i2 = act_quartic(F2, T)
        a1, b1 = i1.a4, i1.a3
        a2, b2 = i2.a4, i2.a3
        # M = [img1 img2] * [[d1,0],[k,d2]]^-1, over the denominator d1 d2
        m11 = a1 * L.d2 - a2 * L.k
        m12 = a2 * L.d1
        m21 = b1 * L.d2 - b2 * L.k
        m22 = b2 * L.d1
        # sanity: images are family points of f again
        assert member_of(f, i1) is not None and member_of(f, i2) is not None
        maps.add((m11, m12, m21, m22))
    return FiberAction(f, L.d1 * L.d2, tuple(sorted(maps)))
