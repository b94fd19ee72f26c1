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

The lattice has determinant 4|a|^3 when b is odd and |a|^3 when b is even,
for every family form.  For T = (t1 t2; t3 t4) in GL2(Z), F -> F o T maps
the family of f onto that of f' = f o T (the Hessian is a covariant, and
det T = +-1), with inverse F' -> F' o T^-1.  On (A, B) = (a4, a3) it is a
rational linear map M_T taking the lattice L of f onto that of f', with

    det M_T = det T (a'/a)^3,      a' = f(t1, t3)

(a polynomial identity; `tests/test_families.py` checks it symbolically).
So [Z^2 : L] / |a|^3 depends only on the class of f, and so does b mod 2,
since D = -b^2 (mod 4).  The index is the product over the primes p of the
local indices, each cut out by the p-parts of the moduli 2a, a^2, 4a^3.
Fix p; f is primitive, so one of f(1,0), f(0,1), f(1,1) is prime to p, and
some T gives p not dividing a'.  Write a, b, c for the coefficients of that
f'.  For p odd its moduli have no p-part: local index 1.  For p = 2 they
leave A1 = 0 (mod 2) and A3 = 0 (mod 4).  For b even both hold everywhere
(A1 = 4cA - bB, A3 = 4(c(b^2 - ac)A - h(2h^2 - ac)B) with b = 2h): local
index 1.  For b odd b(b^2 - 2ac) is odd, so the two read 4 | B: local
index 4.  So v_p of [Z^2 : L] / |a|^3, for f' and hence for f, is v_p(4)
for b odd and 0 for b even, at every p.

For every form the HNF triple (d1, k, d2) is in closed form: the diagonal
from two gcds (`lattice_diagonal`), and k from the second and third
congruences at A = d1, one modular quotient and at most one CRT step
(`lattice_triple`).  Those two congruences cut out the lattice: they imply
the first.

The second half of the module handles pairs of quadratic forms (u, v):
their half-Jacobian, joint discriminant, the invariant form with
disc = 4 * disc(half-Jacobian), and the quartic h(u, v) of an outer
quadratic h composed with the pair.
"""

from __future__ import annotations

import math
from typing import Optional

from .classes import _crt, signed_automorphisms
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


def lattice_Lfa(f: QuadraticForm) -> SubLattice:
    """The lattice of coefficient pairs (A, B) giving integral members,
    solved from the three congruences: the reference for the closed forms
    of `lattice_triple` and `lattice_diagonal`."""
    a, b, c = f.coeffs()
    _check_family_form(a, b, c)
    return SubLattice.from_congruences(
        [
            (4 * c, -b, 2 * a),
            (4 * b * c, -(b * b - a * c), a * a),
            (4 * c * (b * b - a * c), -b * (b * b - 2 * a * c), 4 * a**3),
        ]
    )


def _diagonal(a: int, b: int, c: int) -> tuple[int, int, int, int, int, int, int, int]:
    """(d1, d2, v2, g2, m2, v3, g3, m3): `lattice_diagonal` and its moduli."""
    n2, n3 = a * a, 4 * abs(a * a * a)
    v2, v3 = b * b - a * c, b * (b * b - 2 * a * c)
    g2, g3 = math.gcd(v2, n2), math.gcd(v3, n3)
    m2, m3 = n2 // g2, n3 // g3
    d2 = math.lcm(m2, m3)
    return (n3 if b % 2 else n3 // 4) // d2, d2, v2, g2, m2, v3, g3, m3


def lattice_diagonal(a: int, b: int, c: int) -> tuple[int, int]:
    """(d1, d2) of the HNF triple of the family form (a, b, c), in closed
    form for every family form (the form is not checked):

        d2 = lcm(a^2 / gcd(b^2 - ac, a^2), 4|a|^3 / gcd(b(b^2 - 2ac), 4|a|^3)),
        d1 = 4|a|^3 / d2 (b odd) or |a|^3 / d2 (b even).

    d2 is the least B > 0 with (0, B) in the lattice.  At A = 0 the second
    and third congruences read (b^2 - ac) B = 0 (mod a^2) and
    b(b^2 - 2ac) B = 0 (mod 4a^3), they imply the first (`lattice_triple`),
    and u B = 0 (mod N) exactly when N / gcd(u, N) divides B.  d1 d2 is the
    determinant (module docstring)."""
    return _diagonal(a, b, c)[:2]


def lattice_triple(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The HNF triple (d1, k, d2) of the lattice of the family form
    (a, b, c), on plain integers; ValueError unless it is a family form.

    (d1, d2) is `lattice_diagonal`, and k is the class mod d2 of the B with
    (d1, B) in the lattice, which exist since d1 is the least A > 0 of a
    point.  The second and third congruences cut out the lattice (below).
    At A = d1 they read v2 B = 4bc d1 (mod a^2) and v3 B = 4c v2 d1
    (mod 4|a|^3), with v2 = b^2 - ac and v3 = b(b^2 - 2ac).  Each has a
    solution, so the divisor g_i = gcd(v_i, n_i) of v_i and of its modulus
    n_i divides its right side, and it reads B = r_i (mod m_i = n_i / g_i),
    with v_i / g_i a unit mod m_i.  k solves both, a class mod
    lcm(m2, m3) = d2: r3 when m2 | m3, else one CRT step.

    For any primitive f the second and third congruences imply
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
    `lattice_det` asserts the triple against all three congruences
    (`lattice_Lfa`).
    """
    _check_family_form(a, b, c)
    d1, d2, v2, g2, m2, v3, g3, m3 = _diagonal(a, b, c)
    k = 4 * c * v2 * d1 // g3 * pow(v3 // g3, -1, m3) % m3
    if d2 > m3:
        k, _ = _crt(k, m3, 4 * b * c * d1 // g2 * pow(v2 // g2, -1, m2) % m2, m2)
    return d1, k, d2


def lattice_det(f: QuadraticForm) -> int:
    """Index of the (A, B) lattice; `lattice_triple` and `lattice_diagonal`
    are asserted against `lattice_Lfa` and the index against 4|a|^3 or
    |a|^3."""
    L = lattice_Lfa(f)
    assert L == SubLattice(*lattice_triple(*f.coeffs())), (f, L)
    assert (L.d1, L.d2) == lattice_diagonal(*f.coeffs()), (f, L)
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

    `orbit`, `orbit_size` and `canonical` take a lattice point (A, B) of f's
    family, and `orbit` divides by `den` with `//`: the division is exact.
    `fiber_action` checks that every map sends the lattice basis (d1, k),
    (0, d2) to family points, which are lattice points; a lattice point is
    an integral combination of that basis, so by linearity its image is the
    same combination of lattice points, again integral.
    """

    f: QuadraticForm
    den: int
    maps: tuple[tuple[int, int, int, int], ...]

    def orbit(self, A: int, B: int) -> list[tuple[int, int]]:
        den = self.den
        images = {
            ((m11 * A + m12 * B) // den, (m21 * A + m22 * B) // den)
            for (m11, m12, m21, m22) in self.maps
        }
        return sorted(images)

    def orbit_size(self, A: int, B: int) -> int:
        return len(self.orbit(A, B))

    def canonical(self, A: int, B: int) -> tuple[int, int]:
        return self.orbit(A, B)[0]

    def with_negation(self) -> FiberAction:
        """+-G: these maps and their negations, whose orbit of (A, B) is the
        union of the orbits of (A, B) and (-A, -B) under these maps alone."""
        neg = tuple((-m11, -m12, -m21, -m22) for (m11, m12, m21, m22) in self.maps)
        return FiberAction(self.f, self.den, self.maps + neg)


def fiber_action(f: QuadraticForm) -> FiberAction:
    """Compute the induced (A, B)-action of the signed automorphisms of f."""
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
        # images are family points of f again: `FiberAction.orbit` divides exactly
        assert member_of(f, i1) is not None and member_of(f, i2) is not None
        maps.add((m11, m12, m21, m22))
    return FiberAction(f, L.d1 * L.d2, tuple(sorted(maps)))
