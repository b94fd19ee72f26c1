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

The lattice has determinant 4a^3 when b is odd and a^3 when b is even.

The second half of the module handles pairs of quadratic forms (u, v):
their half-Jacobian, joint discriminant, the invariant form with
disc = 4 * disc(half-Jacobian), and the representation F = h(u, v) of a
J = 0 quartic by an outer quadratic h composed with a primitive pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .classes import is_reduced, representations
from .forms import (
    QuadraticForm,
    QuarticForm,
    Unimodular,
    act_quadratic,
    act_quartic,
    hessian_sqrt,
    invariants,
    normalize_quadratic_sign,
)
from .lattices import SubLattice


# ---------------------------------------------------------------------------
# The (A, B) lattice
# ---------------------------------------------------------------------------


def translate_nonzero_alpha(f: QuadraticForm) -> tuple[QuadraticForm, Unimodular]:
    """A unimodular translate of f with nonzero leading coefficient."""
    if f.a != 0:
        return f, Unimodular(1, 0, 0, 1)
    for k in (1, -1, 2, -2, 3, -3):
        T = Unimodular(1, 0, k, 1)
        g = act_quadratic(f, T)
        if g.a != 0:
            return g, T
    raise ValueError(f"cannot make the leading coefficient of {f} nonzero")


def _check_family_form(f: QuadraticForm) -> None:
    if f.a == 0:
        raise ValueError("family forms need a nonzero leading coefficient")
    if f.disc() == 0:
        raise ValueError("family forms need nonzero discriminant")
    if not f.is_primitive():
        raise ValueError("family forms must be primitive")


def lattice_Lfa(f: QuadraticForm) -> SubLattice:
    """The lattice of coefficient pairs (A, B) giving integral members."""
    _check_family_form(f)
    a, b, c = f.coeffs()
    return SubLattice.from_congruences(
        [
            (4 * c, -b, 2 * a),
            (4 * b * c, -(b * b - a * c), a * a),
            (4 * c * (b * b - a * c), -b * (b * b - 2 * a * c), 4 * a**3),
        ]
    )


def lattice_det(f: QuadraticForm) -> int:
    """Index of the (A, B) lattice; asserted against the closed form."""
    L = lattice_Lfa(f)
    a = abs(f.a)
    expected = 4 * a**3 if f.b % 2 else a**3
    assert L.index == expected, (f, L.index, expected)
    return L.index


@dataclass(frozen=True)
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
    _check_family_form(pt.f)
    F = QuarticForm(*family_coefficients(pt.f, pt.A, pt.B))
    triple = invariants(F)
    assert triple.J == 0, (pt, F)
    if triple.disc != 0:
        res = hessian_sqrt(F)
        assert res is not None
        fdiv, _ = res
        assert fdiv == normalize_quadratic_sign(pt.f), (pt, F, fdiv)
    return F


def family_invariant(pt: FamilyPoint) -> tuple[int, Fraction]:
    """(I(F), script-I) for the family point, via the closed forms."""
    a, b, c = pt.f.coeffs()
    A, B = pt.A, pt.B
    q = a * B * B - 4 * b * A * B + 16 * c * A * A
    num = -3 * q * pt.f.disc()
    den = 4 * a**3
    assert num % den == 0, pt
    return num // den, Fraction(q, den)


def member_of(f: QuadraticForm, F: QuarticForm) -> Optional[FamilyPoint]:
    """Invert the family map: Some(A, B) iff F is exactly a member for f."""
    _check_family_form(f)
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


def is_primitive_pair(u: QuadraticForm, v: QuadraticForm) -> bool:
    """Content of the half-Jacobian at most 2."""
    J = jacobian(u, v)
    return not J.is_zero() and J.content() <= 2


def outer_value(h2: int, h1: int, h0: int, u: QuadraticForm, v: QuadraticForm) -> QuarticForm:
    """The quartic h2 u^2 + h1 uv + h0 v^2."""
    uu = _form_square(u)
    vv = _form_square(v)
    uv = _form_product(u, v)
    return QuarticForm(
        *(h2 * x + h1 * y + h0 * z for x, y, z in zip(uu, uv, vv))
    )


def _form_square(u: QuadraticForm):
    a, b, c = u.coeffs()
    return (a * a, 2 * a * b, 2 * a * c + b * b, 2 * b * c, c * c)


def _form_product(u: QuadraticForm, v: QuadraticForm):
    a, b, c = u.coeffs()
    d, e, g = v.coeffs()
    return (a * d, a * e + b * d, a * g + b * e + c * d, b * g + c * e, c * g)


def outer_h0(h2: int, h1: int, u: QuadraticForm, v: QuadraticForm) -> int:
    """h0 forced by the J = 0 constraint; exact division required."""
    dv = v.disc()
    if dv == 0:
        raise ValueError("disc(v) = 0")
    num = joint_disc(u, v) * h1 - u.disc() * h2
    if num % dv:
        raise ValueError("constraint does not have an integral solution")
    return num // dv


def outer_I(h2: int, h1: int, u: QuadraticForm, v: QuadraticForm) -> Fraction:
    """I of h(u, v) under the J = 0 constraint, as an exact rational.

    The denominator is 4 disc(v), matching the 4 a^3 denominator of the
    in-family invariant; verified against the direct invariant on
    randomized constrained instances.
    """
    dv = v.disc()
    if dv == 0:
        raise ValueError("disc(v) = 0")
    dj = jacobian(u, v).disc()
    num = -3 * dj * (dv * h1 * h1 - 4 * joint_disc(u, v) * h1 * h2 + 4 * u.disc() * h2 * h2)
    return Fraction(num, 4 * dv)


@dataclass(frozen=True)
class OuterRep:
    h2: int
    h1: int
    h0: int
    u: QuadraticForm
    v: QuadraticForm


def outer_search(F: QuarticForm, bound: int) -> list[OuterRep]:
    """All representations F = h(u, v) with pair coefficients <= bound.

    Pairs must be primitive; when the half-Jacobian is positive definite the
    output is normalized (half-Jacobian and invariant form reduced with
    positive leading coefficients) and deduplicated under the automorphisms
    of those two forms; otherwise raw matches are returned.
    """
    triple = invariants(F)
    if triple.J != 0:
        raise ValueError("outer search needs J(F) = 0")
    if triple.disc == 0:
        raise ValueError("outer search needs disc(F) != 0")
    found: list[OuterRep] = []
    rng = range(-bound, bound + 1)
    for u2, u1, u0 in product(rng, repeat=3):
        u = QuadraticForm(u2, u1, u0)
        if u.is_zero():
            continue
        for v2, v1, v0 in product(rng, repeat=3):
            v = QuadraticForm(v2, v1, v0)
            if v.is_zero() or not is_primitive_pair(u, v):
                continue
            h = _solve_outer(F, u, v)
            if h is None:
                continue
            found.append(OuterRep(*h, u, v))
    J0 = [r for r in found if jacobian(r.u, r.v).is_positive_definite()]
    if not J0:
        return found
    normalized = []
    for r in J0:
        Jf = jacobian(r.u, r.v)
        Ff = invariant_form(r.u, r.v)
        if is_reduced(Jf) and Jf.a > 0 and is_reduced(Ff) and Ff.a > 0:
            normalized.append(r)
    return _dedup_outer(normalized) if normalized else found


def _solve_outer(F: QuarticForm, u, v) -> Optional[tuple[int, int, int]]:
    cols = [_form_square(u), _form_product(u, v), _form_square(v)]
    target = F.coeffs()
    # exact solve of the 5x3 system by fraction-free elimination
    rows = [[cols[0][i], cols[1][i], cols[2][i], target[i]] for i in range(5)]
    sol = _solve_int_system(rows)
    return sol


def _solve_int_system(rows) -> Optional[tuple[int, int, int]]:
    m = [[Fraction(x) for x in row] for row in rows]
    n_cols = 3
    piv_rows = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        piv_rows.append(c)
        r += 1
    # consistency
    for i in range(len(m)):
        if all(m[i][c] == 0 for c in range(n_cols)) and m[i][3] != 0:
            return None
    if len(piv_rows) < n_cols:
        return None  # underdetermined (proportional pair); skip
    sol = [Fraction(0)] * n_cols
    for idx, c in enumerate(piv_rows):
        sol[c] = m[idx][3]
    if any(s.denominator != 1 for s in sol):
        return None
    return (int(sol[0]), int(sol[1]), int(sol[2]))


def _dedup_outer(reps: list[OuterRep]) -> list[OuterRep]:
    """Dedup (u, v) modulo Aut(invariant form) x Aut(half-Jacobian)."""
    out = []
    seen = set()
    for r in sorted(reps, key=lambda r: (r.u.coeffs(), r.v.coeffs())):
        Jf = jacobian(r.u, r.v)
        Ff = invariant_form(r.u, r.v)
        orbit = set()
        for T in unit_automorphisms(Ff):
            # outer action: (u, v) -> (t1 u + t2 v, t3 u + t4 v)
            U = _lin_comb(T.t1, r.u, T.t2, r.v)
            V = _lin_comb(T.t3, r.u, T.t4, r.v)
            for S in unit_automorphisms(Jf):
                orbit.add(
                    (act_quadratic(U, S).coeffs(), act_quadratic(V, S).coeffs())
                )
        key = min(orbit)
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


def _lin_comb(s: int, u: QuadraticForm, t: int, v: QuadraticForm) -> QuadraticForm:
    return QuadraticForm(
        s * u.a + t * v.a, s * u.b + t * v.b, s * u.c + t * v.c
    )


def unit_automorphisms(f: QuadraticForm) -> list[Unimodular]:
    """All T in GL2(Z) with f_T = f, for positive definite f."""
    if not f.is_positive_definite():
        raise ValueError("finite automorphism groups need definite forms")
    out = []
    for (x1, y1) in representations(f, f.a):
        for (x2, y2) in representations(f, f.c):
            if x1 * y2 - x2 * y1 not in (1, -1):
                continue
            T = Unimodular(x1, x2, y1, y2)
            if act_quadratic(f, T) == f:
                out.append(T)
    return out


# ---------------------------------------------------------------------------
# The fiber action: symmetries of f acting on (A, B)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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

    @property
    def generic_size(self) -> int:
        return len(self.maps)


def fiber_action(f: QuadraticForm) -> FiberAction:
    """Compute the induced (A, B)-action of the signed automorphisms of f."""
    from .classes import signed_automorphisms

    _check_family_form(f)
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
