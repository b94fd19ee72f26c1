"""Exact arithmetic on integral binary quadratic and quartic forms.

A binary quartic form

    F(x,y) = a4 x^4 + a3 x^3 y + a2 x^2 y^2 + a1 x y^3 + a0 y^4

carries two generators of its polynomial invariant ring under the
substitution action of GL2,

    I(F) = 12 a4 a0 - 3 a3 a1 + a2^2
    J(F) = 72 a4 a2 a0 + 9 a3 a2 a1 - 27 a4 a1^2 - 27 a0 a3^2 - 2 a2^3

with discriminant 27 * disc(F) = 4 I^3 - J^2 (an exact integer identity).
J(F) = 0 exactly when the Hessian covariant H_F is the square of a
quadratic form up to a rational scale; extracting that square root is
what ties quartics to binary quadratic forms throughout this package.

Everything here is pure integer arithmetic: no floats, no rounding.
Real-root counting is done with exact Sturm sequences and rational
factor searches use divisor enumeration with a recorded Mignotte-style
coefficient bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional


# ---------------------------------------------------------------------------
# Form types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticForm:
    """a x^2 + b xy + c y^2 with integer coefficients."""

    a: int
    b: int
    c: int

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def content(self) -> int:
        return math.gcd(math.gcd(abs(self.a), abs(self.b)), abs(self.c))

    def is_primitive(self) -> bool:
        return self.content() == 1

    def is_positive_definite(self) -> bool:
        return self.disc() < 0 and self.a > 0

    def is_zero(self) -> bool:
        return self.a == 0 == self.b == self.c

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def neg(self) -> "QuadraticForm":
        return QuadraticForm(-self.a, -self.b, -self.c)

    def primitive_part(self) -> "QuadraticForm":
        g = self.content()
        if g == 0:
            return self
        return QuadraticForm(self.a // g, self.b // g, self.c // g)

    def coeffs(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


@dataclass(frozen=True)
class QuarticForm:
    """a4 x^4 + a3 x^3 y + a2 x^2 y^2 + a1 x y^3 + a0 y^4, integer coefficients."""

    a4: int
    a3: int
    a2: int
    a1: int
    a0: int

    def coeffs(self) -> tuple[int, int, int, int, int]:
        return (self.a4, self.a3, self.a2, self.a1, self.a0)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs())

    def content(self) -> int:
        g = 0
        for c in self.coeffs():
            g = math.gcd(g, abs(c))
        return g

    def is_primitive(self) -> bool:
        return self.content() == 1

    def primitive_part(self) -> "QuarticForm":
        g = self.content()
        if g == 0:
            return self
        return QuarticForm(*(c // g for c in self.coeffs()))

    def neg(self) -> "QuarticForm":
        return QuarticForm(*(-c for c in self.coeffs()))

    def value(self, x: int, y: int) -> int:
        a4, a3, a2, a1, a0 = self.coeffs()
        return (
            a4 * x**4 + a3 * x**3 * y + a2 * x * x * y * y + a1 * x * y**3 + a0 * y**4
        )

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs())


@dataclass(frozen=True)
class Unimodular:
    """Integer 2x2 matrix [[t1,t2],[t3,t4]] with determinant +-1."""

    t1: int
    t2: int
    t3: int
    t4: int

    def __post_init__(self):
        if self.det() not in (1, -1):
            raise ValueError(f"matrix {self.entries()} is not unimodular")

    def det(self) -> int:
        return self.t1 * self.t4 - self.t2 * self.t3

    def entries(self) -> tuple[int, int, int, int]:
        return (self.t1, self.t2, self.t3, self.t4)

    def mul(self, other: "Unimodular") -> "Unimodular":
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        return Unimodular(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inverse(self) -> "Unimodular":
        a, b, c, d = self.entries()
        s = self.det()  # +-1, so the adjugate divided by s is integral
        return Unimodular(d * s, -b * s, -c * s, a * s)


IDENTITY = Unimodular(1, 0, 0, 1)


@dataclass(frozen=True)
class InvariantTriple:
    I: int
    J: int
    disc: int


class SplittingType(Enum):
    S1111 = "1111"  # four real linear factors
    S112 = "112"  # two real linear factors and a definite quadratic
    S22 = "22"  # two definite quadratic factors
    DEGENERATE = "degenerate"  # disc = 0


# ---------------------------------------------------------------------------
# Invariants and covariants
# ---------------------------------------------------------------------------


def invariants(F: QuarticForm) -> InvariantTriple:
    """I, J and the discriminant (4I^3 - J^2)/27, all exact."""
    a4, a3, a2, a1, a0 = F.coeffs()
    I = 12 * a4 * a0 - 3 * a3 * a1 + a2 * a2
    J = (
        72 * a4 * a2 * a0
        + 9 * a3 * a2 * a1
        - 27 * a4 * a1 * a1
        - 27 * a0 * a3 * a3
        - 2 * a2**3
    )
    num = 4 * I**3 - J * J
    if num % 27 != 0:
        raise AssertionError(f"27 does not divide 4I^3 - J^2 for F={F}")
    return InvariantTriple(I, J, num // 27)


def hessian(F: QuarticForm) -> QuarticForm:
    """The Hessian covariant, itself a binary quartic form."""
    a4, a3, a2, a1, a0 = F.coeffs()
    return QuarticForm(
        3 * a3 * a3 - 8 * a4 * a2,
        4 * (a3 * a2 - 6 * a4 * a1),
        2 * (2 * a2 * a2 - 24 * a4 * a0 - 3 * a3 * a1),
        4 * (a2 * a1 - 6 * a3 * a0),
        3 * a1 * a1 - 8 * a2 * a0,
    )


def _exact_sqrt(n: int) -> Optional[int]:
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def _square_root_of_quartic(G: QuarticForm) -> Optional[QuadraticForm]:
    """If G = f^2 for an integral quadratic f, return f (lex-normalized sign)."""
    g4, g3, g2, g1, g0 = G.coeffs()
    if g4 > 0:
        a = _exact_sqrt(g4)
        if a is None:
            return None
        if g3 % (2 * a) != 0:
            return None
        b = g3 // (2 * a)
        num = g2 - b * b
        if num % (2 * a) != 0:
            return None
        c = num // (2 * a)
        f = QuadraticForm(a, b, c)
    elif g4 == 0:
        # a = 0, so f = b xy + c y^2 and G has no x^4 or x^3 y term
        if g3 != 0:
            return None
        b = _exact_sqrt(g2)
        if b is None:
            return None
        if b == 0:
            c = _exact_sqrt(g0)
            if c is None or g1 != 0:
                return None
            f = QuadraticForm(0, 0, c)
        else:
            if g1 % (2 * b) != 0:
                return None
            c = g1 // (2 * b)
            f = QuadraticForm(0, b, c)
    else:
        return None
    # verify the full expansion, not just the solved-for coefficients
    a, b, c = f.coeffs()
    if (
        a * a == g4
        and 2 * a * b == g3
        and 2 * a * c + b * b == g2
        and 2 * b * c == g1
        and c * c == g0
    ):
        return f
    return None


def normalize_quadratic_sign(f: QuadraticForm) -> QuadraticForm:
    """Flip sign so the leading nonzero coefficient (a, then b, then c) is > 0."""
    for coef in f.coeffs():
        if coef > 0:
            return f
        if coef < 0:
            return f.neg()
    return f


def hessian_sqrt(F: QuarticForm) -> Optional[tuple[QuadraticForm, int]]:
    """Write H_F = c * f^2 with f primitive integral, if possible.

    Returns (f, c) with f sign-normalized (positive leading coefficient,
    hence positive definite orientation whenever disc(f) < 0) and c the
    integer scale carrying the sign; None when H_F is not a square up to
    scale.  For integral F this succeeds exactly when J(F) = 0.
    """
    H = hessian(F)
    if H.is_zero():
        return None
    k = H.content()
    G = H.primitive_part()
    for sign in (1, -1):
        cand = QuarticForm(*(sign * c for c in G.coeffs()))
        f = _square_root_of_quartic(cand)
        if f is not None:
            return normalize_quadratic_sign(f), sign * k
    return None


# ---------------------------------------------------------------------------
# Substitution action
# ---------------------------------------------------------------------------


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return out


def act_quartic(F: QuarticForm, T: Unimodular) -> QuarticForm:
    """F(t1 x + t2 y, t3 x + t4 y) for unimodular T."""
    a4, a3, a2, a1, a0 = F.coeffs()
    u = [T.t1, T.t2]  # coefficients of t1 x + t2 y in the basis (x, y)
    v = [T.t3, T.t4]
    u2, v2, uv = _poly_mul(u, u), _poly_mul(v, v), _poly_mul(u, v)
    u3, v3 = _poly_mul(u2, u), _poly_mul(v2, v)
    terms = [
        (a4, _poly_mul(u2, u2)),
        (a3, _poly_mul(u3, v)),
        (a2, _poly_mul(u2, v2)),
        (a1, _poly_mul(u, v3)),
        (a0, _poly_mul(v2, v2)),
    ]
    out = [0] * 5
    for coef, poly in terms:
        if coef:
            for i, p in enumerate(poly):
                out[i] += coef * p
    return QuarticForm(*out)


def act_quadratic(f: QuadraticForm, T: Unimodular) -> QuadraticForm:
    """f(t1 x + t2 y, t3 x + t4 y) for unimodular T."""
    a, b, c = f.coeffs()
    t1, t2, t3, t4 = T.entries()
    return QuadraticForm(
        a * t1 * t1 + b * t1 * t3 + c * t3 * t3,
        2 * a * t1 * t2 + b * (t1 * t4 + t2 * t3) + 2 * c * t3 * t4,
        a * t2 * t2 + b * t2 * t4 + c * t4 * t4,
    )


# ---------------------------------------------------------------------------
# Cubic resolvent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubicResolvent:
    """x^3 + px + q packaged as (p, q); here p = -3I(F), q = J(F)."""

    p: int
    q: int

    def coeffs(self) -> tuple[int, int, int, int]:
        return (1, 0, self.p, self.q)


def cubic_resolvent(F: QuarticForm) -> CubicResolvent:
    triple = invariants(F)
    return CubicResolvent(-3 * triple.I, triple.J)


# ---------------------------------------------------------------------------
# Real splitting type via exact Sturm sequences
# ---------------------------------------------------------------------------


def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_deriv(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _poly_content(p: list[int]) -> int:
    g = 0
    for c in p:
        g = math.gcd(g, abs(c))
    return g


def _poly_primitive(p: list[int]) -> list[int]:
    g = _poly_content(p)
    return [c // g for c in p] if g > 1 else list(p)


def _pseudo_rem(p: list[int], q: list[int]) -> list[int]:
    """A positive-scalar multiple of (p mod q), in exact integer arithmetic.

    Scaling by the positive factor |lc(q)| keeps every intermediate value's
    sign intact, which is all the Sturm chain needs.
    """
    p = _poly_trim(list(p))
    dq = len(q) - 1
    lq = q[-1]
    while p and len(p) - 1 >= dq:
        dp = len(p) - 1
        if p[-1] % lq != 0:
            p = [c * abs(lq) for c in p]
        factor = p[-1] // lq
        shift = dp - dq
        for i, qc in enumerate(q):
            p[i + shift] -= factor * qc
        assert p[-1] == 0
        p = _poly_trim(p)
    return p


def _sturm_chain(p: list[int]) -> list[list[int]]:
    chain = [_poly_primitive(_poly_trim(list(p)))]
    d = _poly_trim(_poly_deriv(chain[0]))
    if d:
        chain.append(_poly_primitive(d))
    while len(chain[-1]) > 1:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_poly_primitive([-c for c in rem]))
    return chain


def _sign_changes_at_inf(chain: list[list[int]], positive: bool) -> int:
    signs = []
    for p in chain:
        lead = p[-1]
        s = lead if positive else lead * (-1) ** (len(p) - 1)
        if s:
            signs.append(1 if s > 0 else -1)
    changes = 0
    for u, v in zip(signs, signs[1:]):
        if u != v:
            changes += 1
    return changes


def _poly_gcd(p: list[int], q: list[int]) -> list[int]:
    p, q = _poly_trim(list(p)), _poly_trim(list(q))
    while q:
        r = _pseudo_rem(p, q)
        p, q = q, _poly_primitive(_poly_trim(r))
    return _poly_primitive(p)


def _poly_div_exact(p: list[int], q: list[int]) -> list[int]:
    """Exact quotient p / q over Q, asserting integrality of the result.

    Used for p primitive and q a primitive divisor of p, where Gauss's
    lemma forces an integral quotient.
    """
    rem = [Fraction(c) for c in p]
    qf = [Fraction(c) for c in q]
    dq = len(qf) - 1
    out = [Fraction(0)] * (len(p) - dq)
    while rem and len(rem) - 1 >= dq:
        dp = len(rem) - 1
        coef = rem[-1] / qf[-1]
        out[dp - dq] = coef
        for i, c in enumerate(qf):
            rem[i + dp - dq] -= coef * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    assert not rem, "division must be exact"
    assert all(c.denominator == 1 for c in out)
    return [int(c) for c in out]


def _squarefree_part(p: list[int]) -> list[int]:
    d = _poly_trim(_poly_deriv(p))
    if not d:
        return p[:1] if p else []
    g = _poly_gcd(p, d)
    if len(g) == 1:
        return list(p)
    return _poly_primitive(_poly_div_exact(_poly_primitive(list(p)), g))


def count_real_roots(p: list[int]) -> int:
    """Distinct real roots of p (integer coefficient list, low degree first)."""
    p = _poly_trim(list(p))
    if len(p) <= 1:
        return 0
    chain = _sturm_chain(_squarefree_part(p))
    return _sign_changes_at_inf(chain, positive=False) - _sign_changes_at_inf(
        chain, positive=True
    )


def splitting_type(F: QuarticForm) -> SplittingType:
    """Real splitting type by the number of distinct real projective roots."""
    if invariants(F).disc == 0:
        return SplittingType.DEGENERATE
    a4, a3, a2, a1, a0 = F.coeffs()
    p = [a0, a1, a2, a3, a4]  # F(t, 1) with low degree first
    roots = count_real_roots(p)
    if a4 == 0:
        roots += 1  # the projective root at infinity (factor y)
    if roots == 4:
        return SplittingType.S1111
    if roots == 2:
        return SplittingType.S112
    if roots == 0:
        return SplittingType.S22
    raise AssertionError(f"odd real root count {roots} for nondegenerate F={F}")


# ---------------------------------------------------------------------------
# Factorization over Q (homogeneous, degree 4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearFactor:
    """s x - r y (primitive, s >= 0), a projective rational root (r : s)."""

    s: int
    r: int


@dataclass
class QuarticFactorization:
    """Factorization of a quartic form over Q.

    content * prod(linears) * prod(quadratics) * (cubic or 1) * (quartic or 1)
    multiplies back to F exactly.  Linear and quadratic factors are primitive
    integral, the quadratics irreducible over Q; `cubic` (x-descending
    coefficients) is a residual irreducible cubic, `quartic` the residual
    irreducible quartic when F has no rational factor at all.  `search_bound`
    records the coefficient bound the quadratic-factor search was run under.
    """

    content: int
    linears: list[LinearFactor]
    quadratics: list[QuadraticForm]
    cubic: Optional[tuple[int, int, int, int]]
    quartic: Optional[QuarticForm]
    search_bound: int

    def is_irreducible(self) -> bool:
        return self.quartic is not None


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _homog_divide_linear(coeffs: list[int], s: int, r: int) -> Optional[list[int]]:
    """Divide homogeneous form (degree-descending x-coeffs) by (s x - r y)."""
    # write F = (s x - r y) * G and solve for G degree by degree
    n = len(coeffs) - 1
    g = [0] * n
    rem = list(coeffs)
    if s != 0:
        for i in range(n):
            if rem[i] % s != 0:
                return None
            g[i] = rem[i] // s
            rem[i] = 0
            rem[i + 1] += r * g[i]
        if rem[n] != 0:
            return None
        return g
    # s == 0: factor is -r y, so a leading x^n coefficient must vanish
    if coeffs[0] != 0:
        return None
    if any(c % (-r) != 0 for c in coeffs[1:]):
        return None
    return [c // (-r) for c in coeffs[1:]]


def _rational_linear_factors(coeffs: list[int]) -> list[LinearFactor]:
    """All primitive (s x - r y) dividing the form, with multiplicity ignored."""
    out = []
    n = len(coeffs) - 1
    lead, const = coeffs[0], coeffs[-1]
    if lead == 0:
        out.append(LinearFactor(0, -1))  # the factor y
    if const == 0:
        out.append(LinearFactor(1, 0))  # the factor x
    if lead != 0 and const != 0:
        for r in _divisors(const):
            for s in _divisors(lead):
                if math.gcd(r, s) != 1:
                    continue
                for rr in (r, -r):
                    val = sum(
                        c * rr ** (n - i) * s**i for i, c in enumerate(coeffs)
                    )
                    if val == 0:
                        out.append(LinearFactor(s, rr))
    return out


def _mignotte_bound(coeffs: list[int]) -> int:
    norm2 = math.isqrt(sum(c * c for c in coeffs)) + 1
    return 2 * norm2 + 2


def quartic_factorization(F: QuarticForm) -> QuarticFactorization:
    """Full factorization of F into irreducible factors over Q.

    Linear factors are found by the rational root test (projectively, so
    a4 = 0 contributes the factor y); quadratic factors by divisor
    enumeration on the outer coefficients with a Mignotte-style bound on
    the middle coefficient for the degenerate branch.
    """
    if F.is_zero():
        raise ValueError("cannot factor the zero form")
    content = F.content()
    work = list(F.primitive_part().coeffs())  # degree-descending in x
    bound = _mignotte_bound(work)
    linears: list[LinearFactor] = []
    # peel off linear factors with multiplicity
    progress = True
    while progress and len(work) > 1:
        progress = False
        for lf in _rational_linear_factors(work):
            quo = _homog_divide_linear(work, lf.s, lf.r)
            if quo is not None:
                linears.append(lf)
                work = quo
                progress = True
                break
    deg = len(work) - 1
    if deg >= 1 and work[0] < 0:
        work = [-c for c in work]
        content = -content
    quadratics: list[QuadraticForm] = []
    cubic: Optional[tuple[int, int, int, int]] = None
    residual: Optional[QuarticForm] = None
    if deg == 0:
        content *= work[0]
    elif deg == 2:
        quadratics.append(QuadraticForm(work[0], work[1], work[2]))
    elif deg == 3:
        cubic = (work[0], work[1], work[2], work[3])
    elif deg == 4:
        pair = _quadratic_split(work, bound)
        if pair is not None:
            quadratics.extend(pair)
        else:
            residual = QuarticForm(*work)
    else:
        raise AssertionError("degree-1 residual after linear peeling")
    return QuarticFactorization(content, linears, quadratics, cubic, residual, bound)


def _quadratic_split(
    p: list[int], bound: int
) -> Optional[tuple[QuadraticForm, QuadraticForm]]:
    """Split p (degree 4, no rational roots, primitive, lead > 0) into two
    integral quadratics, or None if irreducible."""
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
                    # solve b2*c1 + c2*b1 = A3 ; b0*c1 + c0*b1 = A1
                    num_b1 = b2 * A1 - b0 * A3
                    num_c1 = c0 * A3 - c2 * A1
                    if num_b1 % det or num_c1 % det:
                        continue
                    b1, c1 = num_b1 // det, num_c1 // det
                    if b2 * c0 + b1 * c1 + b0 * c2 == A2:
                        return (
                            QuadraticForm(b2, b1, b0),
                            QuadraticForm(c2, c1, c0),
                        )
                else:
                    for b1 in range(-bound, bound + 1):
                        rem = A3 - c2 * b1
                        if b2 == 0 or rem % b2:
                            continue
                        c1 = rem // b2
                        if (
                            b2 * c0 + b1 * c1 + b0 * c2 == A2
                            and b0 * c1 + c0 * b1 == A1
                        ):
                            return (
                                QuadraticForm(b2, b1, b0),
                                QuadraticForm(c2, c1, c0),
                            )
    return None


def is_irreducible_Q(F: QuarticForm) -> bool:
    """True iff F has no rational factor of degree 1 or 2."""
    if F.is_zero():
        raise ValueError("zero form")
    fac = quartic_factorization(F)
    return fac.is_irreducible()
