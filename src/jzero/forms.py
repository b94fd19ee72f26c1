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
The real splitting type is read off disc(F) and two coefficient
expressions in closed form (Rees, 1922).  Irreducibility
over Q is first tried by a certificate mod small primes
(`irreducible_mod_p`: a prime p not dividing a4 with (disc/p) = -1 and no
root of F mod p proves it, by Stickelberger's theorem); forms it does not
settle are factored, with rational roots and quadratic factors found by
divisor enumeration under a Mignotte-style coefficient bound.
`irreducible_rows` decides a whole array of coefficient rows: the
certificate on int64 arrays, then an int64 pass over the divisor pairs of
the outer coefficients that witnesses most reducible rows by a root or a
quadratic factor, then factoring of the rows still open.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import Optional

import numpy as np

# the largest |coefficient| of a brute-force box, and of a row that
# `irreducible_rows` takes
MAX_BRUTE_HEIGHT = 60

# the primes that `irreducible_mod_p` and `irreducible_rows` try
CERTIFICATE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


# ---------------------------------------------------------------------------
# Form types
# ---------------------------------------------------------------------------


def value_type(cls=None, /, *, order: bool = False):
    """Decorator: `cls` as a frozen dataclass with slots (`order` as for
    `dataclass`), whose `__init__` stores each field through its slot's
    member descriptor instead of `object.__setattr__`.

    Equality, hash, repr, order, pickling and the `FrozenInstanceError` on
    assignment are the dataclass's own; `__post_init__` still runs.  The
    store skips only the per-field `object.__setattr__` lookup and call,
    which is most of the cost of building a small frozen dataclass.  Every
    field must be a plain positional one: no default and no `init=False`.
    """

    def wrap(cls):
        cls = dataclass(cls, init=False, frozen=True, slots=True, order=order)
        names = []
        for f in fields(cls):
            if not f.init or f.default is not MISSING or f.default_factory is not MISSING:
                raise TypeError(f"value type field {cls.__name__}.{f.name} must be plain")
            names.append(f.name)
        body = [f"_set{i}(self, {name})" for i, name in enumerate(names)]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        src = f"def __init__(self, {', '.join(names)}):\n    " + "\n    ".join(body)
        ns = {f"_set{i}": vars(cls)[name].__set__ for i, name in enumerate(names)}
        exec(compile(src, f"<value_type {cls.__qualname__}>", "exec"), ns)  # named in profiles
        init = ns["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        return cls

    return wrap if cls is None else wrap(cls)


@value_type
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


@value_type
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


@value_type
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


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


def unimodular_completion(x: int, y: int) -> Unimodular:
    """The determinant-1 matrix (x, -v; y, u) with x u + y v = 1, whose
    first column is the primitive vector (x, y)."""
    g, u, v = _ext_gcd(x, y)
    assert g == 1, (x, y)
    return Unimodular(x, -v, y, u)


@value_type
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


def _square_root_of_quartic(
    g4: int, g3: int, g2: int, g1: int, g0: int
) -> Optional[tuple[int, int, int]]:
    """If g4 x^4 + ... + g0 y^4 = f^2 for an integral quadratic f, return the
    coefficients of f, with its first nonzero coefficient positive."""
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
    elif g4 == 0:
        # a = 0, so f = b xy + c y^2 and G has no x^4 or x^3 y term
        if g3 != 0:
            return None
        a = 0
        b = _exact_sqrt(g2)
        if b is None:
            return None
        if b == 0:
            c = _exact_sqrt(g0)
            if c is None or g1 != 0:
                return None
        else:
            if g1 % (2 * b) != 0:
                return None
            c = g1 // (2 * b)
    else:
        return None
    # verify the full expansion, not just the solved-for coefficients
    if (
        a * a == g4
        and 2 * a * b == g3
        and 2 * a * c + b * b == g2
        and 2 * b * c == g1
        and c * c == g0
    ):
        return a, b, c
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

    H_F is divided by its content k, and the primitive quotient G is tried
    as +f^2 and as -f^2; f^2 primitive forces f primitive.
    """
    h = hessian(F).coeffs()
    k = math.gcd(*h)
    if k == 0:
        return None
    g4, g3, g2, g1, g0 = (c // k for c in h)
    for sign in (1, -1):
        f = _square_root_of_quartic(sign * g4, sign * g3, sign * g2, sign * g1, sign * g0)
        if f is not None:
            return QuadraticForm(*f), sign * k
    return None


# ---------------------------------------------------------------------------
# Substitution action
# ---------------------------------------------------------------------------


def act_quartic(F: QuarticForm, T: Unimodular) -> QuarticForm:
    """F(t1 x + t2 y, t3 x + t4 y) for unimodular T, in closed form: with
    u = t1 x + t2 y and v = t3 x + t4 y, each coefficient collects the
    x^i y^(4-i) terms of a4 u^4, a3 u^3 v, a2 u^2 v^2, a1 u v^3 and a0 v^4."""
    a4, a3, a2, a1, a0 = F.a4, F.a3, F.a2, F.a1, F.a0
    p, q, r, s = T.t1, T.t2, T.t3, T.t4
    p2, q2, r2, s2 = p * p, q * q, r * r, s * s
    ps, qr = p * s, q * r
    m = ps + qr
    return QuarticForm(
        a4 * p2 * p2 + a3 * p2 * p * r + a2 * p2 * r2 + a1 * p * r2 * r + a0 * r2 * r2,
        4 * a4 * p2 * p * q
        + a3 * p2 * (ps + 3 * qr)
        + 2 * a2 * p * r * m
        + a1 * r2 * (qr + 3 * ps)
        + 4 * a0 * r2 * r * s,
        6 * a4 * p2 * q2
        + 3 * a3 * p * q * m
        + a2 * (m * m + 2 * ps * qr)
        + 3 * a1 * r * s * m
        + 6 * a0 * r2 * s2,
        4 * a4 * p * q2 * q
        + a3 * q2 * (3 * ps + qr)
        + 2 * a2 * q * s * m
        + a1 * s2 * (3 * qr + ps)
        + 4 * a0 * r * s2 * s,
        a4 * q2 * q2 + a3 * q2 * q * s + a2 * q2 * s2 + a1 * q * s2 * s + a0 * s2 * s2,
    )


def substitute(
    f: tuple[int, int, int], t: tuple[int, int, int, int]
) -> tuple[int, int, int]:
    """Coefficients of f(t1 x + t2 y, t3 x + t4 y) for f = (a, b, c) and
    any integer matrix t = (t1, t2, t3, t4); disc scales by det(t)^2."""
    a, b, c = f
    t1, t2, t3, t4 = t
    return (
        a * t1 * t1 + b * t1 * t3 + c * t3 * t3,
        2 * a * t1 * t2 + b * (t1 * t4 + t2 * t3) + 2 * c * t3 * t4,
        a * t2 * t2 + b * t2 * t4 + c * t4 * t4,
    )


def act_quadratic(f: QuadraticForm, T: Unimodular) -> QuadraticForm:
    """f(t1 x + t2 y, t3 x + t4 y) for unimodular T."""
    return QuadraticForm(*substitute(f.coeffs(), T.entries()))


def quadratic_product(
    g: tuple[int, int, int], h: tuple[int, int, int]
) -> tuple[int, int, int, int, int]:
    """Quartic coefficients (x^4 first) of the product of g and h."""
    a, b, c = g
    d, e, k = h
    return (a * d, a * e + b * d, a * k + b * e + c * d, b * k + c * e, c * k)


# ---------------------------------------------------------------------------
# Real splitting type
# ---------------------------------------------------------------------------


def splitting_type(F: QuarticForm) -> SplittingType:
    """Real splitting type from disc(F) and two coefficient expressions
    (E. L. Rees, Amer. Math. Monthly 29 (1922)).

    disc < 0 leaves exactly one pair of complex conjugate roots (S112).
    disc > 0 gives four real or no real roots: four exactly when both

        P = 8 a4 a2 - 3 a3^2  and
        R = 64 a4^3 a0 - 16 a4^2 a2^2 + 16 a4 a3^2 a2 - 16 a4^2 a3 a1 - 3 a3^4

    are negative (S1111), none otherwise (S22).  a4 = 0 needs no branch of
    its own: then P = -3 a3^2 and R = -3 a3^4 with a3 != 0, since disc != 0
    rules out y^2 | F, and the cubic cofactor of y has three real roots
    (its discriminant is disc / a3^2 > 0), with y the fourth.
    """
    disc = invariants(F).disc
    if disc == 0:
        return SplittingType.DEGENERATE
    if disc < 0:
        return SplittingType.S112
    a4, a3, a2, a1, a0 = F.coeffs()
    q = a3 * a3
    P = 8 * a4 * a2 - 3 * q
    R = 16 * a4 * (4 * a4 * a4 * a0 - a4 * a2 * a2 + q * a2 - a4 * a3 * a1) - 3 * q * q
    return SplittingType.S1111 if P < 0 and R < 0 else SplittingType.S22


# ---------------------------------------------------------------------------
# Factorization over Q (homogeneous, degree 4)
# ---------------------------------------------------------------------------


@value_type
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
    irreducible quartic when F has no rational factor at all.
    """

    content: int
    linears: list[LinearFactor]
    quadratics: list[QuadraticForm]
    cubic: Optional[tuple[int, int, int, int]]
    quartic: Optional[QuarticForm]

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


def prime_factorization(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime p dividing n >= 1 exactly e times, p ascending,
    by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


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
    lead, const = coeffs[0], coeffs[-1]
    if lead == 0:
        out.append(LinearFactor(0, -1))  # the factor y
    if const == 0:
        out.append(LinearFactor(1, 0))  # the factor x
    if lead != 0 and const != 0:
        leads = _divisors(lead)
        for r in _divisors(const):
            for s in leads:
                if math.gcd(r, s) != 1:
                    continue
                for rr in (r, -r):
                    # F(rr, s) by homogeneous Horner
                    val, sp = coeffs[0], 1
                    for c in coeffs[1:]:
                        sp *= s
                        val = val * rr + c * sp
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
        pair = _quadratic_split(work, _mignotte_bound(work))
        if pair is not None:
            quadratics.extend(pair)
        else:
            residual = QuarticForm(*work)
    else:
        raise AssertionError("degree-1 residual after linear peeling")
    return QuarticFactorization(content, linears, quadratics, cubic, residual)


def _quadratic_split(
    p: list[int], bound: int
) -> Optional[tuple[QuadraticForm, QuadraticForm]]:
    """Split p (degree 4, no rational roots, primitive, lead > 0) into two
    integral quadratics, or None if irreducible."""
    A4, A3, A2, A1, A0 = p
    consts = _divisors(A0)
    for b2 in _divisors(A4):
        c2 = A4 // b2
        for b0a in consts:
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
                    # c1 = (A3 - c2*b1) / b2 in the A2 equation leaves
                    # c2*b1^2 - A3*b1 + b2*(A2 - b2*c0 - b0*c2) = 0 (b2, c2 > 0);
                    # its integer roots, ascending, meet the A2 equation

                    disc = A3 * A3 - 4 * c2 * b2 * (A2 - b2 * c0 - b0 * c2)
                    s = math.isqrt(max(disc, 0))
                    if s * s != disc:
                        continue
                    for num in (A3 - s, A3 + s) if s else (A3,):
                        b1, r = divmod(num, 2 * c2)
                        rem = A3 - c2 * b1
                        if r or abs(b1) > bound or rem % b2:
                            continue
                        c1 = rem // b2
                        if b0 * c1 + c0 * b1 == A1:
                            return (
                                QuadraticForm(b2, b1, b0),
                                QuadraticForm(c2, c1, c0),
                            )
    return None


def irreducible_mod_p(F: QuarticForm) -> Optional[int]:
    """An odd prime p < 60 that proves F irreducible over Q, or None.

    p proves it when p does not divide a4, (disc(F)/p) = -1 and F(t, 1) has
    no root t mod p.  Then the reduction F(t, 1) mod p has degree 4 and is
    squarefree, so by Stickelberger's theorem (disc/p) = (-1)^(4 - r) for
    its number r of irreducible factors over F_p: r is 1 or 3.  r = 3 is
    the pattern (1, 1, 2), which has a root mod p, so r = 1.  By Gauss's
    lemma a factorization of F over Q has integral factors whose leading
    coefficients multiply to a divisor of a4, so it would reduce mod p to
    a factorization with both degrees kept; there is none.  A square
    disc(F) (Galois group inside A4) has no such prime, so None is
    returned without a scan.
    """
    disc = invariants(F).disc
    if disc == 0 or (disc > 0 and math.isqrt(disc) ** 2 == disc):
        return None
    a4, a3, a2, a1, a0 = F.coeffs()
    for p in CERTIFICATE_PRIMES:
        if a4 % p == 0 or pow(disc % p, (p - 1) // 2, p) != p - 1:
            continue
        c4, c3, c2, c1, c0 = a4 % p, a3 % p, a2 % p, a1 % p, a0 % p
        for t in range(p):
            if ((((c4 * t + c3) * t + c2) * t + c1) * t + c0) % p == 0:
                break
        else:
            return p
    return None


def is_irreducible_Q(F: QuarticForm) -> bool:
    """True iff F has no rational factor of degree 1 or 2: proved by
    `irreducible_mod_p` when it finds a prime, else by factorization.
    `irreducible_rows` is the same decision on an array of rows.

    a4 = 0 or a0 = 0 settles it at once: then y or x divides the nonzero F,
    with a nonzero cubic cofactor, so F is reducible."""
    if F.is_zero():
        raise ValueError("zero form")
    if F.a4 == 0 or F.a0 == 0:
        return False
    if irreducible_mod_p(F) is not None:
        return True
    return quartic_factorization(F).is_irreducible()


def irreducible_rows(rows) -> np.ndarray:
    """`[is_irreducible_Q(QuarticForm(*r)) for r in rows]` as a bool array,
    for an integer array of coefficient rows (a4, a3, a2, a1, a0).

    A row with a4 a0 = 0 is reducible.  The others meet the certificate of
    `irreducible_mod_p` one prime of CERTIFICATE_PRIMES at a time, each
    prime testing only the rows still open: p does not divide a4,
    (disc/p) = -1 (read from a table of the non-residues mod p) and none
    of the p values F(t, 1) is 0 mod p.  A square or zero disc(F) is a
    square mod every p, so it never passes the Legendre test and needs no
    test of its own.

    The rows no prime certifies meet two reducibility witnesses, on every
    pair (s, r) with s > 0 dividing a4 and r dividing a0:
    - the root test, F(r, s) = 0: then r/s is a root of F(t, 1), of degree
      4, so (s x - r y) divides F;
    - the 2+2 split test: with c2 = a4/s and c0 = a0/r (integers) and
      det = s c0 - c2 r != 0, the system s c1 + c2 b1 = a3,
      r c1 + c0 b1 = a1 has the one solution b1 = (s a1 - r a3)/det,
      c1 = (c0 a3 - c2 a1)/det.  When both are integers and
      s c0 + b1 c1 + r c2 = a2, the product (s, b1, r)(c2, c1, c0) has all
      five coefficients of F, so F has a quadratic factor (s, c2 != 0).
    Both only prove reducibility, so neither can mark an irreducible row
    reducible; a row that neither proves is factored, so a reducible row
    they miss costs a factorization, never a wrong answer.  They miss few:
    a rational root of F is r/s in lowest terms with s | a4 and r | a0,
    and by Gauss's lemma a 2+2 split of F is (s, b1, r)(c2, c1, c0) with
    integral factors and s > 0, which swapping the factors (and negating
    both when c2 < 0) turns into the split at (|c2|, +-c0) with det
    negated; so a reducible row is missed only when it has no rational
    root and det = 0 at every split, as for (x^2 + xy + y^2)^2.

    Every value is exact in int64 for |a_i| <= H = MAX_BRUTE_HEIGHT:
    |I| <= 16 H^2 and |J| <= 137 H^3, so |4 I^3 - J^2| <= 35153 H^6 < 2^51,
    |F(t, 1)| <= H (1 + t + t^2 + t^3 + t^4) < 2^30 for t <= 58,
    |F(r, s)| <= 5 H^5 < 2^32 for |r|, s <= H, and in the split test
    |det|, |s a1 - r a3|, |c0 a3 - c2 a1| <= 2 H^2, so
    |s c0 + b1 c1 + r c2| <= 2 H^2 + 4 H^4 < 2^26.
    Raises ValueError on a zero row or a coefficient beyond that bound.
    """
    rows = np.asarray(rows).reshape(-1, 5)
    if rows.size and np.abs(rows).max() > MAX_BRUTE_HEIGHT:
        raise ValueError(f"a coefficient beyond the row bound {MAX_BRUTE_HEIGHT}")
    rows = rows.astype(np.int64)
    if not rows.any(axis=1).all():
        raise ValueError("zero form")
    out = np.zeros(len(rows), dtype=bool)
    left = np.flatnonzero(rows[:, 0] * rows[:, 4])
    a4, a3, a2, a1, a0 = rows[left].T
    I = 12 * a4 * a0 - 3 * a3 * a1 + a2 * a2
    J = 72 * a4 * a2 * a0 + 9 * a3 * a2 * a1 - 27 * a4 * a1 * a1 - 27 * a0 * a3 * a3 - 2 * a2**3
    disc = (4 * I**3 - J * J) // 27
    for p in CERTIFICATE_PRIMES:
        t = np.arange(p, dtype=np.int64)
        nonresidue = np.ones(p, dtype=bool)
        nonresidue[t * t % p] = False
        cert = (rows[left, 0] % p != 0) & nonresidue[disc % p]
        values = rows[left[cert]] @ (t ** np.arange(4, -1, -1)[:, None])  # F(t, 1)
        cert[cert] = (values % p != 0).all(axis=1)
        out[left[cert]] = True
        left, disc = left[~cert], disc[~cert]
    left = left[~_factor_witness(rows[left])]
    for i, row in zip(left.tolist(), rows[left].tolist()):
        out[i] = quartic_factorization(QuarticForm(*row)).is_irreducible()
    return out


def _factor_witness(rows: np.ndarray) -> np.ndarray:
    """Whether the root test or the 2+2 split test of `irreducible_rows`
    proves each int64 row (a4, a3, a2, a1, a0), a4 a0 != 0, reducible;
    the proofs and the int64 bounds are in its docstring."""
    d = np.arange(1, MAX_BRUTE_HEIGHT + 1, dtype=np.int64)
    divides = np.arange(MAX_BRUTE_HEIGHT + 1)[:, None] % d == 0  # [n, d - 1]: d | n
    # the pairs (s, r), s > 0 dividing a4 and r > 0 dividing a0: each row's
    # s crossed with its r by a repeat and an offset
    si, sd = np.nonzero(divides[np.abs(rows[:, 0])])
    ri, rd = np.nonzero(divides[np.abs(rows[:, 4])])
    nr = np.bincount(ri, minlength=len(rows))
    per = nr[si]
    k = np.repeat(si, per)
    s = np.repeat(d[sd], per)
    r = d[rd[np.repeat(np.cumsum(nr)[si] - np.cumsum(per), per) + np.arange(len(k))]]
    a4, a3, a2, a1, a0 = rows[k].T

    def split(r):
        # the 2+2 split test; a function, so that its temporaries go at return
        c2, c0 = a4 // s, a0 // r
        det = s * c0 - c2 * r
        ok = det != 0
        det[~ok] = 1
        b1, rb = np.divmod(s * a1 - r * a3, det)
        c1, rc = np.divmod(c0 * a3 - c2 * a1, det)
        return ok & (rb == 0) & (rc == 0) & (s * c0 + b1 * c1 + r * c2 == a2)

    # the root test at r and -r: F(+-r, s) = E +- O, E even and O odd in r
    r2, s2 = r * r, s * s
    root = np.abs((a4 * r2 + a2 * s2) * r2 + a0 * s2 * s2) == np.abs((a3 * r2 + a1 * s2) * r * s)
    del r2, s2
    return np.bincount(k[root | split(r) | split(-r)], minlength=len(rows)) > 0
