"""Reduction theory and class arithmetic for binary quadratic forms.

Positive definite forms: Gauss reduction with transform tracking, reduced
|b| <= a <= c (b >= 0 on the boundary), class enumeration per discriminant,
Dirichlet composition through concordant representatives, and the class
number h2(-D) counting primitive reduced forms.

Square discriminant n^2 > 0: every primitive class has a unique
representative a x^2 + n xy with 1 <= a <= n, gcd(a, n) = 1 (a = 1 when
n = 1); there are phi(n) classes.  Canonicalization works by moving a
rational zero direction of the form to infinity.

Ambiguity (class order <= 2) and opacity (a GL2-translate of the shape
g2 x^2 + g1 xy - g2 y^2) decide the cover multiplicity n_f in {1, 2, 4, 6}
used when family point counts are converted to orbit counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .forms import IDENTITY, QuadraticForm, Unimodular, act_quadratic


class Group(Enum):
    SL2 = "SL2"
    GL2 = "GL2"


# ---------------------------------------------------------------------------
# Positive definite reduction
# ---------------------------------------------------------------------------

_SWAP = Unimodular(0, -1, 1, 0)  # (a,b,c) -> (c,-b,a)


def is_reduced(f: QuadraticForm) -> bool:
    a, b, c = f.coeffs()
    if not (abs(b) <= a <= c):
        return False
    if b < 0 and (abs(b) == a or a == c):
        return False
    return True


def reduce_form(f: QuadraticForm) -> tuple[QuadraticForm, Unimodular]:
    """Gauss-reduce a positive definite form; returns (g, T) with f_T = g."""
    if f.disc() >= 0:
        raise ValueError(f"form {f} is not positive definite (disc >= 0)")
    if f.a <= 0:
        raise ValueError(f"form {f} is negative definite")
    T = IDENTITY
    g = f
    while True:
        a, b, c = g.coeffs()
        if not (-a < b <= a):
            # shear x -> x + ky moves b into (-a, a]
            k = -((b + a - 1) // (2 * a)) if b > a else (a - b) // (2 * a)
            shift = Unimodular(1, k, 0, 1)
            g, T = act_quadratic(g, shift), T.mul(shift)
            continue
        if c < a or (c == a and b < 0):
            g, T = act_quadratic(g, _SWAP), T.mul(_SWAP)
            continue
        if b == -a:  # unreachable after normalization, kept for safety
            shift = Unimodular(1, 1, 0, 1)
            g, T = act_quadratic(g, shift), T.mul(shift)
            continue
        break
    assert is_reduced(g), (f, g)
    assert act_quadratic(f, T) == g
    return g, T


def enumerate_reduced(D: int) -> list[QuadraticForm]:
    """All primitive reduced forms of discriminant -D (D > 0)."""
    if D <= 0:
        raise ValueError("D must be positive")
    if D % 4 not in (0, 3):
        return []
    out = []
    b = D % 2
    while 3 * b * b <= D:
        m = (b * b + D) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if math.gcd(math.gcd(a, b), c) == 1:
                    out.append(QuadraticForm(a, b, c))
                    if 0 < b < a < c:
                        out.append(QuadraticForm(a, -b, c))
            a += 1
        b += 2
    out.sort(key=lambda f: (f.a, f.c, -f.b))
    return out


def class_number(D: int) -> int:
    """h2(-D): the number of primitive reduced forms of discriminant -D."""
    return len(enumerate_reduced(D))


def h2_star(D: int) -> int:
    """Count of primitive reduced forms of disc -D with a <= D^(1/4)."""
    return sum(1 for f in enumerate_reduced(D) if f.a**4 <= D)


# ---------------------------------------------------------------------------
# Representation search (positive definite)
# ---------------------------------------------------------------------------


def representations(f: QuadraticForm, m: int) -> list[tuple[int, int]]:
    """All (x, y) with f(x, y) = m, for positive definite f and m >= 1."""
    a, b, c = f.coeffs()
    D = -f.disc()
    out = []
    ymax = math.isqrt(4 * a * m // D)
    for y in range(-ymax, ymax + 1):
        # 4a*f = (2ax + by)^2 + D y^2
        rest = 4 * a * m - D * y * y
        if rest < 0:
            continue
        s = math.isqrt(rest)
        if s * s != rest:
            continue
        for t in {s, -s}:
            num = t - b * y
            if num % (2 * a) == 0:
                out.append((num // (2 * a), y))
    return sorted(set(out))


def represents(f: QuadraticForm, m: int) -> bool:
    return bool(representations(f, m))


# ---------------------------------------------------------------------------
# Form classes and composition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormClass:
    """An SL2(Z) (or GL2(Z)) equivalence class, stored by canonical
    representative.  Positive definite: the reduced form (b >= 0 forced for
    GL2).  Square discriminant n^2: the representative a x^2 + n xy."""

    rep: QuadraticForm
    disc: int
    group: Group = Group.SL2

    def __post_init__(self):
        assert self.rep.disc() == self.disc


def class_of(f: QuadraticForm, group: Group = Group.SL2) -> FormClass:
    """The class of a primitive form (positive definite or square disc)."""
    if not f.is_primitive():
        raise ValueError(f"form {f} is imprimitive")
    D = f.disc()
    if D < 0:
        if f.a < 0:
            raise ValueError("negative definite form; use its negation")
        g, _ = reduce_form(f)
        if group is Group.GL2 and g.b < 0:
            g = QuadraticForm(g.a, -g.b, g.c)
        return FormClass(g, D, group)
    n = math.isqrt(D)
    if n * n != D or D == 0:
        raise ValueError("only negative or square-discriminant forms are classed")
    a, _ = canonical_square_label(f)
    if group is Group.GL2:
        a = min(a, pow(a, -1, n) % n if n > 1 else a)
    return FormClass(QuadraticForm(a, n, 0), D, group)


def principal_class(D: int) -> FormClass:
    """The principal class of discriminant D (D < 0 here)."""
    k = D % 2
    return class_of(QuadraticForm(1, k, (k * k - D) // 4))


def _crt(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """x = r1 (m1), x = r2 (m2); returns (x, lcm) or raises if insoluble."""
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise ValueError("incompatible congruences")
    l = m1 // g * m2
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g) if m2 // g > 1 else 0
    return ((r1 + m1 * t) % l, l)


def _concordant_partner(f: QuadraticForm, a1: int) -> QuadraticForm:
    """An SL2-equivalent form of f whose leading coefficient is coprime to a1."""
    if math.gcd(f.a, a1) == 1:
        return f
    for r in range(1, 40):
        for x in range(-r, r + 1):
            for y in (-r, r) if abs(x) < r else range(-r, r + 1):
                if math.gcd(x, y) != 1:
                    continue
                v = f.value(x, y)
                if v != 0 and math.gcd(v, a1) == 1:
                    g, u, w = _ext_gcd(x, y)
                    # x*w' - y*u' = 1 with columns (x,y),(u',w')
                    U = Unimodular(x, -w, y, u)
                    return act_quadratic(f, U)
    raise AssertionError(f"no concordant partner found for {f} against {a1}")


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


def compose(c1: FormClass, c2: FormClass) -> FormClass:
    """Dirichlet composition of primitive SL2 classes of equal negative
    discriminant, validated downstream against represented values."""
    if c1.disc != c2.disc:
        raise ValueError("discriminant mismatch")
    if c1.disc >= 0:
        raise ValueError("composition implemented for negative discriminants")
    if c1.group is not Group.SL2 or c2.group is not Group.SL2:
        raise ValueError("composition needs SL2 classes")
    D = c1.disc
    f1, f2 = c1.rep, c2.rep
    g2 = _concordant_partner(f2, f1.a)
    a1, a2 = f1.a, g2.a
    B, _ = _crt(f1.b, 2 * a1, g2.b, 2 * a2)
    A = a1 * a2
    assert (B * B - D) % (4 * A) == 0
    C = (B * B - D) // (4 * A)
    return class_of(QuadraticForm(A, B, C))


def inverse(c: FormClass) -> FormClass:
    f = c.rep
    return class_of(QuadraticForm(f.a, -f.b, f.c), c.group)


def class_pow(c: FormClass, k: int) -> FormClass:
    if k < 0:
        return class_pow(inverse(c), -k)
    acc = principal_class(c.disc)
    base = c
    while k:
        if k & 1:
            acc = compose(acc, base)
        base = compose(base, base)
        k >>= 1
    return acc


def order(c: FormClass) -> int:
    e = principal_class(c.disc)
    acc = c
    n = 1
    while acc != e:
        acc = compose(acc, c)
        n += 1
        if n > 10**6:
            raise AssertionError("runaway class order")
    return n


class ClassGroup:
    """The Picard group of primitive SL2 classes of discriminant -D."""

    def __init__(self, D: int):
        if D <= 0 or D % 4 not in (0, 3):
            raise ValueError("need D > 0 with D = 0, 3 (mod 4)")
        self.disc = -D
        self.elements = [class_of(f) for f in enumerate_reduced(D)]
        self._table: dict[tuple, FormClass] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def compose(self, c1: FormClass, c2: FormClass) -> FormClass:
        key = (c1.rep.coeffs(), c2.rep.coeffs())
        got = self._table.get(key)
        if got is None:
            got = compose(c1, c2)
            self._table[key] = got
            self._table[(key[1], key[0])] = got
        return got

    def identity(self) -> FormClass:
        return principal_class(self.disc)


# ---------------------------------------------------------------------------
# Square discriminant: canonical labels
# ---------------------------------------------------------------------------


def _zero_directions(f: QuadraticForm, n: int) -> list[tuple[int, int]]:
    """Primitive integer directions (x : y) with f(x, y) = 0 (disc = n^2)."""
    a, b, c = f.coeffs()
    dirs = []
    if a != 0:
        for s in (1, -1):
            num, den = -b + s * n, 2 * a
            g = math.gcd(abs(num), abs(den))
            num, den = num // g, den // g
            if den < 0:
                num, den = -num, -den
            dirs.append((num, den))
    else:
        dirs.append((1, 0))
        g = math.gcd(abs(c), abs(b))
        dirs.append((c // g, -b // g))
    uniq = []
    for d in dirs:
        if d not in uniq and (-d[0], -d[1]) not in uniq:
            uniq.append(d)
    return uniq


def canonical_square_label(f: QuadraticForm) -> tuple[int, Unimodular]:
    """For primitive f of discriminant n^2 > 0, return (a, T) with
    f_T = a x^2 + n xy, 1 <= a <= n, gcd(a, n) = 1."""
    D = f.disc()
    n = math.isqrt(D)
    if D <= 0 or n * n != D:
        raise ValueError("needs a positive square discriminant")
    if not f.is_primitive():
        raise ValueError("needs a primitive form")
    for (x0, y0) in _zero_directions(f, n):
        g, u, v = _ext_gcd(x0, y0)
        assert g == 1
        # columns (x0, y0), (-v, u): det = x0*u + y0*v ... build det +1
        U = Unimodular(x0, -v, y0, u)
        h = act_quadratic(f, U)
        assert h.a == 0 and abs(h.b) == n
        if h.b == -n:
            S = Unimodular(0, -1, 1, 0)
            h2 = act_quadratic(h, S)
            U = U.mul(S)
            assert (h2.a, h2.b, h2.c) == (h.c, n, 0)
            a0 = h2.a
            # shear y -> y + kx shifts the label by kn
            target = a0 % n if n > 1 else 1
            if n > 1 and target == 0:
                raise AssertionError(f"imprimitive label for {f}")
            k = (target - a0) // n
            W = Unimodular(1, 0, k, 1)
            res = act_quadratic(h2, W)
            U = U.mul(W)
            a = res.a
            assert res == QuadraticForm(a, n, 0) and 1 <= a <= n
            assert math.gcd(a, n) == 1
            assert act_quadratic(f, U) == res
            return a, U
    raise AssertionError(f"no orientation with +n middle coefficient for {f}")


def square_label_inverse(a: int, n: int) -> int:
    """Label of the inverse class of [(a, n, 0)]."""
    return pow(a, -1, n) % n if n > 1 else 1


def square_label_negation(a: int, n: int) -> int:
    """Label of the class of -f when f has label a."""
    return (-pow(a, -1, n)) % n if n > 1 else 1


def reducible_class_reps(n: int) -> list[QuadraticForm]:
    """SL2 class representatives a x^2 + n xy, 1 <= a <= n-1, gcd(a,n) = 1.

    n = 1 returns the empty list; callers treat the lone discriminant-1
    class (x^2 + xy) separately.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return [
        QuadraticForm(a, n, 0) for a in range(1, n) if math.gcd(a, n) == 1
    ]


# ---------------------------------------------------------------------------
# Ambiguity, opacity, cover multiplicity
# ---------------------------------------------------------------------------


def is_ambiguous(c: FormClass) -> bool:
    """Class order <= 2; tested structurally on the canonical representative."""
    if c.disc < 0:
        f = c.rep
        return f.b == 0 or f.a == f.b or f.a == f.c
    n = math.isqrt(c.disc)
    a = c.rep.a
    return n <= 1 or (a * a) % n == 1


def is_opaque(c: FormClass) -> bool:
    """Whether the class contains a form g2 x^2 + g1 xy - g2 y^2.

    Positive definite classes are never opaque.  For square discriminant
    n^2 the candidate translates satisfy 4 g2^2 + g1^2 = n^2, a finite
    exact search.
    """
    if c.disc < 0:
        return False
    n = math.isqrt(c.disc)
    labels = {c.rep.a, square_label_inverse(c.rep.a, n)}
    for g2 in range(-(n // 2), n // 2 + 1):
        rest = n * n - 4 * g2 * g2
        if rest < 0:
            continue
        g1 = math.isqrt(rest)
        if g1 * g1 != rest:
            continue
        cand = QuadraticForm(g2, g1, -g2)
        if cand.is_zero() or not cand.is_primitive():
            continue
        if cand.disc() != n * n:
            continue
        lab, _ = canonical_square_label(cand)
        if lab in labels:
            return True
    return False


def cover_multiplicity(c: FormClass) -> int:
    """n_f: family points per orbit class (generically).

    1 when the class is neither ambiguous nor opaque, 6 for the class of
    x^2 + xy + y^2, 4 for ambiguous-and-opaque, 2 otherwise.
    """
    amb = is_ambiguous(c)
    opq = is_opaque(c)
    if not amb and not opq:
        return 1
    if c.disc == -3:
        return 6
    if amb and opq:
        return 4
    return 2


# ---------------------------------------------------------------------------
# Class number sums (Mertens / Siegel style measurements)
# ---------------------------------------------------------------------------


@dataclass
class ClassNumberSumReport:
    X: int
    total: int
    total_4mid: int
    main_term: float
    main_term_4mid: float
    ratio: float
    ratio_4mid: float
    flagged_4mid: bool


_ZETA3 = 1.2020569031595942854


def h2_histogram(X: int) -> np.ndarray:
    """hist[D] = h2(-D) for 0 <= D <= X, via one pass over reduced forms."""
    hist = np.zeros(X + 1, dtype=np.int64)
    amax = math.isqrt(X // 3)
    for a in range(1, amax + 1):
        for b in range(0, a + 1):
            g0 = math.gcd(a, b)
            cmax = (X + b * b) // (4 * a)
            cmin = a
            if cmin > cmax:
                continue
            cs = np.arange(cmin, cmax + 1, dtype=np.int64)
            if g0 > 1:
                mask = np.ones(len(cs), dtype=bool)
                for p in _prime_divisors(g0):
                    mask &= cs % p != 0
                cs = cs[mask]
            if len(cs) == 0:
                continue
            D = 4 * a * cs - b * b
            weights = np.full(len(cs), 2, dtype=np.int64)
            if b == 0 or b == a:
                weights[:] = 1
            else:
                weights[cs == a] = 1
            valid = D > 0
            np.add.at(hist, D[valid], weights[valid])
    return hist


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def class_number_sum_report(X: int) -> ClassNumberSumReport:
    """Exact sum of h2(-D) for D <= X against the two main terms."""
    if X < 100:
        raise ValueError("X >= 100 required")
    hist = h2_histogram(X)
    total = int(hist.sum())
    total4 = int(hist[0 : X + 1 : 4].sum())
    main = math.pi / (18 * _ZETA3) * X**1.5
    main4 = math.pi / (42 * _ZETA3) * X**1.5
    r, r4 = total / main, total4 / main4
    return ClassNumberSumReport(
        X, total, total4, main, main4, r, r4, not (0.8 <= r4 <= 1.2)
    )


# ---------------------------------------------------------------------------
# Signed automorphisms {T: f_T = +-f}
# ---------------------------------------------------------------------------


def _solve_value_square_disc(f: QuadraticForm, t: int) -> list[tuple[int, int]]:
    """All (x, y) with f(x, y) = t != 0, for square discriminant n^2 > 0.

    From 4a f = (2ax + by)^2 - n^2 y^2, factor 4at = (z - ny)(z + ny) over
    all divisor pairs.
    """
    a, b, c = f.coeffs()
    n = math.isqrt(f.disc())
    assert n * n == f.disc() and n > 0 and a != 0 and t != 0
    out = set()
    N = 4 * a * t
    for d in _signed_divisors(N):
        e = N // d
        if (d + e) % 2:
            continue
        z = (d + e) // 2
        if (e - d) % (2 * n):
            continue
        y = (e - d) // (2 * n)
        if (z - b * y) % (2 * a):
            continue
        x = (z - b * y) // (2 * a)
        if f.value(x, y) == t:
            out.add((x, y))
    return sorted(out)


def _signed_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.extend((d, -d, n // d, -(n // d)))
    return sorted(set(out))


def _bilinear(f: QuadraticForm, v: tuple[int, int], w: tuple[int, int]) -> int:
    """The xy-coefficient of f(v x + w y)."""
    a, b, c = f.coeffs()
    return 2 * a * v[0] * w[0] + b * (v[0] * w[1] + v[1] * w[0]) + 2 * c * v[1] * w[1]


def signed_automorphisms(f: QuadraticForm) -> list[Unimodular]:
    """All T in GL2(Z) with f_T = f or f_T = -f.

    Finite (and computed exactly) for positive definite forms, where only
    f_T = f can occur, and for square-discriminant forms, where value sets
    are divisor-bounded.
    """
    D = f.disc()
    if D < 0:
        if f.a < 0:
            raise ValueError("normalize negative definite forms first")
        out = []
        for v in representations(f, f.a):
            for w in representations(f, f.c):
                if v[0] * w[1] - w[0] * v[1] not in (1, -1):
                    continue
                if _bilinear(f, v, w) == f.b:
                    out.append(Unimodular(v[0], w[0], v[1], w[1]))
        return out
    n = math.isqrt(D)
    if n * n != D or D == 0:
        raise ValueError("signed automorphisms only for definite or square disc")
    g, T0 = (f, None)
    if f.a == 0:
        raise ValueError("translate to nonzero leading coefficient first")
    out = []
    for eps in (1, -1):
        cols1 = _solve_value_square_disc(f, eps * f.a)
        if f.c != 0:
            cols2 = _solve_value_square_disc(f, eps * f.c)
        else:
            cols2 = [d for d in _zero_directions(f, n)]
            cols2 += [(-x, -y) for (x, y) in cols2]
        for v in cols1:
            for w in cols2:
                if v[0] * w[1] - w[0] * v[1] not in (1, -1):
                    continue
                if _bilinear(f, v, w) == eps * f.b and f.value(*w) == eps * f.c:
                    T = Unimodular(v[0], w[0], v[1], w[1])
                    if T not in out:
                        out.append(T)
    return out


# ---------------------------------------------------------------------------
# Indefinite (non-square discriminant) reduction cycles
# ---------------------------------------------------------------------------


def _rho(a: int, b: int, c: int, D: int, s: int) -> tuple[int, int, int]:
    """One Gauss reduction step for an indefinite form (disc D non-square)."""
    if c == 0:
        raise ValueError("square-discriminant form in indefinite reduction")
    ac = abs(c)
    if ac > s:
        r = (-b) % (2 * ac)
        b2 = r if r <= ac else r - 2 * ac
    else:
        b2 = s - ((s + b) % (2 * ac))
    num = b2 * b2 - D
    assert num % (4 * c) == 0
    return (c, b2, num // (4 * c))


def _is_indef_reduced(a: int, b: int, c: int, s: int) -> bool:
    # 0 < b <= s and s - b < 2|a| <= s + b (D non-square makes these exact)
    return 0 < b <= s and s - b < 2 * abs(a) <= s + b


def indefinite_cycle(f: QuadraticForm) -> list[QuadraticForm]:
    """All reduced forms in the rho-cycle of an indefinite form with
    non-square discriminant; a complete SL2-class invariant."""
    D = f.disc()
    s = math.isqrt(D)
    if D <= 0 or s * s == D:
        raise ValueError("need a positive non-square discriminant")
    a, b, c = f.coeffs()
    for _ in range(10000):
        if _is_indef_reduced(a, b, c, s):
            break
        a, b, c = _rho(a, b, c, D, s)
    else:
        raise AssertionError(f"no reduced form reached from {f}")
    first = (a, b, c)
    cycle = []
    while True:
        cycle.append((a, b, c))
        a, b, c = _rho(a, b, c, D, s)
        assert _is_indef_reduced(a, b, c, s), (f, (a, b, c))
        if (a, b, c) == first:
            break
        if len(cycle) > 10000:
            raise AssertionError(f"cycle runaway for {f}")
    return [QuadraticForm(*t) for t in cycle]


def indefinite_class_key(f: QuadraticForm) -> tuple:
    """Canonical label of the GL2-class-pair {C(f), C(-f)} for non-square
    positive discriminant: the minimum over the reduction cycles of the
    four sign/orientation variants."""
    best = None
    for g in (
        f,
        QuadraticForm(f.a, -f.b, f.c),
        f.neg(),
        QuadraticForm(-f.a, f.b, -f.c),
    ):
        cyc = indefinite_cycle(g)
        m = min(h.coeffs() for h in cyc)
        if best is None or m < best:
            best = m
    return best
