"""Reduction theory and class arithmetic for binary quadratic forms.

Positive definite forms: Gauss reduction with transform tracking, reduced
|b| <= a <= c (b >= 0 on the boundary), class enumeration per discriminant
(h2(-D) = len(enumerate_reduced(D))), and Dirichlet composition through
concordant representatives.

Square discriminant n^2 > 0: every primitive class has a unique
representative a x^2 + n xy with 1 <= a <= n, gcd(a, n) = 1 (a = 1 when
n = 1); there are phi(n) classes.  Canonicalization works by moving a
rational zero direction of the form to infinity.

Ambiguity (class order <= 2) and opacity (a GL2-translate of the shape
g2 x^2 + g1 xy - g2 y^2) decide the cover multiplicity n_f in {1, 2, 4, 6}
used when family point counts are converted to orbit counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable
import numpy as np

from .forms import (
    QuadraticForm,
    Unimodular,
    _divisors,
    act_quadratic,
    prime_factorization,
    substitute,
    unimodular_completion,
    value_type,
)


# ---------------------------------------------------------------------------
# Positive definite reduction
# ---------------------------------------------------------------------------


def is_reduced(f: QuadraticForm) -> bool:
    a, b, c = f.coeffs()
    if not (abs(b) <= a <= c):
        return False
    if b < 0 and (abs(b) == a or a == c):
        return False
    return True


def gauss_reduce(
    a: int, b: int, c: int
) -> tuple[tuple[int, int, int], tuple[int, int, int, int]]:
    """Gauss-reduce the positive definite a x^2 + b xy + c y^2 on integers.

    Returns the reduced coefficients and the entries (t1, t2, t3, t4) of
    the unimodular T with f(t1 x + t2 y, t3 x + t4 y) = reduced form.  The
    steps are shears x -> x + ky moving b into (-a, a], with
    k = floor((a - b) / 2a), and the swap (a, b, c) -> (c, -b, a),
    T = [[0, -1], [1, 0]].
    """
    t1, t2, t3, t4 = 1, 0, 0, 1
    while True:
        if b > a or b <= -a:
            k = (a - b) // (2 * a)
            b, c = 2 * a * k + b, (a * k + b) * k + c
            t2, t4 = t1 * k + t2, t3 * k + t4
        if c > a or (c == a and b >= 0):
            return (a, b, c), (t1, t2, t3, t4)
        a, b, c = c, -b, a
        t1, t2, t3, t4 = t2, -t1, t4, -t3


def reduce_form(f: QuadraticForm) -> tuple[QuadraticForm, Unimodular]:
    """Gauss-reduce a positive definite form; returns (g, T) with f_T = g."""
    if f.disc() >= 0:
        raise ValueError(f"form {f} is not positive definite (disc >= 0)")
    if f.a <= 0:
        raise ValueError(f"form {f} is negative definite")
    coeffs, entries = gauss_reduce(*f.coeffs())
    g, T = QuadraticForm(*coeffs), Unimodular(*entries)
    assert is_reduced(g), (f, g)
    assert act_quadratic(f, T) == g
    return g, T


# _SQRT_4A[a][r] holds the b in [0, a] with b^2 = r (mod 4a), for every a up
# to the largest one asked for so far and at most SQRT_4A_ROWS (slot 0 is
# unused).  Rows depend on a alone, so the table holds no per-D results; the
# bound keeps it below 2 * SQRT_4A_ROWS^2 slots (about 0.3 MB) plus its
# tuples for the life of the process.
SQRT_4A_ROWS = 128
_SQRT_4A: list[list[tuple[int, ...]]] = [[]]


def enumerate_reduced(D: int) -> list[QuadraticForm]:
    """All primitive reduced forms of discriminant -D (D > 0), sorted by
    (a, c, -b).

    A reduced form has |b| <= a <= c, so D = 4ac - b^2 >= 3a^2 and a runs
    over 1 ... isqrt(D // 3).  For each a the b in [0, a] with
    b^2 = -D (mod 4a), which are those with an integral c = (b^2 + D) / 4a,
    are read from `_SQRT_4A`, a table of square roots mod 4a that grows only
    to the largest a asked for (isqrt(D // 3), so 91 rows for the D of
    N(10^12)) and never past SQRT_4A_ROWS = 128 rows (every D < 49923); a larger
    a tests the b = D (mod 2) in [0, a] directly.  The forms with c >= a and
    gcd(a, b, c) = 1 are kept, with (a, -b, c) beside (a, b, c) when
    0 < b < a < c.  This walks O(sqrt D) values of a instead of the O(D)
    pairs (b, a) of a scan over the divisors of (b^2 + D) / 4 (Cohen,
    GTM 138, §5.3).
    """
    if D <= 0:
        raise ValueError("D must be positive")
    if D % 4 not in (0, 3):
        return []
    amax = math.isqrt(D // 3)
    while len(_SQRT_4A) <= min(amax, SQRT_4A_ROWS):
        a = len(_SQRT_4A)
        row: list[tuple[int, ...]] = [()] * (4 * a)
        for b in range(a + 1):
            row[b * b % (4 * a)] += (b,)
        _SQRT_4A.append(row)
    keys = []
    for a in range(1, amax + 1):
        if a <= SQRT_4A_ROWS:
            roots: Iterable[int] = _SQRT_4A[a][-D % (4 * a)]
        else:
            roots = (b for b in range(D % 2, a + 1, 2) if (b * b + D) % (4 * a) == 0)
        for b in roots:
            c = (b * b + D) // (4 * a)
            if c >= a and math.gcd(a, b, c) == 1:
                keys.append((a, c, -b))
                if 0 < b < a < c:
                    keys.append((a, c, b))
    keys.sort()
    return [QuadraticForm(a, -nb, c) for a, c, nb in keys]


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
    """Whether f(x, y) = m has an integer solution, for positive definite f
    and m >= 1; `representations(f, m)` is non-empty exactly when this holds.

    f(-x, -y) = f(x, y), so a solution with y < 0 gives one with y > 0 and
    only y >= 0 is scanned.  From 4a f = (2ax + by)^2 + D y^2, row y holds a
    solution exactly when 4am - D y^2 = s^2 and 2a divides s - by or s + by
    (the roots 2ax + by = s and = -s); the scan stops at the first such row.
    """
    a, b, _ = f.coeffs()
    D = -f.disc()
    a4m, a2 = 4 * a * m, 2 * a
    for y in range(math.isqrt(a4m // D) + 1):
        rest = a4m - D * y * y
        s = math.isqrt(rest)
        if s * s == rest and ((s - b * y) % a2 == 0 or (s + b * y) % a2 == 0):
            return True
    return False


# ---------------------------------------------------------------------------
# Form classes and composition
# ---------------------------------------------------------------------------


@value_type
class FormClass:
    """An SL2(Z) equivalence class, stored by canonical representative.
    Positive definite: the reduced form.  Square discriminant n^2: the
    representative a x^2 + n xy."""

    rep: QuadraticForm
    disc: int

    def __post_init__(self):
        assert self.rep.disc() == self.disc


def class_of(f: QuadraticForm) -> FormClass:
    """The class of a primitive form (positive definite or square disc)."""
    if not f.is_primitive():
        raise ValueError(f"form {f} is imprimitive")
    D = f.disc()
    if D < 0:
        if f.a < 0:
            raise ValueError("negative definite form; use its negation")
        g, _ = reduce_form(f)
        return FormClass(g, D)
    n = math.isqrt(D)
    if n * n != D or D == 0:
        raise ValueError("only negative or square-discriminant forms are classed")
    a, _ = canonical_square_label(f)
    return FormClass(QuadraticForm(a, n, 0), D)


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
                    return act_quadratic(f, unimodular_completion(x, y))
    raise AssertionError(f"no concordant partner found for {f} against {a1}")


def compose(c1: FormClass, c2: FormClass) -> FormClass:
    """Dirichlet composition of primitive SL2 classes of equal negative
    discriminant, validated downstream against represented values."""
    if c1.disc != c2.disc:
        raise ValueError("discriminant mismatch")
    if c1.disc >= 0:
        raise ValueError("composition implemented for negative discriminants")
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
    return class_of(QuadraticForm(f.a, -f.b, f.c))


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
    """The Picard group of primitive SL2 classes of discriminant -D, with
    its composition table and the classes representing each value m."""

    def __init__(self, D: int):
        if D <= 0 or D % 4 not in (0, 3):
            raise ValueError("need D > 0 with D = 0, 3 (mod 4)")
        self.disc = -D
        self.elements = [class_of(f) for f in enumerate_reduced(D)]
        self.by_coeffs = {c.rep.coeffs(): c for c in self.elements}
        # one rep (a, b, c) with b >= 0 per inverse pair, with the keys of
        # (a, b, c) and of (a, -b, c) when that is a rep too
        self._inverse_pairs = []
        for f in (c.rep for c in self.elements):
            if f.b >= 0:
                keys = {f.coeffs(), (f.a, -f.b, f.c)} & self.by_coeffs.keys()
                self._inverse_pairs.append((f, frozenset(keys)))
        self._table: dict[tuple, FormClass] = {}
        self._represented: dict[int, frozenset] = {}
        self._small: dict[tuple, list[int]] = {}

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

    def represented(self, m: int) -> frozenset:
        """Coefficients of the class reps that represent m.

        Only the reps (a, b, c) with b >= 0 are tested.  (a, -b, c)(x, -y)
        = (a, b, c)(x, y), so the inverse rep (a, -b, c), when it is a rep
        (0 < b < a < c), represents exactly the same values and joins
        (a, b, c) without a test of its own.
        """
        got = self._represented.get(m)
        if got is None:
            got = frozenset(
                k for f, keys in self._inverse_pairs if represents(f, m) for k in keys
            )
            self._represented[m] = got
        return got

    def small_values(self, f: QuadraticForm, avoid: int) -> list[int]:
        """Values 0 < f(x, y) <= 4000 coprime to avoid at primitive (x, y),
        from the least box |x|, |y| <= r (r <= 12) that has any.

        The scan goes ring by ring, max(|x|, |y|) = r, and stops after the
        first ring with a value.  The box of that r is the union of the
        rings up to r, and the rings before it held no value, so the set is
        that of the whole box.  f(-x, -y) = f(x, y), so each ring takes one
        point of each pair +-(x, y): (x, r) for |x| <= r, which also stands
        for the corners, and (r, y) for |y| < r.
        """
        a, b, c = coeffs = f.coeffs()
        key = (coeffs, avoid)
        got = self._small.get(key)
        if got is None:
            out = set()
            r = 1
            while not out and r <= 12:
                ring = [(x, r) for x in range(-r, r + 1)]
                ring += [(r, y) for y in range(-r + 1, r)]
                for x, y in ring:
                    if math.gcd(x, y) != 1:
                        continue
                    v = (a * x + b * y) * x + c * y * y
                    if 0 < v <= 4000 and math.gcd(v, avoid) == 1:
                        out.add(v)
                r += 1
            got = self._small[key] = sorted(out)
        return got

    def identity(self) -> FormClass:
        return principal_class(self.disc)


@functools.lru_cache(maxsize=1)
def class_group(D: int) -> ClassGroup:
    """The ClassGroup of -D; one slot, so a sweep over D builds each once."""
    return ClassGroup(D)


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
        U = unimodular_completion(x0, y0)
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
    x^2 + xy + y^2, 4 for ambiguous-and-opaque, 2 otherwise.  Both tests
    read only a, |b| and c, or the labels {a, a^-1}, so the SL2 classes of
    f and of its GL2 twin (a, -b, c) give the same n_f.
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
                for p, _ in prime_factorization(g0):
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
    ds = _divisors(n)
    return [-d for d in reversed(ds)] + ds


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
        searches = [(f.coeffs(), representations(f, f.a), representations(f, f.c))]
    else:
        n = math.isqrt(D)
        if n * n != D or D == 0:
            raise ValueError("signed automorphisms only for definite or square disc")
        if f.a == 0:
            raise ValueError("translate to nonzero leading coefficient first")
        searches = []
        for eps in (1, -1):
            if f.c != 0:
                cols2 = _solve_value_square_disc(f, eps * f.c)
            else:
                cols2 = _zero_directions(f, n)
                cols2 += [(-x, -y) for (x, y) in cols2]
            target = (eps * f.a, eps * f.b, eps * f.c)
            searches.append((target, _solve_value_square_disc(f, eps * f.a), cols2))
    # T has the columns v = T(1, 0) and w = T(0, 1)
    out = []
    for target, cols1, cols2 in searches:
        for v in cols1:
            for w in cols2:
                if v[0] * w[1] - w[0] * v[1] not in (1, -1):
                    continue
                T = Unimodular(v[0], w[0], v[1], w[1])
                if substitute(f.coeffs(), T.entries()) == target and T not in out:
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
    four sign/orientation variants f, (a, -b, c), -f and (-a, b, -c),
    read off the one cycle of f as the least of (a, b, c), (-a, b, -c),
    (c, b, a) and (-c, b, -a) over its reduced forms.

    Let s = isqrt(D).  Since D is not a square, the reducedness test
    0 < b <= s, s - b < 2|a| <= s + b is exactly 0 < b < sqrt(D),
    sqrt(D) - b < 2|a| < sqrt(D) + b.  Two maps relate the variants' cycles.

    sigma(a, b, c) = (-a, b, -c) keeps reducedness and commutes with rho.
    The test above reads only |a| and b.  The step `_rho` takes (a, b, c)
    to (c, b', (b'^2 - D)/4c), where b' depends only on b, |c| and s; on
    (-a, b, -c) it gives the same b', so rho(sigma h) = sigma(rho h).  So
    sigma maps the reduction path and cycle of f onto those of sigma f, and
    -f = sigma(a, -b, c) has the cycle sigma of the cycle of (a, -b, c).

    The cycle of (a, -b, c) is tau of f's cycle, tau(a, b, c) = (c, b, a).
    For reduced h = (a, b, c), 4|a||c| = D - b^2 = (sqrt(D) - b)(sqrt(D) + b)
    since b^2 < D forces ac < 0; so 2|c| = (sqrt(D) - b)(sqrt(D) + b)/2|a|
    lies strictly between sqrt(D) - b and sqrt(D) + b, and tau h is reduced.
    Next, rho(tau rho tau h) = h: rho(c, b, a) = (a, b', e) with
    b' = -b (mod 2|a|), and rho(e, b', a) = (a, b'', .) with b'' = b
    (mod 2|a|) in (s - 2|a|, s] (reduced forms have |a| <= s), the one
    residue there that b is, so b'' = b and the last entry is c.  rho keeps
    reducedness (Cohen, GTM 138, 5.6; `indefinite_cycle` asserts it), so
    tau rho tau h is a reduced preimage of h: rho maps the finite set of
    reduced forms of disc D onto itself, hence permutes it, and
    tau rho tau = rho^-1 there.  tau therefore maps f's rho-cycle onto
    a rho-cycle.  Both tau f = f(y, x) and (a, -b, c) = f(x, -y) come from
    f by determinant -1 substitutions, so they are properly equivalent to
    each other, and the reduced forms properly equivalent to a form make up exactly one
    rho-cycle (Cohen, GTM 138, 5.6); so tau of f's cycle is the cycle of
    (a, -b, c).  With sigma, the cycle of -f is sigma tau of f's cycle.
    """
    best = None
    for h in indefinite_cycle(f):
        a, b, c = h.a, h.b, h.c
        m = min((a, b, c), (-a, b, -c), (c, b, a), (-c, b, -a))
        if best is None or m < best:
            best = m
    return best
