"""Reduction theory and class arithmetic for binary quadratic forms.

Positive definite forms: Gauss reduction with transform tracking, reduced
|b| <= a <= c (b >= 0 on the boundary), class enumeration for a range of
discriminants (h2(-D) = len(reduced_forms(D))), Dirichlet composition of
one pair through concordant representatives (`compose`), and composition
tables, which `composition_table` alone builds, by Shanks' row composition
(`compose_rows`); `class_group(D)` keeps the one of -D.

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


def xgcd_rows(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, x, y) row by row with g = gcd(u, v) = u x + v y, for v > 0 and
    any u: the extended Euclid algorithm (Cohen, GTM 138, 1.3) on (v,
    u mod v), stepping only the rows not yet done; y is (g - u x) / v.
    u^(-1) mod m is x mod m of (u, m), as `pow(u, -1, m)`, and 0 where
    m = 1.  The remainders lie in [0, v] and |x| <= v, so nothing passes
    v but u mod v and the products u x and v y of the last line, within
    |u| v.  The arrays may be int64 or object (Python integers)."""
    g, x = np.empty_like(v), np.empty_like(v)
    rows = np.arange(len(v))
    r0, r1, s0, s1 = v, u % v, 0 * v, 0 * v + 1  # r_i = s_i u (mod v)
    while len(rows):
        done = r1 == 0
        g[rows[done]], x[rows[done]] = r0[done], s0[done]
        live = ~done
        rows, r0, r1, s0, s1 = rows[live], r0[live], r1[live], s0[live], s1[live]
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return g, x, (g - u * x) // v


def gauss_reduce_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """`gauss_reduce` row by row: the rows (ga, gb, gc, t1, t2, t3, t4) of
    its reduced forms and transforms, by the same steps, stepping only the
    forms not yet reduced.  Its shear is taken on every row, since
    k = floor((a - b) / 2a) is 0 exactly when b lies in (-a, a] already.
    Every coefficient stays within the largest initial one, G, and each
    product within 4G (the proof is at `counting.frame_block`).  The arrays
    may be int64 or object (Python integers)."""
    one = np.ones_like(a)
    out = np.empty((7, len(a)), dtype=a.dtype)
    rows = np.arange(len(a))
    t1, t2, t3, t4 = one, 0 * one, 0 * one, one
    while len(rows):
        k = (a - b) // (2 * a)
        b, c = 2 * a * k + b, (a * k + b) * k + c
        t2, t4 = t1 * k + t2, t3 * k + t4
        done = (c > a) | ((c == a) & (b >= 0))
        out[:, rows[done]] = np.array((a, b, c, t1, t2, t3, t4))[:, done]
        live = ~done
        rows, a, b, c = rows[live], c[live], -b[live], a[live]
        t1, t2, t3, t4 = t2[live], -t1[live], t4[live], -t3[live]
    return out


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


def enumerate_reduced(lo: int, hi: int) -> np.ndarray:
    """The primitive reduced forms of discriminant -D for lo <= D < hi, as
    int64 rows (D, a, b, c) sorted by (D, a, c, -b).

    A reduced form has |b| <= a <= c, so D = 4ac - b^2 >= 3a^2 and a runs
    over 1 ... isqrt((hi - 1) // 3).  Each pair (a, b) with -a < b <= a
    takes its run of c with lo <= 4ac - b^2 < hi and c >= a, or c > a when
    b < 0 (reduced forms put b >= 0 on the boundary), and the rows with
    gcd(a, b, c) = 1 are kept: Cohen, GTM 138, 5.3, for many D at once.
    The pairs go through in chunks of a of about 2^17 cells (a, b), so a
    single large D (3.3M pairs at 10^7) takes no larger arrays than a window
    of small D.  The pairs come in (a, 2b^2 - b) order, the order of
    (c, -b) at fixed D and a, so one stable sort by D sorts the rows.
    """
    amax = math.isqrt(max(hi - 1, 0) // 3)
    parts = [np.empty((0, 4), dtype=np.int64)]
    a0 = 1
    while a0 <= amax:
        a1 = min(amax, math.isqrt(a0 * a0 + 2**16))
        a = np.arange(a0, a1 + 1, dtype=np.int64)[:, None]
        k = np.arange(2 * a1 + 1, dtype=np.int64)
        b = np.where(k % 2, (k + 1) // 2, -(k // 2))  # 0, 1, -1, 2, -2, ...
        a4, bb = 4 * a, b * b
        cmin = np.maximum(a + (b < 0), (bb + (lo - 1) + a4) // a4)
        cmax = (bb + (hi - 1)) // a4
        run = np.nonzero((cmax >= cmin) & (np.abs(2 * b - 1) < 2 * a))
        a, b, c = run[0] + a0, b[run[1]], cmin[run]
        if hi - lo > 4 * a0:  # else each run holds at most one c
            n = cmax[run] - c + 1
            first = np.cumsum(n) - n
            a, b = np.repeat(a, n), np.repeat(b, n)
            c = np.repeat(c - first, n) + np.arange(len(a))
        rows = np.stack((4 * a * c - b * b, a, b, c), axis=1)
        parts.append(rows[np.gcd(np.gcd(a, b), c) == 1])
        a0 = a1 + 1
    rows = np.concatenate(parts)
    return rows[np.argsort(rows[:, 0], kind="stable")]


def reduced_forms_by_disc(lo: int, hi: int) -> dict[int, list[QuadraticForm]]:
    """The reduced forms of `enumerate_reduced(lo, hi)` by D, ascending:
    every D = 0, 3 (mod 4) with D >= 3 in [lo, hi) has at least one."""
    out: dict[int, list[QuadraticForm]] = {}
    for D, a, b, c in enumerate_reduced(lo, hi).tolist():
        out.setdefault(D, []).append(QuadraticForm(a, b, c))
    return out


def reduced_forms(D: int) -> list[QuadraticForm]:
    """All primitive reduced forms of discriminant -D (D > 0), sorted by
    (a, c, -b): the one-D case of `enumerate_reduced`."""
    if D <= 0:
        raise ValueError("D must be positive")
    return reduced_forms_by_disc(D, D + 1).get(D, [])


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


def _isqrt_rows(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) row by row for 0 <= n < 2^52: the float square root
    of an exactly represented n is within 1 of it, and one step each way
    makes it exact."""
    s = np.sqrt(n).astype(np.int64)
    s -= s * s > n
    return s + ((s + 1) * (s + 1) <= n)


def represents_rows(D: np.ndarray, f: np.ndarray, m: np.ndarray) -> np.ndarray:
    """`represents` row by row: whether the positive definite form f[i] =
    (a, b, c) of discriminant -D[i] takes the value m[i] >= 1, from one
    integer-array scan of every row y of every form.  Row y of (a, b, c)
    holds a solution exactly when 4am - D y^2 = s^2 and 2a divides s - by
    or s + by, so the scan reads only a and |b|.  Exact while 4am < 2^52."""
    a, b = f[:, 0], f[:, 1]
    a4m = 4 * a * m
    ny = _isqrt_rows(a4m // D) + 1
    row = np.repeat(np.arange(len(f)), ny)
    y = np.arange(len(row)) - np.repeat(np.cumsum(ny) - ny, ny)
    rest = a4m[row] - D[row] * y * y
    s, a2, by = _isqrt_rows(rest), 2 * a[row], b[row] * y
    hit = (s * s == rest) & (((s - by) % a2 == 0) | ((s + by) % a2 == 0))
    return np.bincount(row[hit], minlength=len(f)) > 0


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


def compose_rows(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """`compose` row by row: the reduced (a, b, c) of the composition of
    the classes of the reduced forms f1[i] and f2[i], of one discriminant
    -D each, as rows of an (n, 3) int64 array.

    Shanks' composition (Cohen, GTM 138, 5.4.7) with a1 <= a2: s = (b1 +
    b2)/2, n = b2 - s; d = gcd(a2, a1) = y1 a2 + v a1 and d1 = gcd(s, d) =
    x2 s - y2 d, from two `xgcd_rows` passes (a1 | a2 gives y1 = 0, and
    d | s gives x2 = 0, y2 = -1, as Cohen's special cases); v1 = a1/d1,
    v2 = a2/d1, r = (y1 y2 n - x2 c2) mod v1, and the composite (v1 v2,
    b2 + 2 v2 r, (c2 d1 + r (b2 + v2 r))/v1) goes through
    `gauss_reduce_rows`.

    Exact in int64 while 4D^2 < 2^63 (D < 1.5e9): with a1 <= a2 <=
    sqrt(D/3) and c2 <= (D + a2^2)/4a2 < D, the largest intermediates
    c2 d1 and r (b2 + v2 r) are below D^2, and so is every coefficient of
    the composite, whose reduction keeps its products within 4D^2.
    """
    swap = (f1[:, 0] > f2[:, 0])[:, None]
    a1, b1, _ = np.where(swap, f2, f1).T
    a2, b2, c2 = np.where(swap, f1, f2).T
    s = (b1 + b2) // 2
    n = b2 - s
    d, y1, _ = xgcd_rows(a2, a1)
    d1, x2, w = xgcd_rows(s, d)  # Cohen's y2 is -w
    v1, v2 = a1 // d1, a2 // d1
    r = (-y1 * w * n - x2 * c2) % v1
    return gauss_reduce_rows(
        v1 * v2, b2 + 2 * v2 * r, (c2 * d1 + r * (b2 + v2 * r)) // v1
    )[:3].T


def class_pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices (i, j) of every ordered pair of rows (D, a, b, c) of
    `enumerate_reduced` with equal D, in (D, i, j) order: h^2 pairs for a
    D of h classes, at the rows of its h classes."""
    first = np.flatnonzero(np.diff(rows[:, 0], prepend=-1))
    h = np.diff(first, append=len(rows))
    size = np.repeat(h, h)  # each row's class number
    start = np.repeat(first, h)
    i = np.repeat(np.arange(len(rows)), size)
    j = np.arange(len(i)) - np.repeat(np.cumsum(size) - size, size) + np.repeat(start, size)
    return i, j


def _row_index(rows: np.ndarray, D: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The index of the row (D[i], *f[i]) among `rows`, -1 where none: a
    reduced form of discriminant -D is fixed by (D, a, b), which keys the
    search, and the found row is compared whole."""
    w = math.isqrt(int(rows[:, 0].max()) // 3) + 1  # above every reduced |b| <= a
    scale = np.array([w * (2 * w + 1), 2 * w + 1, 1])
    keys = rows[:, :3] @ scale
    order = np.argsort(keys)
    at = np.searchsorted(keys[order], np.column_stack((D, f[:, :2])) @ scale)
    at = order[at.clip(max=len(rows) - 1)]
    found = (rows[at, 0] == D) & (rows[at, 1:] == f).all(axis=1)
    return np.where(found, at, -1)


def composition_table(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The composition table of the classes of `enumerate_reduced` rows
    (D, a, b, c): every ordered pair (i, j) of `class_pairs`, the reduced
    composite f3 of rows i and j by `compose_rows`, and the index among
    `rows` of each f3, -1 where it is none of them.  For the rows of one
    D, the indices read as h rows of h are the table of its class group."""
    i, j = class_pairs(rows)
    f3 = compose_rows(rows[i, 1:], rows[j, 1:])
    return i, j, f3, _row_index(rows, rows[i, 0], f3)


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


@functools.lru_cache(maxsize=1)
def class_group(D: int) -> tuple[list[FormClass], np.ndarray]:
    """The classes of -D, in `enumerate_reduced` order (the principal class
    first: it is the one reduced form with a = 1), and their h x h table T
    of `composition_table` indices, class x * class y = class T[x, y].  One
    slot, so a sweep over D builds each once."""
    rows = enumerate_reduced(D, D + 1)
    _, _, _, index = composition_table(rows)
    assert (index >= 0).all(), D
    h = len(rows)
    return [FormClass(QuadraticForm(*f), -D) for f in rows[:, 1:].tolist()], index.reshape(h, h)


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
