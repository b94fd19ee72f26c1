"""Slow, independent reference implementations that the tests check
the package against.  Nothing in `src/jzero` uses them."""

import math
from typing import Iterator, Optional

import numpy as np

from jzero.classes import canonical_square_label, indefinite_cycle, reduce_form
from jzero.counting import Frame, frame_empty
from jzero.families import fiber_action, lattice_Lfa, member_of
from jzero.forms import (
    QuadraticForm,
    QuarticForm,
    Unimodular,
    act_quadratic,
    act_quartic,
    hessian,
    invariants,
    normalize_quadratic_sign,
)
from jzero.lattices import SubLattice
from jzero.oracle import OrbitKey, brute_quartics

_FLIP = Unimodular(1, 0, 0, -1)


def contains(L: SubLattice, x: int, y: int) -> bool:
    """(x, y) lies in the lattice with column basis (d1, k), (0, d2)."""
    return x % L.d1 == 0 and (y - L.k * (x // L.d1)) % L.d2 == 0


def is_sublattice_of(L: SubLattice, M: SubLattice) -> bool:
    return contains(M, L.d1, L.k) and contains(M, 0, L.d2)


def enumerate_reduced_scan(D: int) -> list[QuadraticForm]:
    """Reference for `classes.enumerate_reduced`: for each b = D (mod 2)
    with 3b^2 <= D, every divisor a of m = (b^2 + D) / 4 with b <= a and
    a^2 <= m, sorted by (a, c, -b)."""
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


def equivalent_by_matrix_search(
    F: QuarticForm, G: QuarticForm, bound: int = 6
) -> Optional[Unimodular]:
    """Exhaustive unimodular search; a slow validator for orbit_key."""
    rng = range(-bound, bound + 1)
    for t1 in rng:
        for t2 in rng:
            for t3 in rng:
                for t4 in rng:
                    if t1 * t4 - t2 * t3 not in (1, -1):
                        continue
                    T = Unimodular(t1, t2, t3, t4)
                    if act_quartic(F, T) == G:
                        return T
    return None


def brute_quartics_per_form(height: int) -> Iterator[QuarticForm]:
    """J = 0, disc != 0 forms of max |a_i| <= height: a0 solved on one
    (a3, a2, a1) cube per a4, and each form kept or dropped on its own
    `invariants`; a slow validator for oracle.brute_quartics."""
    if height <= 0:
        return
    H = height
    side = np.arange(-H, H + 1, dtype=np.int64)
    a3g, a2g, a1g = np.meshgrid(side, side, side, indexing="ij")
    a3f, a2f, a1f = a3g.ravel(), a2g.ravel(), a1g.ravel()
    for a4 in range(-H, H + 1):
        den = 72 * a4 * a2f - 27 * a3f * a3f
        num = 9 * a3f * a2f * a1f - 27 * a4 * a1f * a1f - 2 * a2f**3
        ok = den != 0
        a0 = np.zeros_like(den)
        np.floor_divide(-num, den, out=a0, where=ok)
        good = ok & (a0 * den == -num) & (np.abs(a0) <= H)
        for i in np.flatnonzero(good):
            F = QuarticForm(a4, int(a3f[i]), int(a2f[i]), int(a1f[i]), int(a0[i]))
            if invariants(F).disc != 0:
                yield F
        # J does not involve a0: every a0 qualifies
        for i in np.flatnonzero(~ok & (num == 0)):
            for a0v in range(-H, H + 1):
                F = QuarticForm(a4, int(a3f[i]), int(a2f[i]), int(a1f[i]), a0v)
                assert invariants(F).J == 0
                if invariants(F).disc != 0:
                    yield F


def brute_quartics_both_signs(height: int, imax: Optional[int] = None) -> list[QuarticForm]:
    """The whole J = 0 box, closed under F -> -F: the forms of
    `oracle.brute_quartics` and then their negations, in the order in
    which one scan of the box over both signs lists them.  After the
    forms with (a4, a3) < (0, 0) come the negations of the a4 = 0 ones in
    reverse, and then for a4 = 1, 2, ... the negations of the -a4 ones in
    reverse, the forms where J involves a0 (8 a4 a2 != 3 a3^2) first."""
    half = list(brute_quartics(height, imax))
    out = list(half)
    for a4 in range(height + 1):
        line = [F for F in reversed(half) if F.a4 == -a4]
        out += [F.neg() for F in line if 8 * F.a4 * F.a2 != 3 * F.a3 * F.a3]
        out += [F.neg() for F in line if 8 * F.a4 * F.a2 == 3 * F.a3 * F.a3]
    return out


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return out


def act_quartic_by_products(F: QuarticForm, T: Unimodular) -> QuarticForm:
    """F(t1 x + t2 y, t3 x + t4 y) by multiplying out the coefficient lists
    of u = t1 x + t2 y and v = t3 x + t4 y; a slow validator for
    forms.act_quartic."""
    a4, a3, a2, a1, a0 = F.coeffs()
    u = [T.t1, T.t2]  # coefficients of t1 x + t2 y in the basis (x, y)
    v = [T.t3, T.t4]
    u2, v2 = _poly_mul(u, u), _poly_mul(v, v)
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


def _square_root_of_quartic(G: QuarticForm) -> Optional[QuadraticForm]:
    """If G = f^2 for an integral quadratic f, return f."""
    g4, g3, g2, g1, g0 = G.coeffs()
    if g4 > 0:
        a = math.isqrt(g4)
        if a * a != g4 or g3 % (2 * a) != 0:
            return None
        b = g3 // (2 * a)
        num = g2 - b * b
        if num % (2 * a) != 0:
            return None
        f = QuadraticForm(a, b, num // (2 * a))
    elif g4 == 0:
        # a = 0, so f = b xy + c y^2 and G has no x^4 or x^3 y term
        if g3 != 0 or g2 < 0 or math.isqrt(g2) ** 2 != g2:
            return None
        b = math.isqrt(g2)
        if b == 0:
            if g1 != 0 or g0 < 0 or math.isqrt(g0) ** 2 != g0:
                return None
            f = QuadraticForm(0, 0, math.isqrt(g0))
        else:
            if g1 % (2 * b) != 0:
                return None
            f = QuadraticForm(0, b, g1 // (2 * b))
    else:
        return None
    # verify the full expansion, not just the solved-for coefficients
    a, b, c = f.coeffs()
    if (a * a, 2 * a * b, 2 * a * c + b * b, 2 * b * c, c * c) == G.coeffs():
        return f
    return None


def hessian_sqrt_by_forms(F: QuarticForm) -> Optional[tuple[QuadraticForm, int]]:
    """H_F = k * f^2 through the form objects: Hessian, content, primitive
    part and a signed square root, sign-normalized; a slow validator for
    forms.hessian_sqrt."""
    H = hessian(F)
    if H.is_zero():
        return None
    k = H.content()
    G = H.primitive_part()
    for sign in (1, -1):
        f = _square_root_of_quartic(QuarticForm(*(sign * c for c in G.coeffs())))
        if f is not None:
            return normalize_quadratic_sign(f), sign * k
    return None


def indefinite_class_key_four_cycles(f: QuadraticForm) -> tuple:
    """The least reduced form over the reduction cycles of f, (a, -b, c),
    -f and (-a, b, -c), each walked on its own; a slow validator for
    classes.indefinite_class_key."""
    variants = (f, QuadraticForm(f.a, -f.b, f.c), f.neg(), QuadraticForm(-f.a, f.b, -f.c))
    return min(min(h.coeffs() for h in indefinite_cycle(g)) for g in variants)


def orbit_key_uncached(F: QuarticForm) -> OrbitKey:
    """oracle.orbit_key with every divisor step recomputed for each form,
    through the slow validators above rather than the package's closed forms."""
    t = invariants(F)
    if t.J != 0 or t.disc == 0:
        raise ValueError("orbit keys need J = 0 and disc != 0")
    f, _ = hessian_sqrt_by_forms(F)
    d = f.disc()
    inv_t = (t.I, t.J, t.disc)
    if d < 0:
        g, T = reduce_form(f)
        if g.b < 0:
            g = act_quadratic(g, _FLIP)
            T = T.mul(_FLIP)
        pt = member_of(g, act_quartic_by_products(F, T))
        return OrbitKey("posdef", g.coeffs(), fiber_action(g).canonical(pt.A, pt.B), inv_t)
    n = math.isqrt(d)
    if n * n != d:
        return OrbitKey("indefinite", indefinite_class_key_four_cycles(f), (0, 0), inv_t)
    cands = []
    for h in (f, f.neg()):
        lab, U = canonical_square_label(h)
        cands.append((lab, U))
        lab2, W = canonical_square_label(act_quadratic(QuadraticForm(lab, n, 0), _FLIP))
        cands.append((lab2, U.mul(_FLIP).mul(W)))
    best = min(lab for lab, _ in cands)
    U = next(U for lab, U in cands if lab == best)
    g = QuadraticForm(best, n, 0)
    pt = member_of(g, act_quartic_by_products(F, U))
    return OrbitKey("square", g.coeffs(), fiber_action(g).canonical(pt.A, pt.B), inv_t)


def ellipse_points_full_plane(frame: Frame, ibound: int) -> list[tuple[int, int]]:
    """Reference for `counting.ellipse_points`: every row y of the reduced
    form, of both signs, scanned in full and sorted."""
    if frame_empty(frame, ibound):
        return []
    (d1, k, d2), num, den, (ga, gb, gc), (t1, t2, t3, t4) = frame
    bound = num * ibound // den
    delta = 4 * ga * gc - gb * gb
    r = 4 * ga * bound
    ymax = math.isqrt(r // delta)
    pts = []
    for y in range(-ymax, ymax + 1):
        w = math.isqrt(r - delta * y * y)
        for x in range(-((w + gb * y) // (2 * ga)), (w - gb * y) // (2 * ga) + 1):
            if x or y:
                s, t = t1 * x + t2 * y, t3 * x + t4 * y
                pts.append((d1 * s, k * s + d2 * t))
    pts.sort()
    return pts


def square_family_points_two_signs(a: int, n: int, ibound: int) -> list[tuple[int, int]]:
    """Reference for `counting.square_family_points`: for each B = d Bpp,
    the runs of A for B and for -B, each scanned on its own."""
    L = lattice_Lfa(QuadraticForm(a, n, 0))
    assert L.d1 == 1 and L.k == 0
    d = L.d2
    K = 4 * abs(a) ** 3 * ibound
    out = []
    Bpp = 1
    while 3 * n * n * d * Bpp <= K:
        for sgn in (1, -1):
            B = d * Bpp * sgn
            lim = K // (3 * n * n * d * Bpp)
            t0 = a * B
            lo = -((lim - t0) // (4 * n))
            hi = (t0 + lim) // (4 * n)
            for A in range(lo, hi + 1):
                w = t0 - 4 * n * A
                if w == 0:
                    continue
                if 3 * n * n * abs(B) * abs(w) <= K:
                    out.append((A, B))
        Bpp += 1
    return out
