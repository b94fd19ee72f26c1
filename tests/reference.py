"""Slow, independent reference implementations that the tests check
the package against.  Nothing in `src/jzero` uses them."""

import math
from typing import Iterator, Optional

import numpy as np

from jzero.classes import canonical_square_label, indefinite_class_key, reduce_form
from jzero.families import fiber_action, member_of
from jzero.forms import (
    QuadraticForm,
    QuarticForm,
    Unimodular,
    act_quadratic,
    act_quartic,
    hessian_sqrt,
    invariants,
)
from jzero.lattices import SubLattice
from jzero.oracle import OrbitKey

_FLIP = Unimodular(1, 0, 0, -1)


def contains(L: SubLattice, x: int, y: int) -> bool:
    """(x, y) lies in the lattice with column basis (d1, k), (0, d2)."""
    return x % L.d1 == 0 and (y - L.k * (x // L.d1)) % L.d2 == 0


def is_sublattice_of(L: SubLattice, M: SubLattice) -> bool:
    return contains(M, L.d1, L.k) and contains(M, 0, L.d2)


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


def orbit_key_uncached(F: QuarticForm) -> OrbitKey:
    """oracle.orbit_key with every divisor step recomputed for each form."""
    t = invariants(F)
    if t.J != 0 or t.disc == 0:
        raise ValueError("orbit keys need J = 0 and disc != 0")
    f, _ = hessian_sqrt(F)
    d = f.disc()
    inv_t = (t.I, t.J, t.disc)
    if d < 0:
        g, T = reduce_form(f)
        if g.b < 0:
            g = act_quadratic(g, _FLIP)
            T = T.mul(_FLIP)
        pt = member_of(g, act_quartic(F, T))
        return OrbitKey("posdef", g.coeffs(), fiber_action(g).canonical(pt.A, pt.B), inv_t)
    n = math.isqrt(d)
    if n * n != d:
        return OrbitKey("indefinite", indefinite_class_key(f), (0, 0), inv_t)
    cands = []
    for h in (f, f.neg()):
        lab, U = canonical_square_label(h)
        cands.append((lab, U))
        lab2, W = canonical_square_label(act_quadratic(QuadraticForm(lab, n, 0), _FLIP))
        cands.append((lab2, U.mul(_FLIP).mul(W)))
    best = min(lab for lab, _ in cands)
    U = next(U for lab, U in cands if lab == best)
    g = QuadraticForm(best, n, 0)
    pt = member_of(g, act_quartic(F, U))
    return OrbitKey("square", g.coeffs(), fiber_action(g).canonical(pt.A, pt.B), inv_t)
