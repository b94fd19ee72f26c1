"""Independent brute-force ground truth for the orbit counts.

Quartics with J = 0 are enumerated from a coefficient box by solving
J(F) = 0 for a0 given the other four coefficients (vectorized); each
surviving form is keyed by transporting it into the canonical coordinates
of its Hessian divisor class and canonicalizing the family point under
the divisor's finite symmetry group.  Two forms get the same key exactly
when they are GL2(Z)-equivalent, which is cross-validated by explicit
matrix search at small height.

The box height needed to see every orbit up to a given height bound is
certified from the family enumeration itself (the canonical representative
of every counted orbit is a family point whose coefficients the counting
pass has already maximized over).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Optional

import numpy as np

from .classes import (
    FormClass,
    Group,
    class_of,
    canonical_square_label,
    compose,
    cover_multiplicity,
    enumerate_reduced,
    inverse,
    reduce_form,
    representations,
)
from .counting import HeightPolicy, DISC_POLICY, count_M, count_N
from .families import fiber_action, member_of
from .forms import (
    QuadraticForm,
    QuarticForm,
    Unimodular,
    act_quadratic,
    act_quartic,
    hessian_sqrt,
    invariants,
    is_irreducible_Q,
)

MAX_BRUTE_HEIGHT = 60


def brute_quartics(
    height: int,
    j_zero: bool = True,
    nonzero_disc: bool = True,
    max_height: int = MAX_BRUTE_HEIGHT,
) -> Iterator[QuarticForm]:
    """All integral quartics with max |a_i| <= height passing the filters,
    in deterministic order."""
    if height > max_height:
        raise ValueError(f"height {height} above configured maximum {max_height}")
    if height <= 0:
        return
    if not j_zero:
        rng = range(-height, height + 1)
        for coeffs in product(rng, repeat=5):
            F = QuarticForm(*coeffs)
            if nonzero_disc and invariants(F).disc == 0:
                continue
            yield F
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
        idx = np.flatnonzero(good)
        for i in idx:
            F = QuarticForm(a4, int(a3f[i]), int(a2f[i]), int(a1f[i]), int(a0[i]))
            if nonzero_disc and invariants(F).disc == 0:
                continue
            yield F
        # degenerate branch: J does not involve a0; every a0 qualifies
        deg = np.flatnonzero((~ok) & (num == 0))
        for i in deg:
            for a0v in range(-H, H + 1):
                F = QuarticForm(a4, int(a3f[i]), int(a2f[i]), int(a1f[i]), a0v)
                if invariants(F).J != 0:
                    raise AssertionError("degenerate branch must have J = 0")
                if nonzero_disc and invariants(F).disc == 0:
                    continue
                yield F


# ---------------------------------------------------------------------------
# Orbit keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitKey:
    slice: str  # "posdef" | "square" | "indefinite"
    divisor: tuple[int, int, int]
    point: tuple[int, int]
    invariants: tuple[int, int, int]


_FLIP = Unimodular(1, 0, 0, -1)

_ACTION_CACHE: dict[tuple[int, int, int], object] = {}
_LABEL_CACHE: dict[tuple[int, int, int], tuple] = {}


def _cached_action(g: QuadraticForm):
    key = g.coeffs()
    act = _ACTION_CACHE.get(key)
    if act is None:
        act = fiber_action(g)
        _ACTION_CACHE[key] = act
    return act


def _square_candidates(f: QuadraticForm) -> list[tuple[int, Unimodular]]:
    """(label, transform) pairs reaching every canonical rep the divisor
    can be moved to: labels of f, its inverse, and both for -f."""
    n = math.isqrt(f.disc())
    out = []
    for h in (f, f.neg()):
        lab, U = canonical_square_label(h if h.a != 0 else h)
        out.append((lab, U))
        # inverse label: conjugate by diag(1, -1) and re-canonicalize
        g2 = act_quadratic(QuadraticForm(lab, n, 0), _FLIP)
        lab2, W = canonical_square_label(g2)
        out.append((lab2, U.mul(_FLIP).mul(W)))
    return out


def orbit_key(F: QuarticForm) -> OrbitKey:
    """Canonical GL2(Z)-orbit label of a J = 0, nonzero-discriminant form."""
    t = invariants(F)
    if t.J != 0 or t.disc == 0:
        raise ValueError("orbit keys need J = 0 and disc != 0")
    res = hessian_sqrt(F)
    if res is None:
        raise AssertionError(f"no Hessian square root for J = 0 form {F}")
    f, _ = res
    d = f.disc()
    inv_t = (t.I, t.J, t.disc)
    if d < 0:
        g, T = reduce_form(f)
        if g.b < 0:
            shift = _FLIP
            g2 = act_quadratic(g, shift)
            T = T.mul(shift)
            g = g2
        F2 = act_quartic(F, T)
        pt = member_of(g, F2)
        assert pt is not None, (F, g)
        canon = _cached_action(g).canonical(pt.A, pt.B)
        return OrbitKey("posdef", g.coeffs(), canon, inv_t)
    n = math.isqrt(d)
    if n * n != d:
        # out-of-scope slice: the key is a true orbit invariant (canonical
        # divisor class plus invariants) but deliberately not separating
        from .classes import indefinite_class_key

        return OrbitKey("indefinite", indefinite_class_key(f), (0, 0), inv_t)
    cands = _square_candidates(f)
    best = min(lab for lab, _ in cands)
    lab, U = next(c for c in cands if c[0] == best)
    g = QuadraticForm(best, n, 0)
    F2 = act_quartic(F, U)
    pt = member_of(g, F2)
    assert pt is not None, (F, f, g)
    canon = _cached_action(g).canonical(pt.A, pt.B)
    return OrbitKey("square", g.coeffs(), canon, inv_t)


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


# ---------------------------------------------------------------------------
# Brute-force orbit counting with cover certification
# ---------------------------------------------------------------------------


@dataclass
class BruteForceReport:
    X: int
    policy: str
    height: int
    required_height: int
    n_orbits: int
    m_orbits: int
    indefinite_orbits: int  # lower bound: keyed by divisor class + invariants
    n_keys: set = field(default_factory=set)
    m_keys: set = field(default_factory=set)
    fiber_findings: list[str] = field(default_factory=list)

    @property
    def cover_certified(self) -> bool:
        return self.height >= self.required_height


def certify_cover(X: int, policy: HeightPolicy = DISC_POLICY) -> int:
    """Box height needed so every counted orbit has a representative inside:
    the maximum coefficient over all canonical family points in range."""
    n_rep = count_N(X, policy)
    m_rep = count_M(X, policy)
    return max(n_rep.max_coeff, m_rep.max_coeff)


def orbit_count_bruteforce(
    X: int,
    policy: HeightPolicy = DISC_POLICY,
    height: Optional[int] = None,
    check_fibers: bool = False,
) -> BruteForceReport:
    """Count distinct irreducible GL2-orbit keys in the coefficient box,
    split by Hessian-divisor slice."""
    required = certify_cover(X, policy)
    if height is None:
        height = required
    if height < required:
        raise ValueError(
            f"box height {height} cannot cover all orbits (need {required})"
        )
    Z = policy.ibound(X)
    rep = BruteForceReport(X, policy.mode, height, required, 0, 0, 0)
    indefinite = set()
    fiber_counts: dict[OrbitKey, int] = {}
    for F in brute_quartics(height):
        t = invariants(F)
        if abs(t.I) > Z or (policy.mode == "disc" and 4 * abs(t.I) ** 3 > 27 * X):
            continue
        if not is_irreducible_Q(F):
            continue
        key = orbit_key(F)
        if key.slice == "posdef":
            rep.n_keys.add(key)
        elif key.slice == "square":
            rep.m_keys.add(key)
        else:
            indefinite.add(key)
        if check_fibers:
            fiber_counts[key] = fiber_counts.get(key, 0) + 1
    rep.n_orbits = len(rep.n_keys)
    rep.m_orbits = len(rep.m_keys)
    rep.indefinite_orbits = len(indefinite)
    if check_fibers:
        _check_fiber_sizes(rep, fiber_counts)
    return rep


def _check_fiber_sizes(rep: BruteForceReport, fiber_counts) -> None:
    for key in list(rep.n_keys) + list(rep.m_keys):
        g = QuadraticForm(*key.divisor)
        action = _cached_action(g)
        size = action.orbit_size(*key.point)
        n_f = cover_multiplicity(class_of(g, Group.GL2))
        if n_f % size != 0:
            rep.fiber_findings.append(
                f"fiber size {size} does not divide n_f={n_f} at {key}"
            )
        elif size != n_f:
            rep.fiber_findings.append(
                f"fiber size {size} < n_f={n_f} at divisor {g}, point {key.point}"
            )


# ---------------------------------------------------------------------------
# Composition oracle through represented values
# ---------------------------------------------------------------------------


def _small_values(f: QuadraticForm, avoid: int, bound: int = 4000) -> list[int]:
    out = set()
    r = 1
    while not out and r <= 12:
        for x in range(-r, r + 1):
            for y in range(-r, r + 1):
                if math.gcd(x, y) != 1:
                    continue
                v = f.value(x, y)
                if 0 < v <= bound and math.gcd(v, avoid) == 1:
                    out.add(v)
        r += 1
    return sorted(out)


def value_candidates(
    c1: FormClass, c2: FormClass, pairs: int = 2
) -> tuple[list[FormClass], list[tuple[int, int]]]:
    """Classes of disc(c1) representing m1*m2 for `pairs` coprime value
    pairs represented by c1 and c2; intersected over the pairs."""
    if c1.disc != c2.disc or c1.disc >= 0:
        raise ValueError("need equal negative discriminants")
    D = -c1.disc
    classes = [class_of(f) for f in enumerate_reduced(D)]
    vals1 = _small_values(c1.rep, 2 * D)
    used = []
    cand: Optional[set] = None
    for m1 in vals1:
        vals2 = _small_values(c2.rep, 2 * D * m1)
        for m2 in vals2:
            got = {
                c.rep.coeffs()
                for c in classes
                if representations(c.rep, m1 * m2)
            }
            cand = got if cand is None else (cand & got)
            used.append((m1, m2))
            if len(used) >= pairs:
                return [class_of(QuadraticForm(*t)) for t in sorted(cand)], used
    if cand is None:
        raise RuntimeError(f"no coprime value pairs found for {c1} and {c2}")
    return [class_of(QuadraticForm(*t)) for t in sorted(cand)], used


def compose_oracle(c1: FormClass, c2: FormClass) -> FormClass:
    """The composition class located through represented values.

    The value data pins the product only up to the inverse ambiguity, so
    the returned class is the candidate matching the Dirichlet composition;
    a composition outside the candidate set raises.
    """
    cands, used = value_candidates(c1, c2)
    got = compose(c1, c2)
    for c in cands:
        if c == got or c == inverse(got):
            return got
    raise AssertionError(
        f"composition {got.rep} not among value candidates "
        f"{[c.rep.coeffs() for c in cands]} (pairs {used})"
    )
