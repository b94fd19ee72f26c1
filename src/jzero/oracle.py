"""Independent brute-force ground truth for the orbit counts.

Quartics with J = 0 are enumerated from a coefficient box by solving
J(F) = 0 for a0 given the other four coefficients, on numpy grids over
(a2, a1) per (a4, a3), which also apply the bound on |I|.  Only the rows
with 3 | a2 are solved: J = a0 den - num with 9 | den and num = 2 a2^3
(mod 9), so a solved a0 needs 3 | a2.  F -> -F negates J and keeps I, so
the box is closed under it, and `brute_quartics` yields one form of each
pair {F, -F}, the one with (a4, a3) < (0, 0).  F and -F are irreducible
together, so the box decides irreducibility once per pair, a block of
BOX_CHUNK pairs at a time (`forms.irreducible_rows`: a4 a0 = 0, the
mod-p certificate on int64 arrays, then a root or quadratic-factor
witness on the divisor pairs of a4 and a0, and full factorization of the
rows both leave).  That decision uses no family theory, only the mod-p
theorem, explicit factors and factorization, so the oracle stays
independent of the counts it checks.
Each irreducible pair is keyed once as well: F is keyed by transporting
it into the canonical coordinates of its Hessian divisor class and
canonicalizing the family point under the divisor's finite symmetry
group, and -F shares that key but for the point, which is the canonical
image of minus the point (`negated_key`, with the proof).
Everything that depends only on the Hessian divisor (its canonical form
and transform, fiber action and n_f) is computed once per divisor
(`divisor`).  The per-form steps are integer
closed forms: `hessian_sqrt` works on the Hessian's coefficient tuple,
`act_quartic` expands the substitution directly in the matrix entries,
and an indefinite divisor is labelled from its one reduction cycle
(`indefinite_class_key`).  Only the box count needs those labels; a check
that keys the definite and square slices alone tests the Hessian root
(`hessian_root`, `is_indefinite`) and keys the rest from it (`root_key`).
Two forms get the same key exactly when they are GL2(Z)-equivalent; the
tests check this against an explicit matrix search at small height, and
the keys against slow references of all three steps (`tests/reference.py`).

The box height needed to see every orbit up to a given height bound is
certified from the family enumeration itself (the canonical representative
of every counted orbit is a family point whose coefficients the counting
pass has already maximized over).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, islice
from typing import Iterator, Optional

import numpy as np

from .classes import (
    class_of,
    canonical_square_label,
    cover_multiplicity,
    indefinite_class_key,
    reduce_form,
    represents_rows,
)
from .counting import CountReport, DISC_POLICY, count_M, count_N
from .families import FiberAction, fiber_action, member_of
from .forms import (
    MAX_BRUTE_HEIGHT,
    QuadraticForm,
    QuarticForm,
    Unimodular,
    act_quadratic,
    act_quartic,
    hessian_sqrt,
    invariants,
    irreducible_rows,
    value_type,
)

# box forms decided per `irreducible_rows` call: fewer than about a
# thousand pay more in numpy's per-call cost, and 4096, whose table of
# F(t, 1) mod p holds up to 4096 x 59 values, raised the oracle's peak RSS
# by about 1 MB, where 2048 keeps it within 0.3 MB
BOX_CHUNK = 2048


def brute_quartics(height: int, imax: Optional[int] = None) -> Iterator[QuarticForm]:
    """One form of each pair {F, -F} of integral quartics with J = 0,
    disc != 0 and max |a_i| <= height, and |I| <= imax when imax is given:
    the one with (a4, a3) < (0, 0), in deterministic order.

    J = 72 a4 a2 a0 + 9 a3 a2 a1 - 27 a4 a1^2 - 27 a0 a3^2 - 2 a2^3 is
    linear in a0, so a0 is solved for on one (a2, a1) grid per (a4, a3).
    Since disc = (4 I^3 - J^2)/27, J = 0 gives disc = 4 I^3 / 27, so
    disc != 0 exactly when I = 12 a4 a0 - 3 a3 a1 + a2^2 != 0; both tests
    on I run on the grid.  Within each a4 the solved forms come in
    (a3, a2, a1) order, followed by the forms where J does not involve a0
    (every a0 qualifies), in (a3, a2, a1, a0) order.

    Write J = a0 den - num with den = 9 (8 a4 a2 - 3 a3^2); since
    num = 2 a2^3 (mod 9), a solved a0 needs 9 | a2^3, so the grid holds
    only the rows with 3 | a2.  Where den = 0 (J does not involve a0),
    num is a quadratic in a1 of discriminant 27 a2^2 (3 a3^2 - 8 a4 a2) = 0,
    so each (a4, a3) with a4 != 0 has at most one such cell, a2 =
    3 a3^2 / (8 a4), a1 = a3^3 / (16 a4^2) when both are integers, found
    in integer arithmetic apart from the grid (for a4 = 0 they force
    a3 = a2 = 0 and so I = 0).

    F -> -F negates J and keeps I, so the box is closed under it, and
    a4 = a3 = 0 forces a2 = 0 and so I = 0: every pair has exactly one
    member with (a4, a3) < (0, 0), and only those lines are solved.
    """
    if height > MAX_BRUTE_HEIGHT:
        raise ValueError(f"height {height} above the maximum {MAX_BRUTE_HEIGHT}")
    if height <= 0:
        return
    H = height
    a2g, a1g = np.meshgrid(
        np.arange(-(H // 3) * 3, H + 1, 3, dtype=np.int64),
        np.arange(-H, H + 1, dtype=np.int64),
        indexing="ij",
    )
    a2f, a1f = a2g.ravel(), a1g.ravel()
    a2a1, a1sq, a2sq, a2cube = a2f * a1f, a1f * a1f, a2f * a2f, a2f**3

    cells = a2f.size
    step = max(1, 8192 // cells)  # lines per numpy pass, about 64 KB an array

    def solved(a4: int, a3s: range) -> np.ndarray:
        # (a3, a2, a1, a0) rows of the lines (a4, a3), J = a0 * den - num,
        # solved on a (line, cell) grid a few lines at a time
        den4 = 72 * a4 * a2f
        num4 = 27 * a4 * a1sq + 2 * a2cube
        lines = []
        for first in range(a3s.start, a3s.stop, step):
            a3c = np.arange(first, min(first + step, a3s.stop), dtype=np.int64)[:, None]
            den = den4 - 27 * a3c * a3c
            num = num4 - 9 * a3c * a2a1
            ok = den != 0
            if not ok.all():
                den = np.where(ok, den, 1)
            a0, rem = np.divmod(num, den)
            idx = np.flatnonzero(ok & (rem == 0) & (np.abs(a0) <= H))
            a3, cell, a0 = first + idx // cells, idx % cells, a0.ravel()[idx]
            I = 12 * a4 * a0 - 3 * a3 * a1f[cell] + a2sq[cell]
            keep = I != 0
            if imax is not None:
                keep &= np.abs(I) <= imax
            cell = cell[keep]
            lines.append(np.stack((a3[keep], a2f[cell], a1f[cell], a0[keep]), axis=1))
        return np.concatenate(lines).astype(np.int16)

    a0s = np.arange(-H, H + 1, dtype=np.int64)

    def degenerate(a4: int) -> np.ndarray:
        # (a3, a2, a1, a0) rows of the cells where J does not involve a0:
        # J is linear in a0, so J = 0 at a0 = 0 and 1 holds on the cell, and
        # I = 12 a4 a0 - 3 a3 a1 + a2^2 is taken over all a0 at once
        rows = [np.empty((0, 4), dtype=np.int64)]
        for a3 in range(-H, H + 1):
            a2, r2 = divmod(3 * a3 * a3, 8 * a4)
            a1, r1 = divmod(a3**3, 16 * a4 * a4)
            if r2 or r1 or abs(a2) > H or abs(a1) > H:
                continue
            if any(invariants(QuarticForm(a4, a3, a2, a1, a0)).J for a0 in (0, 1)):
                raise AssertionError("degenerate branch must have J = 0")
            I = 12 * a4 * a0s - 3 * a3 * a1 + a2 * a2
            keep = I != 0
            if imax is not None:
                keep &= np.abs(I) <= imax
            a0 = a0s[keep]
            rows.append(np.column_stack((np.full((len(a0), 3), (a3, a2, a1)), a0)))
        return np.concatenate(rows).astype(np.int16)

    def emit(a4: int, rows: np.ndarray) -> Iterator[QuarticForm]:
        # a few hundred rows at a time, so that no block is one big list
        for start in range(0, len(rows), 256):
            for a3, a2, a1, a0 in rows[start : start + 256].tolist():
                yield QuarticForm(a4, a3, a2, a1, a0)

    for a4 in range(-H, 0):
        yield from emit(a4, solved(a4, range(-H, H + 1)))
        yield from emit(a4, degenerate(a4))
    yield from emit(0, solved(0, range(-H, 0)))


# ---------------------------------------------------------------------------
# Orbit keys
# ---------------------------------------------------------------------------


@value_type(order=True)
class OrbitKey:
    slice: str  # "posdef" | "square" | "indefinite"
    divisor: tuple[int, int, int]
    point: tuple[int, int]
    invariants: tuple[int, int, int]


@value_type
class Divisor:
    """What an orbit key needs of a Hessian root f, which depends on f
    alone: the slice, the canonical divisor g with f_T = g (or, on the
    indefinite slice, only the class label), the fiber action of g and
    the cover multiplicity n_f of its GL2 class."""

    slice: str
    label: tuple[int, int, int]  # g's coefficients, or the indefinite class key
    g: Optional[QuadraticForm]
    T: Optional[Unimodular]
    action: Optional[FiberAction]
    n_f: int


_FLIP = Unimodular(1, 0, 0, -1)

_DIVISORS: dict[tuple[int, int, int], Divisor] = {}


def divisor(f: QuadraticForm) -> Divisor:
    """The divisor data of the Hessian root f, memoized on f.  Every root
    of one class shares the fiber action and n_f of its canonical g."""
    d = _DIVISORS.get(f.coeffs())
    if d is None:
        d = _DIVISORS[f.coeffs()] = _new_divisor(f)
    return d


def _new_divisor(f: QuadraticForm) -> Divisor:
    disc = f.disc()
    if disc < 0:
        g, T = reduce_form(f)
        if g.b < 0:
            g = act_quadratic(g, _FLIP)
            T = T.mul(_FLIP)
        slice_ = "posdef"
    elif is_indefinite(f):
        # out-of-scope slice: the key is a true orbit invariant (canonical
        # divisor class plus invariants) but deliberately not separating
        return Divisor("indefinite", indefinite_class_key(f), None, None, None, 0)
    else:
        n = math.isqrt(disc)
        cands = _square_candidates(f)
        best = min(lab for lab, _ in cands)
        T = next(U for lab, U in cands if lab == best)
        g = QuadraticForm(best, n, 0)
        slice_ = "square"
    if g == f:
        action = fiber_action(g)
        n_f = cover_multiplicity(class_of(g))
    else:
        base = divisor(g)
        assert base.g == g, (f, g, base.g)  # g is its own canonical divisor
        action, n_f = base.action, base.n_f
    return Divisor(slice_, g.coeffs(), g, T, action, n_f)


def _square_candidates(f: QuadraticForm) -> list[tuple[int, Unimodular]]:
    """(label, transform) pairs reaching every canonical rep the divisor
    can be moved to: labels of f, its inverse, and both for -f."""
    n = math.isqrt(f.disc())
    out = []
    for h in (f, f.neg()):
        lab, U = canonical_square_label(h)
        out.append((lab, U))
        # inverse label: conjugate by diag(1, -1) and re-canonicalize
        g2 = act_quadratic(QuadraticForm(lab, n, 0), _FLIP)
        lab2, W = canonical_square_label(g2)
        out.append((lab2, U.mul(_FLIP).mul(W)))
    return out


def is_indefinite(f: QuadraticForm) -> bool:
    """Whether the Hessian root f lies on the indefinite slice: disc(f) > 0
    and not a square."""
    disc = f.disc()
    return disc > 0 and math.isqrt(disc) ** 2 != disc


def hessian_root(F: QuarticForm) -> tuple[QuadraticForm, tuple[int, int, int]]:
    """The Hessian root f of F (`hessian_sqrt`) and F's (I, J, disc).
    Raises ValueError unless J = 0 and disc != 0, and AssertionError if such
    an F has no root."""
    t = invariants(F)
    if t.J != 0 or t.disc == 0:
        raise ValueError("orbit keys need J = 0 and disc != 0")
    res = hessian_sqrt(F)
    if res is None:
        raise AssertionError(f"no Hessian square root for J = 0 form {F}")
    return res[0], (t.I, t.J, t.disc)


def root_key(F: QuarticForm, f: QuadraticForm, inv_t: tuple[int, int, int]) -> OrbitKey:
    """`orbit_key(F)` from F's `hessian_root` (f, inv_t)."""
    d = divisor(f)
    if d.g is None:
        return OrbitKey(d.slice, d.label, (0, 0), inv_t)
    pt = member_of(d.g, act_quartic(F, d.T))
    assert pt is not None, (F, f, d.g)
    return OrbitKey(d.slice, d.label, d.action.canonical(pt.A, pt.B), inv_t)


def orbit_key(F: QuarticForm) -> OrbitKey:
    """Canonical GL2(Z)-orbit label of a J = 0, nonzero-discriminant form."""
    return root_key(F, *hessian_root(F))


def negated_key(key: OrbitKey) -> tuple[OrbitKey, int, int]:
    """The key of -F from the key of F, with the size of the fiber orbit
    of their points and the n_f of their divisor (both 0 on the indefinite
    slice, whose key -F shares).

    This is exact.  F and -F have the same I and disc, and J = 0 for both.
    The Hessian is quadratic in the coefficients, so H_{-F} = H_F: the two
    forms have the same root, divisor data and transform T, and so the
    same slice and label.  `act_quartic` is linear, so -F moves to
    -(F_T), and the family map (A, B) -> `family_coefficients` is linear
    with (A, B) the two leading coefficients, so -F_T is the family point
    -P where F_T is P.  Each fiber map is linear, so orbit(-P) = -orbit(P);
    key.point lies in orbit(P), so -key.point lies in orbit(-P), and
    canonical(-P) = canonical(-key.point).  That is the only part of
    key(-F) that differs from key(F), and the sorted orbit it is read from
    gives the orbit size as well.  The divisor data is the memo entry that
    `orbit_key` filled for the canonical divisor, since key.divisor is its
    coefficient tuple.
    """
    if key.slice == "indefinite":
        return key, 0, 0
    d = _DIVISORS[key.divisor]
    A, B = key.point
    orbit = d.action.orbit(-A, -B)
    return OrbitKey(key.slice, key.divisor, orbit[0], key.invariants), len(orbit), d.n_f


# ---------------------------------------------------------------------------
# Brute-force orbit counting with cover certification
# ---------------------------------------------------------------------------


@dataclass
class BruteForceReport:
    X: int
    height: int
    required_height: int
    n_orbits: int
    m_orbits: int
    indefinite_orbits: int  # lower bound: keyed by divisor class + invariants
    n_report: CountReport  # count_N(X) and count_M(X), run by certify_cover
    m_report: CountReport
    n_keys: set = field(default_factory=set)
    m_keys: set = field(default_factory=set)
    fiber_findings: list[str] = field(default_factory=list)


def certify_cover(X: int) -> tuple[int, CountReport, CountReport]:
    """Box height needed so every counted orbit has a representative inside
    (the maximum coefficient over all canonical family points in range),
    with the N and M counts it was read from."""
    n_rep = count_N(X)
    m_rep = count_M(X)
    return max(n_rep.max_coeff, m_rep.max_coeff), n_rep, m_rep


def orbit_count_bruteforce(X: int, height: Optional[int] = None) -> BruteForceReport:
    """Count distinct irreducible GL2-orbit keys in the coefficient box,
    split by Hessian-divisor slice, and record where a counted key's fiber
    size falls short of n_f.  Each {F, -F} pair of the box is decided and
    keyed once, on the member that `brute_quartics` yields, and its
    partner's key is `negated_key` of it.  The forms are decided in blocks
    of BOX_CHUNK by `irreducible_rows` (the mod-p certificate, then the
    factor witnesses, then factoring), so memory stays flat, and only the
    irreducible ones are keyed; that decision reads no family theory, so
    the oracle stays independent of the counts it checks.  Every
    irreducible key is built, the indefinite ones too: their number is
    `indefinite_orbits`, the suite's `indefinite_divisor_classes`."""
    required, n_rep, m_rep = certify_cover(X)
    if height is None:
        height = required
    if height < required:
        raise ValueError(
            f"box height {height} cannot cover all orbits (need {required})"
        )
    rep = BruteForceReport(X, height, required, 0, 0, 0, n_rep, m_rep)
    by_slice = {"posdef": rep.n_keys, "square": rep.m_keys, "indefinite": set()}
    # ibound(X) = icbrt(27X // 4), so for an integer I the box filter
    # |I| <= ibound(X) holds exactly when 4|I|^3 <= 27X: it is the whole
    # height condition |disc F| <= X.
    box = brute_quartics(height, imax=DISC_POLICY.ibound(X))
    while chunk := list(islice(box, BOX_CHUNK)):
        for F in compress(chunk, irreducible_rows([F.coeffs() for F in chunk])):
            key = orbit_key(F)
            keys = by_slice[key.slice]
            keys.add(key)
            keys.add(negated_key(key)[0])
    rep.n_orbits = len(rep.n_keys)
    rep.m_orbits = len(rep.m_keys)
    rep.indefinite_orbits = len(by_slice["indefinite"])
    _check_fiber_sizes(rep)
    return rep


def _check_fiber_sizes(rep: BruteForceReport) -> None:
    # sorted, so that the findings do not follow the string-hash seed
    for key in sorted(rep.n_keys) + sorted(rep.m_keys):
        d = _DIVISORS[key.divisor]
        size = d.action.orbit_size(*key.point)
        if d.n_f % size != 0:
            rep.fiber_findings.append(
                f"fiber size {size} does not divide n_f={d.n_f} at {key}"
            )
        elif size != d.n_f:
            rep.fiber_findings.append(
                f"fiber size {size} < n_f={d.n_f} at divisor {d.g}, point {key.point}"
            )


# ---------------------------------------------------------------------------
# Composition oracle through represented values
# ---------------------------------------------------------------------------


VALUE_PAIRS = 2  # coprime value pairs whose products the composite must represent


def _ring(r: int) -> np.ndarray:
    """The primitive points of the ring max(|x|, |y|) = r, one of each pair
    +-(x, y): (x, r) for |x| <= r, which also stands for the corners, and
    (r, y) for |y| < r; as the rows x and y of a (2, n) array."""
    pts = [(x, r) for x in range(-r, r + 1)] + [(r, y) for y in range(-r + 1, r)]
    return np.array([p for p in pts if math.gcd(*p) == 1], dtype=np.int64).T


_RINGS = [_ring(r) for r in range(1, 13)]


def ring_values(f: np.ndarray, avoid: np.ndarray) -> np.ndarray:
    """For each positive definite form f[i] = (a, b, c): its values
    0 < f(x, y) <= 4000 coprime to avoid[i] at primitive (x, y), from the
    least box |x|, |y| <= r (r <= 12) that has any, ascending and padded
    with 0 to the widest ring that gave a row its values.

    The scan goes ring by ring, max(|x|, |y|) = r, for the rows with no
    value yet.  The box of r is the union of the rings up to r, and the
    rings before it held no value, so the set is that of the whole box.
    f(-x, -y) = f(x, y), so each ring reads one point of each pair
    +-(x, y) (`_ring`).  A row with no value in the 12 rings stays 0.
    """
    none = 4001  # above every kept value: sorts after them
    parts = []
    rows = np.arange(len(f))
    a, b, c = f[:, :, None].transpose(1, 0, 2)
    avoid = avoid[:, None]
    for x, y in _RINGS:
        v = (a * x + b * y) * x + c * y * y
        v = np.where((v <= 4000) & (np.gcd(v, avoid) == 1), v, none)
        v.sort(axis=1)
        v[:, 1:][v[:, 1:] == v[:, :-1]] = none
        v.sort(axis=1)
        done = v[:, 0] < none
        if done.any():
            parts.append((rows[done], v[done]))
        live = ~done
        rows, a, b, c, avoid = rows[live], a[live], b[live], c[live], avoid[live]
        if not len(rows):
            break
    out = np.full((len(f), max((v.shape[1] for _, v in parts), default=0)), none)
    for r, v in parts:
        out[r, : v.shape[1]] = v
    return np.where(out < none, out, 0)


def value_candidates(D: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """The coprime value pairs (m1, m2) of the pairs of reduced forms f1[i],
    f2[i] of discriminant -D[i], as an (n, VALUE_PAIRS, 2) array padded
    with 0: the first VALUE_PAIRS of the nested order m1 over
    `ring_values(f1, 2D)`, then m2 over `ring_values(f2, 2D m1)`.  Raises
    when a pair has none."""
    m1s = ring_values(f1, 2 * D)
    used = np.zeros((len(D), VALUE_PAIRS, 2), dtype=np.int64)
    count = np.zeros(len(D), dtype=np.int64)
    rows = np.arange(len(D))
    for m1 in m1s.T:
        rows = rows[(count[rows] < VALUE_PAIRS) & (m1[rows] > 0)]
        if not len(rows):
            break
        m2s = ring_values(f2[rows], 2 * D[rows] * m1[rows])
        for m2 in m2s[:, :VALUE_PAIRS].T:
            take = (count[rows] < VALUE_PAIRS) & (m2 > 0)
            at = rows[take]
            used[at, count[at]] = np.stack((m1[at], m2[take]), axis=1)
            count[at] += 1
    if not count.all():
        i = np.argmin(count)
        raise RuntimeError(f"no coprime value pairs found for {f1[i]} and {f2[i]}")
    return used


def compose_oracle(D: np.ndarray, f: np.ndarray, used: np.ndarray) -> np.ndarray:
    """Whether each composite f[i], a reduced form of discriminant -D[i],
    represents both products m1 m2 of its `value_candidates` row used[i].

    The class of c1 c2 represents m1 m2 when c1 represents m1, c2 represents
    m2 and gcd(m1, m2) = 1, and the values pin the class only up to
    inverse.  (a, -b, c)(x, -y) = (a, b, c)(x, y), so the inverse rep
    (a, -b, c) represents the same values as (a, b, c) and the test is
    that of "the composite or its inverse is a candidate"; a composite
    that fails it is not the composition.
    """
    m = used[:, :, 0] * used[:, :, 1]
    pair, col = np.nonzero(m)
    ok = represents_rows(D[pair], f[pair], m[pair, col])
    return np.bincount(pair[~ok], minlength=len(D)) == 0
