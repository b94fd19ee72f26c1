"""Exact orbit counting for J = 0 quartics, by family enumeration.

N(X): orbits with positive definite Hessian divisor, counted by
discriminant (disc(F) <= X, i.e. I(F) <= (27X/4)^(1/3) since J = 0).
For each GL2 class of primitive positive definite forms f (reduced with
b >= 0) the family members with I <= Z are the lattice points of
L_{f,a} inside the ellipse

    a B^2 - 4b AB + 16c A^2  <=  4 a^3 Z / (3 D),      D = |disc f|,

enumerated row by row with exact integer interval endpoints.  Orbits are
counted by canonicalizing each point under the finite induced symmetry
group of f - never by dividing through a constant cover multiplicity,
which fails on symmetric points and (for reducible divisors) misses the
label collapsing.  Families where the two disagree are reported as cover
findings.

The iteration range over D uses the valid (not sharp) height lower bound
I >= 3D (D = 3 mod 4) and I >= 3D/4 (D = 0 mod 4), so D runs to 4Z/3.
Measured over every family point with D < 300, the least I/D is 12 for
D = 3 mod 4 and 3/4 for D = 0 mod 4.

M(X): same counts for reducible Hessian divisors (square discriminant
n^2).  Families are indexed by unit labels a mod n merged under both
a -> a^(-1) (GL2) and a -> -a^(-1) (the divisor is only defined up to
sign), with the point sets cut by |I| <= Z.

Both counts run one kernel, `count_family`, over the families of each
discriminant (N) or modulus (M), through one aggregator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .classes import (
    Group,
    class_of,
    cover_multiplicity,
    enumerate_reduced,
    square_label_inverse,
    square_label_negation,
)
from .families import (
    FiberAction,
    family_coefficients,
    fiber_action,
    lattice_Lfa,
)
from .forms import QuadraticForm, QuarticForm, is_irreducible_Q


def icbrt(n: int) -> int:
    """Floor integer cube root, by integer Newton steps from above."""
    if n < 0:
        raise ValueError("negative")
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // 3)  # r^3 >= 2^bit_length > n
    while True:
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            return r
        r = s


@dataclass(frozen=True)
class HeightPolicy:
    """Maps the outer height X to a bound on |I(F)|.

    disc mode: |disc F| <= X, i.e. 4|I|^3 <= 27X since J = 0.
    absI mode: |I| <= X directly.
    """

    mode: str  # "disc" | "absI"

    def ibound(self, X: int) -> int:
        if self.mode == "disc":
            return icbrt(27 * X // 4)
        if self.mode == "absI":
            return int(X)
        raise ValueError(f"unknown mode {self.mode}")


DISC_POLICY = HeightPolicy("disc")
ABS_I_POLICY = HeightPolicy("absI")


# ---------------------------------------------------------------------------
# Per-family point enumeration (positive definite divisor)
# ---------------------------------------------------------------------------


def ellipse_points(f: QuadraticForm, ibound: int) -> Iterator[tuple[int, int]]:
    """Nonzero lattice points with I(family member) <= ibound, exactly.

    The condition is 3 D q(A, B) <= 4 a^3 ibound with
    q = a B^2 - 4b AB + 16c A^2 positive definite.
    """
    a, b, c = f.coeffs()
    D = -f.disc()
    assert D > 0 and a > 0
    L = lattice_Lfa(f)
    K = 4 * a**3 * ibound  # require 3*D*q <= K
    # row range: 12 D^2 A^2 <= a K
    amax_num = a * K // (12 * D * D)
    Amax = math.isqrt(amax_num)
    d1, k, d2 = L.d1, L.k, L.d2
    Astart = -(Amax // d1) * d1
    for A in range(Astart, Amax + 1, d1):
        # B-interval: 3 D a B^2 - 12 D b A B + (48 D c A^2 - K) <= 0
        discB = 12 * D * a * K - 144 * D**3 * A * A
        if discB < 0:
            continue
        s = math.isqrt(discB)
        den = 6 * D * a
        lo = -((s - 12 * D * b * A) // den)  # ceil((12DbA - s)/den)
        hi = (12 * D * b * A + s) // den
        r = (k * (A // d1)) % d2
        Bstart = lo + ((r - lo) % d2)
        for B in range(Bstart, hi + 1, d2):
            if A == 0 and B == 0:
                continue
            q = a * B * B - 4 * b * A * B + 16 * c * A * A
            if 3 * D * q <= K:
                yield (A, B)


# ---------------------------------------------------------------------------
# Per-family point enumeration (reducible, square discriminant divisor)
# ---------------------------------------------------------------------------


def merged_square_labels(n: int) -> list[int]:
    """Unit labels mod n up to a -> a^(-1) and a -> -a^(-1) (one family per
    orbit: the divisor class is only defined up to GL2-equivalence and sign)."""
    if n == 1:
        return [1]
    seen = set()
    out = []
    for a in range(1, n):
        if math.gcd(a, n) != 1 or a in seen:
            continue
        inv = square_label_inverse(a, n)
        neg = square_label_negation(a, n)
        orbit = {a, inv, neg, square_label_negation(inv, n)}
        seen |= orbit
        out.append(min(orbit))
    return out


def square_family_points(a: int, n: int, ibound: int) -> list[tuple[int, int]]:
    """Nonzero lattice points of the family of a x^2 + n xy with |I| <= ibound.

    With the B-modulus d from the lattice, |I| = 3 n^2 |B (aB - 4nA)| / (4a^3)
    and both integer factors are nonzero, so |B| is bounded and A runs over
    an interval for each B.
    """
    f = QuadraticForm(a, n, 0)
    L = lattice_Lfa(f)
    assert L.d1 == 1 and L.k == 0
    d = L.d2
    K = 4 * a**3 * ibound
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


# ---------------------------------------------------------------------------
# The family kernel and the N(X) / M(X) aggregator
# ---------------------------------------------------------------------------


@dataclass
class FamilyCount:
    points: int = 0
    irreducible_points: int = 0
    irreducible_orbits: int = 0
    max_coeff: int = 0  # over orbits: the least max |coefficient| of a member
    n_f: Optional[int] = None  # cover multiplicity, when there are irreducible points


def count_family(f: QuadraticForm, Z: int) -> FamilyCount:
    """Exact point, irreducible-point and orbit tallies for the family of f
    with |I| <= Z: a positive definite f, or a x^2 + n xy (disc n^2)."""
    if f.disc() < 0:
        points = ellipse_points(f, Z)
    elif f.c == 0 and f.b > 0:
        points = square_family_points(f.a, f.b, Z)
    else:
        raise ValueError(f"no family point set for the divisor {f}")
    out = FamilyCount()
    action: Optional[FiberAction] = None
    canon: set = set()
    for (A, B) in points:
        out.points += 1
        F = QuarticForm(*family_coefficients(f, A, B))
        if F.a4 == 0 or not is_irreducible_Q(F):
            continue
        out.irreducible_points += 1
        if action is None:
            action = fiber_action(f)
        canon.add(action.canonical(A, B))
    out.irreducible_orbits = len(canon)
    for c in canon:
        best = min(
            max(abs(x) for x in family_coefficients(f, A2, B2))
            for (A2, B2) in action.orbit(*c)
        )
        out.max_coeff = max(out.max_coeff, best)
    if out.irreducible_points:
        out.n_f = cover_multiplicity(class_of(f, Group.GL2))
    return out


@dataclass
class CountReport:
    X: int
    policy: str
    ibound: int
    raw_points: int
    irreducible_points: int
    irreducible_orbits: int
    per_D: dict[int, tuple[int, int]] = field(default_factory=dict)
    cover_findings: list[str] = field(default_factory=list)
    max_coeff: int = 0
    stated_constant: float = 0.0
    ratio: float = 0.0

    def check_sums(self) -> bool:
        return (
            sum(o for (_, o) in self.per_D.values()) == self.irreducible_orbits
            and sum(p for (p, _) in self.per_D.values()) == self.raw_points
        )


_ZETA3 = 1.2020569031595942854
C1_STATED = math.pi**2 / (27 * 32 ** (1 / 3) * _ZETA3)
C2_STATED = math.pi**2 / (18 * 32 ** (1 / 3) * _ZETA3)


def _gl2_reps(D: int) -> list[QuadraticForm]:
    return [f for f in enumerate_reduced(D) if f.b >= 0]


def _admissible_discs(Z: int) -> list[int]:
    out = []
    Dmax = 4 * Z // 3
    for D in range(3, Dmax + 1):
        if D % 4 == 3 and 3 * D <= Z:
            out.append(D)
        elif D % 4 == 0 and 3 * D <= 4 * Z:
            out.append(D)
    return out


def _count_unit(job: tuple[str, int, int]) -> tuple[int, int, int, int, list[str], int]:
    """All families of one discriminant D ("N") or modulus n ("M"), as
    (disc, points, orbits, irreducible points, cover findings, max_coeff);
    picklable for process pools."""
    kind, u, Z = job
    if kind == "N":
        disc, fams = u, _gl2_reps(u)
    else:
        disc, fams = u * u, [QuadraticForm(a, u, 0) for a in merged_square_labels(u)]
    pts = orbs = irr = mc = 0
    findings = []
    for f in fams:
        fc = count_family(f, Z)
        pts += fc.points
        orbs += fc.irreducible_orbits
        irr += fc.irreducible_points
        mc = max(mc, fc.max_coeff)
        if fc.n_f is not None and fc.irreducible_points != fc.n_f * fc.irreducible_orbits:
            findings.append(
                f"f={f}: {fc.irreducible_points} irreducible points over "
                f"{fc.irreducible_orbits} orbits, n_f={fc.n_f}"
            )
    return (disc, pts, orbs, irr, findings, mc)


def _count(kind: str, X: int, policy: HeightPolicy, workers: int) -> CountReport:
    Z = policy.ibound(X)
    if kind == "N":
        units = _admissible_discs(Z)
        stated = C1_STATED
    else:
        units = range(1, math.isqrt(4 * Z // 3) + 2)
        stated = C2_STATED
    jobs = [(kind, u, Z) for u in units]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_count_unit, jobs, chunksize=16))
    else:
        results = [_count_unit(job) for job in jobs]
    rep = CountReport(X, policy.mode, Z, 0, 0, 0)
    for (disc, pts, orbs, irr, findings, mc) in results:
        if pts:
            rep.per_D[disc] = (pts, orbs)
        rep.raw_points += pts
        rep.irreducible_orbits += orbs
        rep.irreducible_points += irr
        rep.cover_findings.extend(findings)
        rep.max_coeff = max(rep.max_coeff, mc)
    rep.stated_constant = stated
    denom = X ** (1 / 3) * math.log(X) if X > 1 else 1.0
    rep.ratio = rep.irreducible_orbits / (stated * denom)
    assert rep.check_sums()
    return rep


def count_N(
    X: int, policy: HeightPolicy = DISC_POLICY, workers: int = 1
) -> CountReport:
    """Exact number of irreducible orbit classes with positive definite
    Hessian divisor and height at most X under the policy."""
    return _count("N", X, policy, workers)


def count_M(
    X: int, policy: HeightPolicy = DISC_POLICY, workers: int = 1
) -> CountReport:
    """Exact number of irreducible orbit classes with reducible Hessian
    divisor and |I|-height at most the policy bound."""
    return _count("M", X, policy, workers)

# ---------------------------------------------------------------------------
# The hyperbola-count decomposition for one reducible family
# ---------------------------------------------------------------------------


@dataclass
class RedNfReport:
    alpha: int
    beta: int
    X: int
    Y_floor: int
    raw_pairs: int
    decomposed: int
    identity_holds: bool
    stated_congruence_pairs: int
    family_points: int
    lemma_main_term: float
    ratio: float


def _pair_count_raw(Y_num: int, Y_den: int, c: int, beta: int) -> int:
    """#{(m, n): m, n >= 1, m n <= Y, n = c m (mod beta)} by enumeration."""
    count = 0
    m = 1
    while m * m * Y_den <= Y_num or m * Y_den <= Y_num:
        if m * Y_den > Y_num:
            break
        r = (c * m) % beta
        if r == 0:
            r = beta
        n = r
        while m * n * Y_den <= Y_num:
            count += 1
            n += beta
        m += 1
    return count


def _pair_count_decomposed(Y_num: int, Y_den: int, c: int, beta: int) -> int:
    """S1 + S2 - S3 for the pair set {m n <= Y, n = c m (mod beta)}.

    S2 runs over the small-n side, so its inner count solves c m = n
    (mod beta) for m.  (Displayed versions that instead impose
    m = c n (mod beta) are only equivalent when c^2 = 1 mod beta.)
    """
    sqY = math.isqrt(Y_num // Y_den)

    def cong_count(limit: int, r: int) -> int:
        r %= beta
        if r == 0:
            r = beta
        return 0 if r > limit else (limit - r) // beta + 1

    def solve_count(limit: int, n: int) -> int:
        # #{1 <= m <= limit : c m = n (mod beta)}
        g = math.gcd(c, beta)
        if n % g:
            return 0
        b2 = beta // g
        if b2 == 1:
            return limit
        m0 = (n // g) * pow(c // g, -1, b2) % b2
        if m0 == 0:
            m0 = b2
        return 0 if m0 > limit else (limit - m0) // b2 + 1

    S1 = S2 = S3 = 0
    for m in range(1, sqY + 1):
        nmax = Y_num // (m * Y_den)
        S1 += cong_count(nmax, c * m)
        S3 += cong_count(sqY, c * m)
    for n in range(1, sqY + 1):
        mmax = Y_num // (n * Y_den)
        S2 += solve_count(mmax, n)
    return S1 + S2 - S3


_EULER_GAMMA = 0.5772156649015328606


def red_Nf_compare(alpha: int, beta: int, X: int) -> RedNfReport:
    """Exact hyperbola counts for the family of alpha x^2 + beta xy.

    Checks the S1 + S2 - S3 double-counting identity exactly and compares
    the true family point count against the closed-form main term.
    """
    if math.gcd(alpha, beta) != 1 or beta < 1:
        raise ValueError("need gcd(alpha, beta) = 1 and beta >= 1")
    Z = icbrt(X)
    # Y = Z / (12 beta^2) as an exact rational
    Y_num, Y_den = Z, 12 * beta * beta
    c_quoted = (4 * pow(alpha, 7, beta)) % beta if beta > 1 else 0
    raw = _pair_count_raw(Y_num, Y_den, c_quoted, beta) if beta >= 1 else 0
    dec = _pair_count_decomposed(Y_num, Y_den, c_quoted, beta)
    # true family points with |I| <= Z (both sign quadrants)
    fam = len(square_family_points(alpha, beta, Z)) if beta > 0 else 0
    Y = Z / (12 * beta * beta)
    main = 0.0
    if Y > 1:
        main = (
            Z / (3 * beta**3) * math.log(Z / (3 * beta * beta))
            + (2 * _EULER_GAMMA - 1) * Z / (3 * beta**3)
        )
    return RedNfReport(
        alpha,
        beta,
        X,
        Y_num // Y_den,
        raw,
        dec,
        raw == dec,
        raw,
        fam,
        main,
        fam / main if main > 0 else float("nan"),
    )


# ---------------------------------------------------------------------------
# Primitive uniqueness audit (large D ellipses)
# ---------------------------------------------------------------------------


@dataclass
class UniquenessReport:
    X: int
    checked_forms: int
    violations: list[str]

    @property
    def passed(self) -> bool:
        return not self.violations


def primitive_uniqueness_check(X: int) -> UniquenessReport:
    """For D > X^(2/9): at most one primitive family point up to sign in the
    ellipse I <= X^(1/3)."""
    Z = icbrt(X)
    Dmin = int(X ** (2 / 9))
    rep = UniquenessReport(X, 0, [])
    Dmax = 4 * Z // 3
    for D in range(Dmin + 1, Dmax + 1):
        if D % 4 not in (0, 3):
            continue
        for f in enumerate_reduced(D):
            rep.checked_forms += 1
            prim = []
            for (A, B) in ellipse_points(f, Z):
                F = QuarticForm(*family_coefficients(f, A, B))
                if F.content() == 1:
                    prim.append((A, B))
            if len(prim) > 2 or (
                len(prim) == 2 and prim[0] != (-prim[1][0], -prim[1][1])
            ):
                rep.violations.append(f"f={f}, D={D}: primitive points {prim}")
    return rep


# ---------------------------------------------------------------------------
# Per-class main-term audit
# ---------------------------------------------------------------------------


@dataclass
class PerClassAudit:
    f: QuadraticForm
    D: int
    beta_parity: str
    rows: list[tuple[int, int, float, float]]  # X, exact, quoted main term, area/det
    supports: str


def per_class_error_audit(
    forms: list[QuadraticForm], ladder: list[int]
) -> list[PerClassAudit]:
    """Exact N_f against the two candidate main terms.

    quoted:   pi Z / (3 D^(3/2))   (b odd)    4 pi Z / (3 D^(3/2))  (b even)
    area/det: pi Z / (6 D^(3/2))   (b odd)    2 pi Z / (3 D^(3/2))  (b even)

    where Z = X^(1/3); the area/det value is the ellipse area
    2 pi a^3 Z / (3 D^(3/2)) divided by the lattice determinant.
    """
    out = []
    for f in forms:
        D = -f.disc()
        rows = []
        votes_quoted = votes_area = 0.0
        for X in ladder:
            Z = icbrt(X)
            exact = sum(1 for _ in ellipse_points(f, Z))
            quoted = math.pi * Z / (3 * D**1.5) * (1 if f.b % 2 else 4)
            area = quoted / 2
            rows.append((X, exact, quoted, area))
            if exact:
                votes_quoted += abs(exact - quoted)
                votes_area += abs(exact - area)
        supports = "area/det" if votes_area <= votes_quoted else "quoted"
        out.append(
            PerClassAudit(f, D, "odd" if f.b % 2 else "even", rows, supports)
        )
    return out


# ---------------------------------------------------------------------------
# Ladder reports, fitting, serialization
# ---------------------------------------------------------------------------


@dataclass
class LadderReport:
    kind: str  # "N" or "M"
    policy: str
    reports: list[CountReport]
    fit_a: float
    fit_b: float
    stated_constant: float

    def rows(self):
        for r in self.reports:
            yield (r.X, r.ibound, r.raw_points, r.irreducible_orbits, r.ratio)


def fit_ladder(reports: list[CountReport]) -> tuple[float, float]:
    """Least squares for count = a X^(1/3) log X + b X^(1/3)."""
    import numpy as np

    A = np.array(
        [
            [r.X ** (1 / 3) * math.log(r.X), r.X ** (1 / 3)]
            for r in reports
        ]
    )
    y = np.array([r.irreducible_orbits for r in reports], dtype=float)
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(sol[0]), float(sol[1])


def ladder_report(
    kind: str, ladder: list[int], policy: HeightPolicy = DISC_POLICY, workers: int = 1
) -> LadderReport:
    counter = count_N if kind == "N" else count_M
    reports = [counter(X, policy, workers) for X in ladder]
    a, b = fit_ladder(reports) if len(reports) >= 2 else (0.0, 0.0)
    return LadderReport(
        kind,
        policy.mode,
        reports,
        a,
        b,
        C1_STATED if kind == "N" else C2_STATED,
    )


def write_count_csv(path: str, reports: list[CountReport]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        w.writerow(["X", "D", "points", "orbits"])
        for r in reports:
            for D in sorted(r.per_D):
                pts, orbs = r.per_D[D]
                w.writerow([r.X, D, pts, orbs])


def ladder_summary_json(rep: LadderReport) -> dict:
    return {
        "kind": rep.kind,
        "policy": rep.policy,
        "fitted_a": rep.fit_a,
        "fitted_b": rep.fit_b,
        "stated_constant": rep.stated_constant,
        "points": [
            {
                "X": r.X,
                "ibound": r.ibound,
                "raw_points": r.raw_points,
                "irreducible_orbits": r.irreducible_orbits,
                "ratio_to_stated": r.ratio,
                "cover_findings": len(r.cover_findings),
            }
            for r in rep.reports
        ],
    }
