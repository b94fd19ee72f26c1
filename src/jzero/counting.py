"""Exact orbit counting for J = 0 quartics, by family enumeration.

N(X): orbits with positive definite Hessian divisor, counted by
discriminant (disc(F) <= X, i.e. I(F) <= Z = (27X/4)^(1/3) since J = 0).
For each GL2 class of primitive positive definite forms f = (a, b, c)
(reduced with b >= 0, D = -disc f) the family members are the points of
the lattice L = L_{f,a} with basis (d1, k), (0, d2), and

    I(F) = 3 D q(A, B) / (4 a^3),      q = a B^2 - 4b AB + 16c A^2

(`families.family_invariant`).  In lattice coordinates, (A, B) =
s (d1, k) + t (0, d2), q is the integral form Q(s, t), and Q = lam g with
g integral and positive definite:

    b odd:   lam = 16 a^3,  disc g = -D,    I = 12 D g(s, t);
    b even:  lam = a^3,     disc g = -16 D, I = (3D/4) g(s, t).

Proof that g is integral.  g(s, t) = I(F)/(12D) (b odd) or 4 I(F)/(3D)
(b even), so it suffices that these values are p-integral for each prime
p.  For T in GL2(Z), F -> F o T maps the integral quartics whose Hessian
is divisible by f^2 (the family of f) onto those of f o T, and keeps I;
b mod 2 = D mod 2 is kept too.  So the set of values depends only on the
class of f, and since f is primitive one of f(1,0), f(0,1), f(1,1) is
prime to p: we may assume p does not divide a.  Then q/a^3 is p-integral,
which settles b even, and b odd for p odd.  For p = 2, a odd, b odd: the
congruence 2a | 3(4cA - bB) gives 2 | B, and 4a^3 | 4c(b^2 - ac)A -
b(b^2 - 2ac)B with b(b^2 - 2ac) odd gives 4 | B, so 16 | q.  Finally
disc Q = -16 D (d1 d2)^2 with d1 d2 = 4a^3 (b odd) or a^3 (b even)
gives disc g.

Hence the enumeration: Gauss-reduce g to (ga, gb, gc) with its
transform; g <= Z // (12D) (b odd) or 4Z // (3D) (b even) is empty when
ga exceeds that bound, since ga is the least value of the reduced form at
a nonzero point; otherwise the points are enumerated row by row in reduced
coordinates with exact isqrt endpoints and mapped back through
transform and basis.  Orbits are counted by canonicalizing each point
under the finite induced symmetry group of f - never by dividing through
a constant cover multiplicity, which fails on symmetric points and (for
reducible divisors) misses the label collapsing.  Families where the two
disagree are reported as cover findings.

Why ga decides emptiness.  A reduced g has |gb| <= ga <= gc.  At a
nonzero (x, y) with |x| >= |y| >= 1, |gb xy| <= ga x^2 leaves
g >= gc y^2 >= ga; with |y| >= |x| >= 1, |gb xy| <= gc y^2 leaves
g >= ga x^2 >= ga; on the axes g = ga x^2 or gc y^2.  And g(1, 0) = ga.
So a family holds a point with I <= Z exactly when ga <= bound.  The
count computes each family's setup once, on plain integers
(`ellipse_frame`: the HNF triple, the bound as numerator and denominator,
and the reduced g with its transform), and skips the family before it
builds any object when ga exceeds the bound: 33456 of the 45450 families
at X = 10^11.  The others hand the same frame to `ellipse_points`.

The iteration range over D follows from the same identity: an integral
positive definite g is at least 1 at every nonzero point, so
I >= 12D for odd b (i.e. D = 3 mod 4) and I >= 3D/4 for even b
(D = 0 mod 4).  An odd D can hold a point only when 12D <= Z, an even D
only when 3D <= 4Z.  Neither bound can be raised: over every family point
with D < 300 the least I/D is 12 for odd D and 3/4 for even D.

M(X): same counts for reducible Hessian divisors (square discriminant
n^2).  Families are indexed by unit labels a mod n merged under both
a -> a^(-1) (GL2) and a -> -a^(-1) (the divisor is only defined up to
sign), with the point sets cut by |I| <= Z.

Both counts run one kernel, `count_family`, over the families of each
discriminant (N) or modulus (M), through one aggregator.  The kernel
decides irreducibility without factoring wherever it can: A = 0 and a
`square_split` make a point reducible, and a nonzero non-square disc(F)
makes it irreducible (the cover statement, proved at `decide_member`);
only the rest, mostly points with a square disc(F), are factored.

Both point sets are centrally symmetric, and the member at (-A, -B) is -F,
which has the same Hessian, I and factorization as F.  So the work runs on
pairs {P, -P} from the enumerators to the tallies: each enumerator yields
one point of each pair, and the kernel decides that point, counts the pair
twice and keys its orbits under the fiber action and negation together
(proofs at `ellipse_points`, `square_family_points` and `count_family`).
A caller that needs every point takes `with_negations` of the pairs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from .classes import (
    _ZETA3,
    class_of,
    cover_multiplicity,
    enumerate_reduced,
    gauss_reduce,
    square_label_inverse,
    square_label_negation,
)
from .families import (
    FiberAction,
    family_coefficients,
    fiber_action,
    lattice_Lfa,
    lattice_triple,
    square_split,
)
from .forms import QuadraticForm, QuarticForm, _exact_sqrt, is_irreducible_Q, value_type


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


@value_type
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


# The frame of an N family: its setup on plain integers, which depends on
# f alone, not on the bound.  ((d1, k, d2), num, den, (ga, gb, gc),
# (t1, t2, t3, t4)): the HNF triple of L_{f,a}; the bound g <= num * Z // den
# for I <= Z, with (num, den) = (1, 12D) for odd b and (4, 3D) for even b;
# the Gauss-reduced g; and the entries of the unimodular map from reduced
# to lattice coordinates (module docstring).  A plain tuple, since a count
# builds one per family and drops most of them at once.
Frame = tuple[tuple[int, int, int], int, int, tuple[int, int, int], tuple[int, int, int, int]]


def ellipse_frame(f: QuadraticForm) -> Frame:
    """The frame of the family of the positive definite family form f."""
    a, b, c = f.a, f.b, f.c
    D = 4 * a * c - b * b
    assert D > 0 and a > 0
    triple = d1, k, d2 = lattice_triple(a, b, c)
    if b % 2:
        lam, num, den = 16 * a * a * a, 1, 12 * D
    else:
        lam, num, den = a * a * a, 4, 3 * D
    # the Gram form of q = 16c A^2 - 4b AB + a B^2 on the basis
    # (d1, k), (0, d2), over lam
    gram, transform = gauss_reduce(
        (16 * c * d1 * d1 - 4 * b * d1 * k + a * k * k) // lam,
        2 * d2 * (a * k - 2 * b * d1) // lam,
        a * d2 * d2 // lam,
    )
    return triple, num, den, gram, transform


def frame_empty(frame: Frame, ibound: int) -> bool:
    """Whether the family has no point with I <= ibound: ga, the least
    value of g at a nonzero point, exceeds the bound."""
    return frame[3][0] > frame[1] * ibound // frame[2]


def ellipse_points(frame: Frame, ibound: int) -> Iterator[tuple[int, int]]:
    """One point of each pair {P, -P} of nonzero lattice points of the
    family of `frame` with I(family member) <= ibound, exactly.

    The condition is 3 D q(A, B) <= 4 a^3 ibound with
    q = a B^2 - 4b AB + 16c A^2 positive definite; it is enumerated as
    g <= bound in Gauss-reduced coordinates (see the module docstring).

    The points yielded are those of the half-plane y > 0, and x >= 1 on the
    row y = 0, of the reduced coordinates (x, y).  That half holds exactly
    one of v, -v for each v != 0.  g(-v) = g(v), so the region is centrally
    symmetric, and the map from (x, y) to (A, B) is a linear bijection onto
    the lattice, so it carries the pairs {v, -v} onto the pairs {P, -P}.
    """
    if frame_empty(frame, ibound):
        return
    (d1, k, d2), num, den, (ga, gb, gc), (t1, t2, t3, t4) = frame
    bound = num * ibound // den
    # rows y of the reduced form: (2 ga x + gb y)^2 <= 4 ga bound - delta y^2
    delta = 4 * ga * gc - gb * gb
    r = 4 * ga * bound
    ymax = math.isqrt(r // delta)
    for y in range(ymax + 1):
        w = math.isqrt(r - delta * y * y)
        for x in range(-((w + gb * y) // (2 * ga)) if y else 1, (w - gb * y) // (2 * ga) + 1):
            s, t = t1 * x + t2 * y, t3 * x + t4 * y
            yield (d1 * s, k * s + d2 * t)


def with_negations(points: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Every point of a family in ascending order, from one point of each
    pair {P, -P} (what the enumerators yield): the points and their
    negations, sorted."""
    pts = list(points)
    pts += [(-A, -B) for (A, B) in pts]
    pts.sort()
    return pts


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
    """One point of each pair {P, -P} of nonzero lattice points of the
    family of a x^2 + n xy with 0 < |I| <= ibound: the points with B > 0,
    by B = d Bpp ascending and A ascending within each B.

    With the B-modulus d from the lattice, |I| = 3 n^2 |B (aB - 4nA)| / (4|a|^3)
    and both integer factors are nonzero, so |B| is bounded and A runs over
    an interval for each B.  The bound takes |a|: for a < 0 the family is
    that of -a, since (-a, n, 0)(-x, y) = -(a x^2 + n xy).

    B != 0 at every point and I(-P) = I(P), so each pair has
    exactly one member with B > 0.  With w = aB - 4nA and t0 = aB, every
    A in [lo, hi] has |w| <= lim, so 3 n^2 B |w| <= K holds on the whole
    run and only w = 0 is left out.
    """
    f = QuadraticForm(a, n, 0)
    L = lattice_Lfa(f)
    assert L.d1 == 1 and L.k == 0
    d = L.d2
    K = 4 * abs(a) ** 3 * ibound
    out = []
    Bpp = 1
    while 3 * n * n * d * Bpp <= K:
        B = d * Bpp
        lim = K // (3 * n * n * B)
        t0 = a * B
        lo = -((lim - t0) // (4 * n))
        hi = (t0 + lim) // (4 * n)
        out += [(A, B) for A in range(lo, hi + 1) if t0 != 4 * n * A]
        Bpp += 1
    return out


# ---------------------------------------------------------------------------
# The family kernel and the N(X) / M(X) aggregator
# ---------------------------------------------------------------------------


# How `count_family` decided its points, in the order it tries the tests.
BRANCHES = ("zero_a", "split", "nonsquare_disc", "factored")


def _branch_counts() -> dict[str, int]:
    return dict.fromkeys(BRANCHES, 0)


@dataclass
class FamilyCount:
    points: int = 0
    irreducible_points: int = 0
    irreducible_orbits: int = 0
    max_coeff: int = 0  # over orbits: the least max |coefficient| of a member
    n_f: Optional[int] = None  # cover multiplicity, when there are irreducible points
    decided: dict[str, int] = field(default_factory=dict)  # points by branch, if any


def family_points(f: QuadraticForm, Z: int) -> Iterable[tuple[int, int]]:
    """One point (A, B) of each pair {P, -P} of family points with |I| <= Z
    of a positive definite f (`ellipse_points`) or of a x^2 + n xy, disc n^2
    (`square_family_points`); ValueError for any other divisor."""
    if f.disc() < 0 and f.a > 0:
        return ellipse_points(ellipse_frame(f), Z)
    if f.c == 0 and f.b > 0:
        return square_family_points(f.a, f.b, Z)
    raise ValueError(f"no family point set for the divisor {f}")


def _nonsquare_disc(coeffs: tuple[int, int, int, int, int]) -> bool:
    """Whether disc(F) = 4 I^3 / 27 of the J = 0 quartic with coefficients
    `coeffs` is nonzero and not a square.  It is a nonzero square exactly
    when 3I is: if 3I = r^2 then 3 | r and disc(F) = (2 (r/3)^3)^2; if
    disc(F) = m^2 != 0 then (3I)^3 = (27m/2)^2, so 3I is a rational square
    and, being an integer, a perfect square (positive, as I != 0)."""
    a4, a3, a2, a1, a0 = coeffs
    I = 12 * a4 * a0 - 3 * a3 * a1 + a2 * a2
    return I != 0 and _exact_sqrt(3 * I) is None


def decide_member(f: QuadraticForm, A: int, B: int, coeffs: tuple[int, ...]) -> tuple[str, bool]:
    """(branch, irreducible) for the member F at (A, B), A != 0, of the
    family of f, given by its coefficients, where f is positive definite
    or a x^2 + n xy:

    * "split": `square_split` factors F (tried when a q(A, B) is a square);
    * "nonsquare_disc": a0 != 0 and disc(F) is nonzero and not a square,
      so F is irreducible (the cover statement below);
    * "factored": the rest (square or zero disc(F), or a0 = 0), decided by
      `is_irreducible_Q`.

    The cover statement: if A != 0, disc(F) != 0, `square_split` finds no
    split and disc(F) is not a square, then F is irreducible over Q.

    The resolvent.  For binary quadratics G = (g2, g1, g0), H = (h2, h1, h0)
    let psi(G, H) = 2 g2 h0 - g1 h1 + 2 g0 h2 (`families.joint_disc`).  The
    polynomial identity psi^3 - 3 I(GH) psi + J(GH) = 0 holds (the cubic
    resolvent of Kappe and Warren, Amer. Math. Monthly 96 (1989), in the
    normalization of I and J; `tests/test_families.py` checks it
    symbolically).  With J = 0 it reads psi (psi^2 - 3I) = 0: the roots are
    0 and +-sqrt(3I), three distinct numbers since I != 0.

    A linear factor forces a second one.  Say F has the rational linear
    factor x - r1 y (A = F(1, 0) != 0, so no factor is y).  Over a
    splitting field F = A (x - r1 y)(x - r2 y)(x - r3 y)(x - r4 y) with
    distinct roots, since disc(F) != 0.  The pairing {1j | kl} gives
    psi_j = psi(A (x - r1 y)(x - rj y), (x - rk y)(x - rl y)), a root of the
    resolvent, and psi_2 - psi_3 = 3A (r1 - r4)(r2 - r3) and its analogues
    do not vanish, so psi_2, psi_3, psi_4 are the three roots, one of them 0.
    A Galois automorphism fixes r1 and maps psi_j to psi_sigma(j); it fixes
    the root 0, hence the pairing that has it.  So the Galois group does not
    act transitively on r2, r3, r4: the cubic cofactor is reducible over Q
    and has a rational linear factor too.  Hence every reducible F with
    A != 0 and disc(F) != 0 is a product G H of two rational quadratics
    (the two linear factors make one of them).

    The two cases.  psi = psi(G, H) is rational and a root of the
    resolvent.  If psi != 0, then 3I = psi^2 and disc(F) = (2 psi^3 / 27)^2
    is a nonzero square.  If psi = 0, then `square_split` returns a split:
    the proof is in its docstring, and it holds for both kinds of divisor
    (it uses only a != 0 and q(A, B) != 0, which I != 0 gives).  So a
    reducible F is split or has a square disc(F); contrapositively, the
    points of the "nonsquare_disc" branch are irreducible.  For a0 = 0 the
    statement still holds, but such points are sent to `is_irreducible_Q`,
    which settles them at once.
    """
    a, b, c = f.coeffs()
    F = None
    s = _exact_sqrt(a * (a * B * B - 4 * b * A * B + 16 * c * A * A))
    if s is not None:
        F = QuarticForm(*coeffs)
        if square_split(f, A, B, F, s) is not None:
            return "split", False
    if coeffs[4] and _nonsquare_disc(coeffs):
        return "nonsquare_disc", True
    return "factored", is_irreducible_Q(F or QuarticForm(*coeffs))


def count_family(
    f: QuadraticForm,
    points: Iterable[tuple[int, int]],
    visit: Optional[Callable[[int, int, tuple[int, ...], bool], None]] = None,
) -> FamilyCount:
    """Exact point, irreducible-point and orbit tallies of the family points
    of f with |I| <= Z for some Z, from `points`, one point of each pair
    {P, -P} of them (`family_points`), with the points counted by the branch
    that decided them (`decided`).  Each pair adds 2 to every tally it
    enters.  A pair with a4 = A = 0 is reducible and skipped before its
    coefficients are built (the enumerators yield lattice points by
    construction); every other pair's point goes to `decide_member`, so
    only points with a square (or zero) disc(F) or a0 = 0 reach
    `is_irreducible_Q`.  If given, visit(A, B, coefficients, irreducible)
    is called on every point of `points`, in order; only then are the
    coefficients of A = 0 points built.

    Why one point decides its pair.  `family_coefficients` is linear in
    (A, B) over a fixed denominator, so the member at -P is -F and -P passes
    the lattice check with P.  In `decide_member`, q(-A, -B) = q(A, B) gives
    the same root s; with it `square_split` at -P returns (-H, -G) for the
    (G, H) of P, and (-H)(-G) = G H = 16 a^4 A F = 16 a^4 (-A)(-F), so the
    product check passes at both points or at neither; a0 = 0 holds at both
    or neither; I and disc are of even degree in the coefficients, so
    `_nonsquare_disc` agrees; and -F factors over Q exactly when F does, so
    `is_irreducible_Q` agrees.  (`oracle.orbit_count_bruteforce` decides
    one form of each pair {F, -F} of its box likewise.)

    Orbits.  The fiber action maps irreducible points with |I| <= Z to
    irreducible points with the same I, so every member of a counted orbit
    is a point of the family here.  An irreducible pair is keyed by
    min(c1, c2), with c1 = canonical(A, B) and c2 = canonical(-A, -B); the
    key weighs 1 if c1 == c2 and 2 otherwise, and the orbits are the sum of
    the weights of the distinct keys.  Why that is exact.  G, the group of
    fiber maps, is linear, so negation sends the G-orbit O of P to -O, the
    orbit of -P, and the pair {P, -P} meets exactly O and -O.  min(c1, c2)
    is the least point of O u -O, so every pair of O u -O gives the same
    key, and pairs of other orbits give other keys.  O u -O holds one orbit
    if O = -O and two otherwise, and O = -O exactly when the least points
    c1 of O and c2 of -O agree (distinct orbits are disjoint).  The key's
    height is the least max |coefficient| over its pairs: h(-Q) = h(Q), so
    O and -O have the same least height and the largest key height is the
    largest orbit height, `max_coeff`."""
    out = FamilyCount()
    action: Optional[FiberAction] = None
    height: dict[tuple[int, int], int] = {}  # key of O u -O -> least max |coefficient|
    for (A, B) in points:
        out.points += 2
        if A == 0:
            out.decided["zero_a"] = out.decided.get("zero_a", 0) + 2
            if visit is not None:
                visit(A, B, family_coefficients(f, A, B), False)
            continue
        coeffs = family_coefficients(f, A, B)
        branch, irreducible = decide_member(f, A, B, coeffs)
        out.decided[branch] = out.decided.get(branch, 0) + 2
        if visit is not None:
            visit(A, B, coeffs, irreducible)
        if not irreducible:
            continue
        out.irreducible_points += 2
        if action is None:
            action = fiber_action(f)
        c1, c2 = action.canonical(A, B), action.canonical(-A, -B)
        key = min(c1, c2)
        h = max(map(abs, coeffs))
        least = height.get(key)
        if least is None:
            height[key] = h
            out.irreducible_orbits += 1 if c1 == c2 else 2
        elif h < least:
            height[key] = h
    if height:
        out.max_coeff = max(height.values())
        out.n_f = cover_multiplicity(class_of(f))
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
    decided: dict[str, int] = field(default_factory=_branch_counts)  # points by branch

    def check_sums(self) -> bool:
        return (
            sum(o for (_, o) in self.per_D.values()) == self.irreducible_orbits
            and sum(p for (p, _) in self.per_D.values()) == self.raw_points
        )


C1_STATED = math.pi**2 / (27 * 32 ** (1 / 3) * _ZETA3)
C2_STATED = math.pi**2 / (18 * 32 ** (1 / 3) * _ZETA3)


def _gl2_reps(D: int) -> list[QuadraticForm]:
    return [f for f in enumerate_reduced(D) if f.b >= 0]


def _admissible_discs(Z: int) -> list[int]:
    """The D whose families can hold a point with I <= Z: odd D with
    12D <= Z and even D with 3D <= 4Z (module docstring)."""
    return [
        D
        for D in range(3, 4 * Z // 3 + 1)
        if (D % 4 == 3 and 12 * D <= Z) or (D % 4 == 0 and 3 * D <= 4 * Z)
    ]


def count_units(kind: str, Z: int) -> Iterable[int]:
    """The counting units of N ("N": discriminants D) or M ("M": moduli n)
    whose families can hold points with |I| <= Z."""
    if kind == "N":
        return _admissible_discs(Z)
    return range(1, math.isqrt(4 * Z // 3) + 2)


def unit_families(kind: str, u: int) -> tuple[int, list[QuadraticForm]]:
    """The discriminant and the family divisors of one counting unit."""
    if kind == "N":
        return u, _gl2_reps(u)
    return u * u, [QuadraticForm(a, u, 0) for a in merged_square_labels(u)]


def _count_unit(
    job: tuple[str, int, int]
) -> tuple[int, int, int, int, list[str], int, dict[str, int]]:
    """All families of one discriminant D ("N") or modulus n ("M"), as
    (disc, points, orbits, irreducible points, cover findings, max_coeff,
    points by branch); picklable for process pools."""
    kind, u, Z = job
    disc, fams = unit_families(kind, u)
    pts = orbs = irr = mc = 0
    findings = []
    decided = _branch_counts()
    for f in fams:
        if kind == "N":
            frame = ellipse_frame(f)
            if frame_empty(frame, Z):  # adds to no tally: skip before any object
                continue
            points = ellipse_points(frame, Z)
        else:
            points = square_family_points(f.a, f.b, Z)
        fc = count_family(f, points)
        pts += fc.points
        orbs += fc.irreducible_orbits
        irr += fc.irreducible_points
        mc = max(mc, fc.max_coeff)
        if fc.points:
            for branch, n in fc.decided.items():
                decided[branch] += n
        if fc.n_f is not None and fc.irreducible_points != fc.n_f * fc.irreducible_orbits:
            findings.append(
                f"f={f}: {fc.irreducible_points} irreducible points over "
                f"{fc.irreducible_orbits} orbits, n_f={fc.n_f}"
            )
    return (disc, pts, orbs, irr, findings, mc, decided)


# The most worker processes a count may start (the CLI's --threads ceiling).
MAX_WORKERS = 64


def check_workers(workers: int) -> None:
    """Raise ValueError unless 1 <= workers <= MAX_WORKERS."""
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"--threads must be from 1 to {MAX_WORKERS}, got {workers}")


def _count(kind: str, X: int, policy: HeightPolicy, workers: int) -> CountReport:
    check_workers(workers)
    Z = policy.ibound(X)
    jobs = [(kind, u, Z) for u in count_units(kind, Z)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_count_unit, jobs, chunksize=16))
    else:
        results = [_count_unit(job) for job in jobs]
    rep = CountReport(X, policy.mode, Z, 0, 0, 0)
    for (disc, pts, orbs, irr, findings, mc, decided) in results:
        if pts:
            rep.per_D[disc] = (pts, orbs)
        rep.raw_points += pts
        rep.irreducible_orbits += orbs
        rep.irreducible_points += irr
        rep.cover_findings.extend(findings)
        rep.max_coeff = max(rep.max_coeff, mc)
        for branch, n in decided.items():
            rep.decided[branch] += n
    rep.stated_constant = C1_STATED if kind == "N" else C2_STATED
    denom = X ** (1 / 3) * math.log(X) if X > 1 else 1.0
    rep.ratio = rep.irreducible_orbits / (rep.stated_constant * denom)
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
    # true family points with |I| <= Z (both sign quadrants): two per pair
    fam = 2 * len(square_family_points(alpha, beta, Z)) if beta > 0 else 0
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
            # -F has the content of F, so the pairs decide primitivity
            prim = [
                (A, B)
                for (A, B) in family_points(f, Z)
                if QuarticForm(*family_coefficients(f, A, B)).content() == 1
            ]
            if len(prim) > 1:
                rep.violations.append(f"f={f}, D={D}: primitive points {with_negations(prim)}")
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
        frame = ellipse_frame(f)
        for X in ladder:
            Z = icbrt(X)
            exact = 2 * sum(1 for _ in ellipse_points(frame, Z))  # two points per pair
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
    """Least squares for count = a X^(1/3) log X + b X^(1/3) over the
    reports with X > 1, the ones `ratio` is taken against the main term
    for; (0.0, 0.0) when fewer than two remain."""
    import numpy as np

    fit = [r for r in reports if r.X > 1]
    if len(fit) < 2:
        return 0.0, 0.0
    A = np.array([[r.X ** (1 / 3) * math.log(r.X), r.X ** (1 / 3)] for r in fit])
    y = np.array([r.irreducible_orbits for r in fit], dtype=float)
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(sol[0]), float(sol[1])


def ladder_report(
    kind: str, ladder: list[int], policy: HeightPolicy = DISC_POLICY, workers: int = 1
) -> LadderReport:
    counter = count_N if kind == "N" else count_M
    reports = [counter(X, policy, workers) for X in ladder]
    a, b = fit_ladder(reports)
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
                "cover_findings_text": r.cover_findings,
                "points_by_branch": r.decided,
            }
            for r in rep.reports
        ],
    }
