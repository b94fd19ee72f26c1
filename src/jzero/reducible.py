"""Classification of reducible members of a J = 0 family.

A reducible member of the family of a positive definite f always factors
into two integral quadratics (linear factors pair up under the involution
x -> (b x + 2c y, -2a x - b y) that fixes the family).  The factorization
is Type 1 when the two quadratics are swapped by that involution and
Type 2 when each is fixed by it, i.e. both lie in the lattice

    Lambda(f) = {g : g(bx + 2cy, -2ax - by) proportional to g}
              = {(g2, g1): b g1 = 2c g2 (mod 2a)},  g0 = (b g1 - 2c g2) / 2a.

Type 1 members have square discriminant; their I-values sit on the curve
3 s(D) nu(f)(x, y) = z^2 where s(D) is the product of primes dividing
D to an odd power and t(D) = sqrt(D / s(D)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .counting import DISC_POLICY
from .families import member_of, mf_unscaled
from .forms import (
    LinearFactor,
    QuadraticForm,
    QuarticForm,
    invariants,
    prime_factorization,
    quadratic_product,
    quartic_factorization,
    substitute,
    value_type,
)
from .hensel import canonical_fp, nu_of
from .lattices import SubLattice


class ReducibleKind(Enum):
    IRREDUCIBLE = "irreducible"
    TYPE1 = "type1"
    TYPE2 = "type2"
    LINEAR_PAIR = "linear-pair"  # fallback when the involution pairing fails


@dataclass
class ReducibleWitness:
    kind: ReducibleKind
    g: Optional[QuadraticForm]
    h: Optional[QuadraticForm]
    scale: int
    from_linears: bool = False

    def product_equals(self, F: QuarticForm) -> bool:
        if self.g is None or self.h is None:
            return False
        prod = quadratic_product(self.g.coeffs(), self.h.coeffs())
        return tuple(self.scale * x for x in prod) == F.coeffs()


def _linear_product(l1: LinearFactor, l2: LinearFactor) -> QuadraticForm:
    """(s1 x - r1 y)(s2 x - r2 y), i.e. xy at (s1 x - r1 y, s2 x - r2 y)."""
    return QuadraticForm(*substitute((0, 1, 0), (l1.s, -l1.r, l2.s, -l2.r)))


# ---------------------------------------------------------------------------
# The lattice Lambda(f) of involution-stable quadratics
# ---------------------------------------------------------------------------


def lambda_f(f: QuadraticForm) -> SubLattice:
    """Lambda(f) as a lattice in the (g2, g1) plane."""
    a, b, c = f.coeffs()
    if a == 0 or f.disc() == 0:
        raise ValueError("need a != 0 and disc != 0")
    return SubLattice.from_congruences([(-2 * c, b, 2 * a)])


def lambda_form(f: QuadraticForm, g2: int, g1: int) -> QuadraticForm:
    """The member of Lambda(f) with leading coefficients (g2, g1)."""
    a, b, c = f.coeffs()
    num = b * g1 - 2 * c * g2
    if num % (2 * a):
        raise ValueError(f"({g2},{g1}) not in Lambda({f})")
    return QuadraticForm(g2, g1, num // (2 * a))


def in_lambda(f: QuadraticForm, g: QuadraticForm) -> bool:
    """Exact involution-stability test: 2a g0 = b g1 - 2c g2."""
    a, b, c = f.coeffs()
    return 2 * a * g.c == b * g.b - 2 * c * g.a


def apply_mf(f: QuadraticForm, g: QuadraticForm) -> QuadraticForm:
    """g(bx + 2cy, -2ax - by), the unscaled involution image."""
    (m11, m12), (m21, m22) = mf_unscaled(f)
    return QuadraticForm(*substitute(g.coeffs(), (m11, m12, m21, m22)))


def _proportional(g: QuadraticForm, h: QuadraticForm) -> bool:
    return (
        g.a * h.b == g.b * h.a
        and g.a * h.c == g.c * h.a
        and g.b * h.c == g.c * h.b
        and not g.is_zero()
        and not h.is_zero()
    )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify(F: QuarticForm, f: QuadraticForm) -> ReducibleWitness:
    """Irreducible / Type 1 / Type 2 for a member F of the family of f."""
    if member_of(f, F) is None:
        raise ValueError(f"{F} is not a member of the family of {f}")
    fac = quartic_factorization(F)
    if fac.is_irreducible():
        return ReducibleWitness(ReducibleKind.IRREDUCIBLE, None, None, 1)
    lins = list(fac.linears)
    quads = list(fac.quadratics)
    from_linears = bool(lins)
    if len(lins) == 4:
        pairs = _pair_linears_by_involution(f, lins)
        if pairs is None:
            g = _linear_product(lins[0], lins[1])
            h = _linear_product(lins[2], lins[3])
            return ReducibleWitness(
                ReducibleKind.LINEAR_PAIR, g, h, fac.content, True
            )
        g, h = pairs
    elif len(lins) == 2 and len(quads) == 1:
        g = _linear_product(lins[0], lins[1])
        h = quads[0]
    elif len(quads) == 2:
        g, h = quads
    else:
        raise AssertionError(f"unexpected factor pattern for J = 0: {fac}")
    witness = ReducibleWitness(None, g, h, fac.content, from_linears)  # type: ignore[arg-type]
    # Type 1 first: the involution swaps the two factors
    if _proportional(apply_mf(f, g), h):
        witness.kind = ReducibleKind.TYPE1
        t = invariants(F)
        z = math.isqrt(abs(t.disc))
        assert z * z == abs(t.disc), (
            f"Type 1 member without square discriminant: {F}"
        )
        return witness
    if in_lambda(f, g) and in_lambda(f, h) and not _proportional(g, h):
        witness.kind = ReducibleKind.TYPE2
        return witness
    raise AssertionError(
        f"reducible member {F} of family {f} is neither Type 1 nor Type 2: "
        f"g={g}, h={h}"
    )


def _pair_linears_by_involution(f, lins):
    """Pair four linear factors so each pair is swapped-or-fixed by the
    involution; lexicographically smallest valid pairing."""
    dirs = [(l.s, -l.r) for l in lins]  # coefficient vectors of the factors

    def image_dir(d):
        # the involution acts on linear forms by right multiplication
        (m11, m12), (m21, m22) = mf_unscaled(f)
        return (d[0] * m11 + d[1] * m21, d[0] * m12 + d[1] * m22)

    def prop(d, e):
        return d[0] * e[1] - d[1] * e[0] == 0

    remaining = list(range(4))
    pairs = []
    while remaining:
        i = remaining[0]
        img = image_dir(dirs[i])
        partner = next(
            (j for j in remaining if j != i and prop(img, dirs[j])), None
        )
        if partner is None:
            if prop(img, dirs[i]):
                # factor fixed by the involution: pair with the smallest other
                partner = remaining[1]
            else:
                return None
        remaining.remove(i)
        remaining.remove(partner)
        pairs.append((i, partner))
    g = _linear_product(lins[pairs[0][0]], lins[pairs[0][1]])
    h = _linear_product(lins[pairs[1][0]], lins[pairs[1][1]])
    return g, h


# ---------------------------------------------------------------------------
# The square-discriminant curve
# ---------------------------------------------------------------------------


def square_part_split(D: int) -> tuple[int, int]:
    """(s, t) with D = s * t^2, s squarefree (product of odd-exponent primes)."""
    s, t = 1, 1
    for p, e in prime_factorization(D):
        s *= p ** (e % 2)
        t *= p ** (e // 2)
    return s, t


@value_type
class CurvePoint:
    x: int
    y: int
    z: int
    z_divisible_by_t: bool


def square_disc_points(f: QuadraticForm, X: int) -> list[CurvePoint]:
    """Integral points of 3 s(D) nu(f)(x, y) = z^2, nu-value bounded so the
    matching family members have I <= (27 X / 4)^(1/3).

    The scaled invariant relates to nu-values by script-I = 4 nu (odd
    canonical middle coefficient) or nu / 4 (even), so curve points
    correspond to family members with square I-invariant, I = 4 t(D)^2 z^2
    in the odd case and t(D)^2 z^2 / 4 in the even case.
    """
    if not f.is_positive_definite() or not f.is_primitive():
        raise ValueError("need a primitive positive definite form")
    D = abs(f.disc())
    s, t = square_part_split(D)
    cfp = canonical_fp(f)
    nu = nu_of(f, cfp).rep
    m_odd = cfp.m % 2 == 1
    ibound = DISC_POLICY.ibound(X)
    script_max = ibound // (3 * D)
    nu_max = script_max // 4 if m_odd else 4 * script_max
    out = []
    a, b, c = nu.coeffs()
    if nu_max < 1:
        return out
    ymax = math.isqrt(4 * a * nu_max // (4 * a * c - b * b)) + 1
    for y in range(-ymax, ymax + 1):
        for x in range(-_xmax(nu, nu_max) - 1, _xmax(nu, nu_max) + 2):
            val = nu.value(x, y)
            if not (0 < val <= nu_max):
                continue
            zz = 3 * s * val
            z = math.isqrt(zz)
            if z * z == zz:
                out.append(CurvePoint(x, y, z, z % t == 0))
    return out


def _xmax(nu: QuadraticForm, bound: int) -> int:
    return math.isqrt(4 * nu.c * bound // (4 * nu.a * nu.c - nu.b * nu.b)) + 1
