"""Split-prime congruence lattices and the auxiliary forms they transport.

For an odd prime p with (disc(f) | p) = 1 and p coprime to the content,
f factors over Z_p into two distinct linear forms, so the solutions of
f = 0 (mod p^k) away from (0,0) mod p live on exactly two index-p^k
lattices, the k-th lifts of the two residue branches.  Both branches have
unit derivative, so plain Newton root-lifting computes them.

Restricting f to such a lattice and dividing by p^k yields a primitive
form of the same discriminant whose class walks along powers of the class
of a prime form above p; `hensel_class_check` verifies that walk against
the class group.

The canonical translate used throughout puts f in the shape

    p x^2 + m xy + n y^2,   p = least odd prime represented by f, p ∤ disc,
                            n minimal positive, then m >= 0,

from which the auxiliary forms are built:

    w(f) = p x^2 - m xy + n y^2          (m odd;  disc unchanged)
           p x^2 - 4m xy + 16n y^2       (m even; disc scaled by 16)

    nu(f) = the primitive form carrying the values of w(f) on the third
            lift of its second branch, divided by p^3,

    xi(f) = the primitive form carrying eta(f) = a x^2 - 2b xy + 4c y^2
            on the lattice {b x = 2c y (mod 2a)}, divided by a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .classes import (
    FormClass,
    _ext_gcd,
    _prime_divisors,
    class_group,
    class_of,
    inverse,
    representations,
    represents,
)
from .forms import QuadraticForm, Unimodular, act_quadratic
from .lattices import SubLattice


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical (p, m, n) translate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalFp:
    """The translate p x^2 + m xy + n y^2 of f, with f_transform = form."""

    p: int
    m: int
    n: int
    transform: Unimodular

    def form(self) -> QuadraticForm:
        return QuadraticForm(self.p, self.m, self.n)


class SearchExhausted(RuntimeError):
    """Raised when a bounded representability search finds nothing."""

    def __init__(self, msg: str, bound: int):
        super().__init__(f"{msg} (search bound {bound})")
        self.bound = bound


PRIME_BOUND = 100000  # where the search for a represented prime gives up


def least_split_prime(f: QuadraticForm) -> int:
    """Least odd prime represented by f and coprime to disc(f)."""
    D = f.disc()
    p = 3
    while p <= PRIME_BOUND:
        if _is_prime(p) and D % p != 0 and represents(f, p):
            return p
        p += 2
    raise SearchExhausted(f"no represented odd prime for {f}", PRIME_BOUND)


def _prime_form(D: int, p: int) -> QuadraticForm:
    """p x^2 + m xy + n y^2 of discriminant D with the least m >= 0, that is
    the least m >= 0 with m^2 = D (mod 4p)."""
    m = next(m for m in range(0, 2 * p + 1) if (m * m - D) % (4 * p) == 0)
    return QuadraticForm(p, m, (m * m - D) // (4 * p))


def canonical_fp(f: QuadraticForm) -> CanonicalFp:
    """The canonical translate (p, m, n) of a primitive positive definite f.

    n is the least positive integer with p x^2 + m xy + n y^2 equivalent to
    f, then m is taken non-negative; concretely the least m >= 0 with
    m^2 = disc(f) (mod 4p).
    """
    if not f.is_primitive() or not f.is_positive_definite():
        raise ValueError("canonical_fp needs a primitive positive definite form")
    target = _prime_form(f.disc(), least_split_prime(f))
    p, m, n = target.coeffs()
    # build a transform: start from any representation f(x0, y0) = p
    x0, y0 = representations(f, p)[0]
    g = math.gcd(x0, y0)
    assert g == 1  # p prime and f positive definite force primitivity
    _, u, v = _ext_gcd(x0, y0)
    T = Unimodular(x0, -v, y0, u)
    g1 = act_quadratic(f, T)
    assert g1.a == p
    # now adjust middle coefficient to m via sign flip and shear
    if (g1.b - m) % (2 * p) != 0:
        flip = Unimodular(1, 0, 0, -1)
        T = T.mul(flip)
        g1 = act_quadratic(g1, flip)
    assert (g1.b - m) % (2 * p) == 0, (f, g1, m)
    k = (m - g1.b) // (2 * p)
    shear = Unimodular(1, k, 0, 1)
    T = T.mul(shear)
    g1 = act_quadratic(g1, shear)
    assert g1 == target, (f, g1, target)
    return CanonicalFp(p, m, n, T)


# ---------------------------------------------------------------------------
# Split lattices (Hensel lifts of the two residue branches)
# ---------------------------------------------------------------------------


def _lift_root(poly: tuple[int, int, int], t0: int, p: int, k: int) -> int:
    """Root of a t^2 + b t + c = 0 (mod p^k) lifting the simple root t0 mod p."""
    a, b, c = poly
    deriv = (2 * a * t0 + b) % p
    assert deriv % p != 0, "root is not simple"
    t = t0 % p
    mod = p
    while mod < p**k:
        mod *= p
        val = (a * t * t + b * t + c) % mod
        corr = (-val * pow(2 * a * t + b, -1, mod)) % mod
        t = (t + corr) % mod
    assert (a * t * t + b * t + c) % (p**k) == 0
    return t % (p**k)


def _check_split_prime(D: int, p: int) -> None:
    """Raise ValueError unless p is an odd prime that splits in disc D."""
    if p == 2 or not _is_prime(p):
        raise ValueError("p must be an odd prime")
    if D % p == 0:
        raise ValueError(f"{p} ramifies in disc {D}")
    if _legendre(D, p) != 1:
        raise ValueError(f"{p} is inert for disc {D}")


def split_lattices(
    f: QuadraticForm, p: int, k: int
) -> tuple[SubLattice, SubLattice]:
    """The two index-p^k lattices carrying f = 0 (mod p^k), primitively.

    Branches are ordered deterministically: a branch of the shape
    {y = s x (mod p^k)} (present exactly when p | a, the lift of the
    residue factor through (1, 0)) comes first; {x = t y} branches are
    sorted by t.
    """
    _check_split_prime(f.disc(), p)
    if f.content() % p == 0:
        raise ValueError("content divisible by p")
    a, b, c = f.coeffs()
    q = p**k
    branches = []
    if a % p == 0:
        # root at infinity: y = s x with c s^2 + b s + a = 0, s = 0 (mod p)
        s = _lift_root((c, b, a), 0, p, k)
        branches.append(("y", s))
        # the finite root: a t^2 + b t + c with t = -c/b (mod p)
        t0 = (-c * pow(b, -1, p)) % p
        t = _lift_root((a, b, c), t0, p, k)
        branches.append(("x", t))
    else:
        roots = sorted(
            t0 for t0 in range(p) if (a * t0 * t0 + b * t0 + c) % p == 0
        )
        assert len(roots) == 2, (f, p, roots)
        for t0 in roots:
            branches.append(("x", _lift_root((a, b, c), t0, p, k)))
    lats = []
    for kind, r in branches:
        if kind == "y":
            # y = r x (mod p^k): congruence r*x - y = 0 mod p^k
            lats.append(SubLattice.from_congruences([(r, -1, q)]))
        else:
            # x = r y (mod p^k)
            lats.append(SubLattice.from_congruences([(1, -r, q)]))
    assert all(L.index == q for L in lats)
    return lats[0], lats[1]


def lattice_form(f: QuadraticForm, L: SubLattice) -> QuadraticForm:
    """The primitive g with f(d1 x, k x + d2 y) = index * g(x, y) on the
    basis (d1, k), (0, d2) of L, so disc(g) = disc(f); ValueError unless f
    vanishes mod the index on L."""
    g = QuadraticForm(*L.transport(f.coeffs(), L.index))
    if not g.is_primitive():
        raise AssertionError(f"transported form {g} is imprimitive")
    return g


# ---------------------------------------------------------------------------
# Auxiliary forms w(f), nu(f), xi(f)
# ---------------------------------------------------------------------------


def w_of(f: QuadraticForm, c: Optional[CanonicalFp] = None) -> QuadraticForm:
    """The numerator form w(f) built from the canonical (p, m, n) translate
    c of f (computed here when not given)."""
    if c is None:
        c = canonical_fp(f)
    if c.m % 2 == 1:
        return QuadraticForm(c.p, -c.m, c.n)
    return QuadraticForm(c.p, -4 * c.m, 16 * c.n)


def nu_of(f: QuadraticForm, c: Optional[CanonicalFp] = None) -> FormClass:
    """The class of the form carrying w(f) on the 3rd lift of its 2nd branch;
    c is the canonical translate of f (computed here when not given)."""
    if c is None:
        c = canonical_fp(f)
    w = w_of(f, c)
    # p | w.a, so the branch ordering puts the {x = t y} lift second
    return class_of(lattice_form(w, split_lattices(w, c.p, 3)[1]))


def eta_of(f: QuadraticForm) -> QuadraticForm:
    """eta(f) = a x^2 - 2b xy + 4c y^2 on the canonical translate of f."""
    c = canonical_fp(f)
    return QuadraticForm(c.p, -2 * c.m, 4 * c.n)


def xi_of(f: QuadraticForm) -> FormClass:
    """The class of the form carrying eta(f)/a on {b x = 2c y (mod 2a)}."""
    eta = eta_of(f)
    a, b, cc = eta.a, -eta.b // 2, eta.c // 4
    Lp = SubLattice.from_congruences([(b, -2 * cc, 2 * a)])
    # the transported form carries a content (4 when b is odd); its
    # primitive part is what lives in a Picard group
    xi = QuadraticForm(*Lp.transport(eta.coeffs(), a))
    return class_of(xi.primitive_part())


def xi_m_of(f: QuadraticForm, m: int) -> FormClass:
    """Transport xi(f) through the unique index-m lattice where it vanishes
    mod m; m must be an odd squarefree divisor of |disc(f)|."""
    D = abs(f.disc())
    if m <= 0 or D % m != 0 or m % 2 == 0:
        raise ValueError("m must be a positive odd divisor of |disc(f)|")
    primes = _prime_divisors(m)
    if any(m % (p * p) == 0 for p in primes):
        raise ValueError("m must be squarefree")
    if any(D % (p * p) == 0 for p in primes):
        # p would divide the conductor; the singular line does not lift
        # cleanly and the transported form picks up content
        raise ValueError("primes of m must divide disc(f) exactly once")
    cls = xi_of(f)
    xi = cls.rep
    congs = []
    for p in primes:
        congs.append(_singular_line(xi, p))
    L = SubLattice.from_congruences(congs)
    assert L.index == m, (L.index, m)
    return class_of(QuadraticForm(*L.transport(xi.coeffs(), m)))


def _singular_line(g: QuadraticForm, p: int) -> tuple[int, int, int]:
    """Congruence (u, v, p) cutting the kernel line of g mod p (p | disc g)."""
    assert g.disc() % p == 0
    a, b, c = g.a % p, g.b % p, g.c % p
    # the matrix [[2a, b], [b, 2c]] has rank <= 1 mod p; rows give the line
    if (2 * a) % p or b % p:
        return (2 * a % p, b % p, p)
    if b % p or (2 * c) % p:
        return (b % p, 2 * c % p, p)
    raise AssertionError(f"{g} vanishes identically mod {p}")


# ---------------------------------------------------------------------------
# Class walk along Hensel lifts (the s +- k law)
# ---------------------------------------------------------------------------


@dataclass
class HenselCheckResult:
    passed: bool
    vacuous: bool
    s: Optional[int]
    prime_class: Optional[FormClass]
    witnesses: list[str]

    def __bool__(self) -> bool:
        return self.passed


def prime_form_class(D: int, p: int) -> FormClass:
    """Class of the canonical form (p, m, n) of discriminant D representing p;
    p must be an odd prime splitting in D."""
    _check_split_prime(D, p)
    return class_of(_prime_form(D, p))


def _classes_equal_up_to_inverse(c1: FormClass, c2: FormClass) -> bool:
    """The inverse of reduced (a, b, c) is (a, -b, c), or itself when that
    is not reduced."""
    a, b, c = c2.rep.coeffs()
    return c1.rep.coeffs() in ((a, b, c), (a, -b, c))


def hensel_class_check(f: QuadraticForm, p: int, kmax: int = 3) -> HenselCheckResult:
    """Verify the transported classes along both branches for k = 1..kmax.

    With P the class of a prime form above p and s minimal with P^s = [f]
    (orientation of P chosen to make s exist), the transported class on
    branch 1 at level k must be P^(s-k) and on branch 2 P^(s+k), each up to
    inverse (a lattice basis only pins the class up to GL2), with one
    global branch assignment across all k.  When [f] is not a power of P
    the hypothesis fails and the check is vacuous.  p must be an odd prime
    splitting in disc(f).

    One walk around the cycle of P in the class group gives
    powers[j] = P^j, hence the order n = len(powers), s, and every target
    P^(s +- k) = powers[(s +- k) % n].  The targets are compared up to
    inverse, so the orientation of P does not change them.
    """
    if not f.is_primitive():
        raise ValueError("f must be primitive")
    D = f.disc()
    P = prime_form_class(D, p)
    G = class_group(-D)
    powers = [G.identity()]
    acc = P
    while acc != powers[0]:
        powers.append(acc)
        acc = G.compose(acc, P)
    n = len(powers)
    fcls = class_of(f)
    s = orient = None
    for e, acc in enumerate(powers):
        if acc == fcls:
            s, orient = e, 1
            break
        if _classes_equal_up_to_inverse(fcls, acc):
            s, orient = e, -1
            break
    if s is None:
        return HenselCheckResult(True, True, None, P, ["[f] is not a power of the prime class; vacuous"])
    if orient == -1:
        P = inverse(P)
    got = {}
    for k in range(1, kmax + 1):
        L1, L2 = split_lattices(f, p, k)
        got[k] = (class_of(lattice_form(f, L1)), class_of(lattice_form(f, L2)))
    witnesses = []
    for swap in (False, True):
        ok = True
        for k in range(1, kmax + 1):
            c1, c2 = got[k]
            if swap:
                c1, c2 = c2, c1
            t1 = powers[(s - k) % n]
            t2 = powers[(s + k) % n]
            if not (
                _classes_equal_up_to_inverse(c1, t1)
                and _classes_equal_up_to_inverse(c2, t2)
            ):
                ok = False
                break
        if ok:
            return HenselCheckResult(True, False, s, P, [])
    for k in range(1, kmax + 1):
        c1, c2 = got[k]
        witnesses.append(
            f"k={k}: got ({c1.rep}, {c2.rep}), want (P^{s - k}, P^{s + k}) with P={P.rep}, s={s}"
        )
    return HenselCheckResult(False, False, s, P, witnesses)

