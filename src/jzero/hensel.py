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
    class_of,
    class_pow,
    inverse,
    order,
    principal_class,
    reduce_form,
    representations,
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


def least_split_prime(f: QuadraticForm, prime_bound: int = 100000) -> int:
    """Least odd prime represented by f and coprime to disc(f)."""
    D = f.disc()
    p = 3
    while p <= prime_bound:
        if _is_prime(p) and D % p != 0 and representations(f, p):
            return p
        p += 2
    raise SearchExhausted(f"no represented odd prime for {f}", prime_bound)


def canonical_fp(f: QuadraticForm, prime_bound: int = 100000) -> CanonicalFp:
    """The canonical translate (p, m, n) of a primitive positive definite f.

    n is the least positive integer with p x^2 + m xy + n y^2 equivalent to
    f, then m is taken non-negative; concretely the least m >= 0 with
    m^2 = disc(f) (mod 4p).
    """
    if not f.is_primitive() or not f.is_positive_definite():
        raise ValueError("canonical_fp needs a primitive positive definite form")
    D = f.disc()
    p = least_split_prime(f, prime_bound)
    m = next(m for m in range(0, 2 * p + 1) if (m * m - D) % (4 * p) == 0)
    n = (m * m - D) // (4 * p)
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
    assert g1 == QuadraticForm(p, m, n), (f, g1, (p, m, n))
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


def split_lattices(
    f: QuadraticForm, p: int, k: int
) -> tuple[SubLattice, SubLattice]:
    """The two index-p^k lattices carrying f = 0 (mod p^k), primitively.

    Branches are ordered deterministically: a branch of the shape
    {y = s x (mod p^k)} (present exactly when p | a, the lift of the
    residue factor through (1, 0)) comes first; {x = t y} branches are
    sorted by t.
    """
    if p == 2 or not _is_prime(p):
        raise ValueError("p must be an odd prime")
    D = f.disc()
    if D % p == 0:
        raise ValueError(f"{p} ramifies in disc {D}")
    if _legendre(D, p) != 1:
        raise ValueError(f"{p} is inert for disc {D}")
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


def restrict_to_lattice(f: QuadraticForm, L: SubLattice) -> QuadraticForm:
    """f composed with the basis matrix of L (disc scales by index^2)."""
    (b11, b21), (b12, b22) = L.basis()
    return QuadraticForm(
        f.value(b11, b21),
        2 * f.a * b11 * b12 + f.b * (b11 * b22 + b12 * b21) + 2 * f.c * b21 * b22,
        f.value(b12, b22),
    )


def lattice_form(
    f: QuadraticForm, L: SubLattice
) -> tuple[QuadraticForm, QuadraticForm, Unimodular]:
    """Restrict f to L and divide by the index.

    Returns (g_reduced, g_raw, basis_as_matrix) where
    f(basis * (x,y)) = index * g_raw(x,y) exactly, disc(g_raw) = disc(f),
    and g_reduced is the Gauss-reduced representative of g_raw (equal to
    g_raw when f is not positive definite).
    """
    raw = restrict_to_lattice(f, L)
    idx = L.index
    if any(c % idx != 0 for c in raw.coeffs()):
        raise ValueError(
            f"form {f} does not vanish mod {idx} on lattice {L}"
        )
    g = QuadraticForm(*(c // idx for c in raw.coeffs()))
    assert g.disc() == f.disc()
    if not g.is_primitive():
        raise AssertionError(f"transported form {g} is imprimitive")
    basis_matrix = _basis_matrix(L)
    if g.is_positive_definite():
        g_red, _ = reduce_form(g)
    else:
        g_red = g
    return g_red, g, basis_matrix


@dataclass(frozen=True)
class BasisMatrix:
    """2x2 integer matrix of lattice basis columns (determinant = index)."""

    t1: int
    t2: int
    t3: int
    t4: int

    def entries(self):
        return (self.t1, self.t2, self.t3, self.t4)


def _basis_matrix(L: SubLattice) -> BasisMatrix:
    (b11, b21), (b12, b22) = L.basis()
    return BasisMatrix(b11, b12, b21, b22)


# ---------------------------------------------------------------------------
# Auxiliary forms w(f), nu(f), xi(f)
# ---------------------------------------------------------------------------


def w_of(f: QuadraticForm) -> QuadraticForm:
    """The numerator form w(f) built from the canonical (p, m, n) translate."""
    c = canonical_fp(f)
    if c.m % 2 == 1:
        return QuadraticForm(c.p, -c.m, c.n)
    return QuadraticForm(c.p, -4 * c.m, 16 * c.n)


def second_branch_lattice(g: QuadraticForm, p: int, k: int) -> SubLattice:
    """The k-th lift of the branch {g.b * x + g.c * y = 0 (mod p)} for a
    form with p | g.a (the analogue of the second split lattice)."""
    assert g.a % p == 0
    L1, L2 = split_lattices(g, p, k)
    # ordering guarantees L2 is the {x = t y} branch when p | a
    return L2


def nu_of(f: QuadraticForm) -> FormClass:
    """The class of the form carrying w(f) on the 3rd lift of its 2nd branch."""
    c = canonical_fp(f)
    w = w_of(f)
    L = second_branch_lattice(w, c.p, 3)
    g_red, _, _ = lattice_form(w, L)
    return class_of(g_red)


def eta_of(f: QuadraticForm) -> QuadraticForm:
    """eta(f) = a x^2 - 2b xy + 4c y^2 on the canonical translate of f."""
    c = canonical_fp(f)
    return QuadraticForm(c.p, -2 * c.m, 4 * c.n)


def xi_of(f: QuadraticForm) -> FormClass:
    """The class of the form carrying eta(f)/a on {b x = 2c y (mod 2a)}."""
    eta = eta_of(f)
    a, b, cc = eta.a, -eta.b // 2, eta.c // 4
    Lp = SubLattice.from_congruences([(b, -2 * cc, 2 * a)])
    raw = restrict_to_lattice(eta, Lp)
    if any(co % a != 0 for co in raw.coeffs()):
        raise AssertionError(f"eta not divisible by {a} on {Lp}")
    xi = QuadraticForm(*(co // a for co in raw.coeffs()))
    # the transported form carries a content (4 when b is odd); its
    # primitive part is what lives in a Picard group
    xi = xi.primitive_part()
    red, _ = reduce_form(xi)
    return class_of(red)


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
    raw = restrict_to_lattice(xi, L)
    if any(co % m != 0 for co in raw.coeffs()):
        raise AssertionError("xi does not vanish mod m on the singular lattice")
    out = QuadraticForm(*(co // m for co in raw.coeffs()))
    red, _ = reduce_form(out)
    return class_of(red)


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
    """Class of the canonical form (p, m, n) of discriminant D representing p."""
    m = next(m for m in range(0, 2 * p + 1) if (m * m - D) % (4 * p) == 0)
    n = (m * m - D) // (4 * p)
    return class_of(QuadraticForm(p, m, n))


def _classes_equal_up_to_inverse(c1: FormClass, c2: FormClass) -> bool:
    return c1 == c2 or c1 == inverse(c2)


def hensel_class_check(f: QuadraticForm, p: int, kmax: int = 3) -> HenselCheckResult:
    """Verify the transported classes along both branches for k = 1..kmax.

    With P the class of a prime form above p and s minimal with P^s = [f]
    (orientation of P chosen to make s exist), the transported class on
    branch 1 at level k must be P^(s-k) and on branch 2 P^(s+k), each up to
    inverse (a lattice basis only pins the class up to GL2), with one
    global branch assignment across all k.  When [f] is not a power of P
    the hypothesis fails and the check is vacuous.
    """
    if not f.is_primitive():
        raise ValueError("f must be primitive")
    D = f.disc()
    P = prime_form_class(D, p)
    s = None
    orient = None
    n = order(P)
    acc = principal_class(D)
    fcls = class_of(f)
    for e in range(n):
        if acc == fcls:
            s, orient = e, 1
            break
        if inverse(acc) == fcls:
            s, orient = e, -1
            break
        acc = _compose_cached(acc, P)
    if s is None:
        return HenselCheckResult(True, True, None, P, ["[f] is not a power of the prime class; vacuous"])
    if orient == -1:
        P = inverse(P)
    got = {}
    for k in range(1, kmax + 1):
        L1, L2 = split_lattices(f, p, k)
        g1, _, _ = lattice_form(f, L1)
        g2, _, _ = lattice_form(f, L2)
        got[k] = (class_of(g1), class_of(g2))
    witnesses = []
    for swap in (False, True):
        ok = True
        for k in range(1, kmax + 1):
            c1, c2 = got[k]
            if swap:
                c1, c2 = c2, c1
            t1 = class_pow(P, s - k)
            t2 = class_pow(P, s + k)
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


_COMPOSE_CACHE: dict[tuple, FormClass] = {}


def _compose_cached(c1: FormClass, c2: FormClass) -> FormClass:
    from .classes import compose

    key = (c1.disc, c1.rep.coeffs(), c2.rep.coeffs())
    got = _COMPOSE_CACHE.get(key)
    if got is None:
        got = compose(c1, c2)
        _COMPOSE_CACHE[key] = got
    return got
