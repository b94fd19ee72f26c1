"""Tests for split lattices, Hensel lifts, and the auxiliary forms."""

import random

import pytest

from jzero.classes import (
    class_of,
    compose,
    reduced_forms,
    inverse,
    order,
    principal_class,
)
from jzero.forms import QuadraticForm
from jzero.hensel import (
    HenselCheckResult,
    canonical_fp,
    hensel_class_check,
    lattice_form,
    nu_of,
    prime_form_class,
    split_lattices,
    w_of,
    xi_m_of,
    xi_of,
)
from reference import contains, is_sublattice_of


def test_canonical_fp_examples():
    c = canonical_fp(QuadraticForm(1, 0, 1))
    assert (c.p, c.m, c.n) == (5, 4, 1)
    c = canonical_fp(QuadraticForm(2, 1, 3))
    assert (c.p, c.m, c.n) == (3, 1, 2)
    # 3 | disc(-3) excludes p = 3; the next represented odd prime is 7
    c = canonical_fp(QuadraticForm(1, 1, 1))
    assert (c.p, c.m, c.n) == (7, 5, 1)


def test_canonical_fp_transform_is_exact():
    rng = random.Random(31)
    for D in range(3, 200):
        if D % 4 not in (0, 3):
            continue
        for f in reduced_forms(D):
            c = canonical_fp(f)
            from jzero.forms import act_quadratic

            assert act_quadratic(f, c.transform) == c.form()
            assert c.form().disc() == f.disc()
            assert c.m >= 0 and c.n >= 1


def test_split_lattices_examples():
    f = QuadraticForm(1, 1, 6)
    L1, L2 = split_lattices(f, 3, 1)
    pts1 = {(x, y) for x in range(3) for y in range(3) if contains(L1, x, y)}
    pts2 = {(x, y) for x in range(3) for y in range(3) if contains(L2, x, y)}
    assert pts1 | pts2 == {(0, 0), (0, 1), (0, 2), (1, 2), (2, 1)}
    g = QuadraticForm(5, 4, 1)
    M1, M2 = split_lattices(g, 5, 1)
    assert all(y % 5 == 0 for (x, y) in [M1.point(s, t) for s in range(3) for t in range(3)])
    assert all((4 * x + y) % 5 == 0 for (x, y) in [M2.point(s, t) for s in range(3) for t in range(3)])


def test_split_lattices_residue_exhaustive():
    # every solution of f = 0 (mod p^k) with (x,y) not both 0 mod p lies in
    # exactly one of the two lattices; checked exhaustively for p^k <= 10^4
    rng = random.Random(32)
    cases = 0
    for D in range(3, 120):
        if D % 4 not in (0, 3):
            continue
        for f in reduced_forms(D):
            for p in (3, 5, 7, 11, 13):
                if D % p == 0 or pow(-D % p, (p - 1) // 2, p) != 1:
                    continue
                for k in (1, 2, 3):
                    q = p**k
                    if q > 10**4 or q > 400:  # keep the exhaustive scan fast
                        continue
                    L1, L2 = split_lattices(f, p, k)
                    for x in range(q):
                        for y in range(q):
                            prim = x % p != 0 or y % p != 0
                            sol = f.value(x, y) % q == 0
                            inL = (contains(L1, x, y), contains(L2, x, y))
                            if prim and sol:
                                assert inL[0] != inL[1], (f, p, k, x, y)
                            if prim and not sol:
                                assert not any(inL)
                    cases += 1
    assert cases > 50


def test_split_lattice_nesting():
    f = QuadraticForm(1, 1, 6)
    for p in (3, 13):
        if (-23) % p == 0:
            continue
        if pow(-23 % p, (p - 1) // 2, p) != 1:
            continue
        L1a, L2a = split_lattices(f, p, 1)
        L1b, L2b = split_lattices(f, p, 2)
        assert is_sublattice_of(L1b, L1a) and is_sublattice_of(L2b, L2a)
        assert L1b.index == p * L1a.index


def test_lattice_form_exact():
    f = QuadraticForm(1, 1, 6)
    L1, L2 = split_lattices(f, 3, 1)
    g1, g2 = lattice_form(f, L1), lattice_form(f, L2)
    assert g1.disc() == f.disc() and g2.disc() == f.disc()
    assert {class_of(g1), class_of(g2)} == {
        class_of(QuadraticForm(2, 1, 3)),
        class_of(QuadraticForm(2, -1, 3)),
    }
    assert g1.is_positive_definite() and g2.is_positive_definite()


def test_lattice_form_rejects_bad_lattice():
    from jzero.lattices import SubLattice

    f = QuadraticForm(1, 0, 1)
    # f(1, 0) = 1 is not divisible by the index 3 of {y = 0 mod 3}
    L3 = SubLattice.from_congruences([(0, 1, 3)])
    with pytest.raises(ValueError):
        lattice_form(f, L3)


def test_w_examples():
    assert w_of(QuadraticForm(3, 1, 2)) == QuadraticForm(3, -1, 2)
    w = w_of(QuadraticForm(5, 4, 1))
    assert w == QuadraticForm(5, -16, 16) and w.disc() == -64
    # w(f) for odd m keeps the discriminant
    assert w_of(QuadraticForm(2, 1, 3)).disc() == -23


def test_nu_is_w_fourth_power():
    for D in range(3, 160):
        if D % 4 not in (0, 3):
            continue
        for f in reduced_forms(D):
            nu = nu_of(f)
            w = class_of(reduce_w(f))
            w2 = compose(w, w)
            w4 = compose(w2, w2)
            assert nu in (w4, inverse(w4)), (f, nu.rep, w4.rep)
            assert nu.disc == w_of(f).disc()


def reduce_w(f):
    from jzero.classes import reduce_form

    return reduce_form(w_of(f))[0]


def test_w_distinct_biconditional_small():
    # GL2-distinctness of w(f) across GL2 classes of fixed discriminant
    for D in range(3, 160):
        if D % 4 not in (0, 3):
            continue
        gl2 = [f for f in reduced_forms(D) if f.b >= 0]
        ws = []
        for f in gl2:
            w, _ = __import__("jzero.classes", fromlist=["reduce_form"]).reduce_form(
                w_of(f)
            )
            ws.append(QuadraticForm(w.a, abs(w.b), w.c))
        assert len(set(ws)) == len(gl2), (D, ws)


def test_hensel_class_check_examples():
    # D = -23: principal form has s = 0; lattice classes come out as
    # (inverse(P), P) at level 1
    f = QuadraticForm(1, 1, 6)
    res = hensel_class_check(f, 3, 1)
    assert res.passed and res.s == 0
    L1, L2 = split_lattices(f, 3, 1)
    P = prime_form_class(-23, 3)
    got = {class_of(lattice_form(f, L1)), class_of(lattice_form(f, L2))}
    assert got == {P, inverse(P)}
    res = hensel_class_check(QuadraticForm(2, 1, 3), 3, 3)
    assert res.passed and res.s == 1
    # order-1 prime class: both transported classes principal
    # disc -8: h = 1, p = 3 splits (Legendre(-8,3) = 1)
    res = hensel_class_check(QuadraticForm(1, 0, 2), 3, 2)
    assert res.passed and res.s == 0
    # p must split in disc -23: 5 is inert, 23 ramifies, 2 is even
    for p, msg in ((5, "5 is inert for disc -23"), (23, "23 ramifies in disc -23"), (2, "odd prime")):
        with pytest.raises(ValueError, match=msg):
            hensel_class_check(QuadraticForm(1, 1, 6), p)
        with pytest.raises(ValueError, match=msg):
            prime_form_class(-23, p)


def test_hensel_class_check_sweep():
    checked = 0
    for D in range(3, 120):
        if D % 4 not in (0, 3):
            continue
        for f in reduced_forms(D):
            for p in (3, 5, 7):
                if D % p == 0 or pow(-D % p, (p - 1) // 2, p) != 1:
                    continue
                res = hensel_class_check(f, p, 3)
                assert res.passed, (f, p, res.witnesses)
                checked += 1
    assert checked > 60


def _class_pow(c, k):
    """c^k by square-and-multiply over the uncached classes.compose."""
    if k < 0:
        return _class_pow(inverse(c), -k)
    acc, base = principal_class(c.disc), c
    while k:
        if k & 1:
            acc = compose(acc, base)
        base = compose(base, base)
        k >>= 1
    return acc


def _reference_class_check(f, p, kmax):
    """hensel_class_check with the exponent walk, the order of P and each
    target P^(s +- k) computed separately through classes.compose."""
    D = f.disc()
    P = prime_form_class(D, p)
    s = orient = None
    acc = principal_class(D)
    fcls = class_of(f)
    for e in range(order(P)):
        if acc == fcls:
            s, orient = e, 1
            break
        if inverse(acc) == fcls:
            s, orient = e, -1
            break
        acc = compose(acc, P)
    if s is None:
        return HenselCheckResult(True, True, None, P, ["[f] is not a power of the prime class; vacuous"])
    if orient == -1:
        P = inverse(P)
    got = {}
    for k in range(1, kmax + 1):
        L1, L2 = split_lattices(f, p, k)
        got[k] = (class_of(lattice_form(f, L1)), class_of(lattice_form(f, L2)))
    for swap in (False, True):
        ok = True
        for k in range(1, kmax + 1):
            c1, c2 = got[k][::-1] if swap else got[k]
            t1, t2 = _class_pow(P, s - k), _class_pow(P, s + k)
            if not (c1 in (t1, inverse(t1)) and c2 in (t2, inverse(t2))):
                ok = False
                break
        if ok:
            return HenselCheckResult(True, False, s, P, [])
    witnesses = [
        f"k={k}: got ({c1.rep}, {c2.rep}), want (P^{s - k}, P^{s + k}) with P={P.rep}, s={s}"
        for k, (c1, c2) in got.items()
    ]
    return HenselCheckResult(False, False, s, P, witnesses)


def test_hensel_class_check_matches_reference_walk():
    kmax = 3
    wraps_below = wraps_above = 0
    for D in range(3, 201):
        for f in reduced_forms(D):
            for p in (3, 5, 7, 11, 13, 17, 19, 23):
                if D % p == 0 or pow(-D % p, (p - 1) // 2, p) != 1:
                    continue
                res = hensel_class_check(f, p, kmax)
                assert res == _reference_class_check(f, p, kmax), (f, p)
                if res.s is not None:
                    n = order(res.prime_class)
                    wraps_below += res.s < kmax  # s - k < 0 for some k
                    wraps_above += res.s + kmax >= n  # s + k >= n for some k
    assert wraps_below > 0 and wraps_above > 0


def test_xi_examples():
    xi = xi_of(QuadraticForm(2, 1, 3))
    assert xi.disc == -23
    xi2 = xi_of(QuadraticForm(1, 0, 1))
    assert xi2.disc == -16
    with pytest.raises(ValueError):
        xi_m_of(QuadraticForm(1, 1, 7), 3)  # 27 = 3^3, conductor case
    # clean ramified case: D = 15, m = 3
    out = xi_m_of(QuadraticForm(1, 1, 4), 3)
    assert out.disc == xi_of(QuadraticForm(1, 1, 4)).disc
