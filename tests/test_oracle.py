"""Tests for the brute-force oracle: enumeration, keys, counts, composition."""

import hashlib
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jzero
from jzero import oracle
from jzero.classes import (
    ClassGroup,
    class_group,
    class_of,
    enumerate_reduced,
    inverse,
    representations,
)
from jzero.counting import DISC_POLICY, count_M, count_N
from jzero.forms import (
    IDENTITY,
    QuadraticForm,
    QuarticForm,
    Unimodular,
    act_quartic,
    invariants,
    is_irreducible_Q,
)
from jzero.oracle import (
    brute_quartics,
    certify_cover,
    compose_oracle,
    negated_key,
    orbit_count_bruteforce,
    orbit_key,
    value_candidates,
)
from jzero.verify import run_suite
from reference import (
    brute_quartics_both_signs,
    brute_quartics_per_form,
    equivalent_by_matrix_search,
)

# The subprocesses import the same jzero and references as these tests.
SRC = str(Path(list(jzero.__path__)[0]).resolve().parent)
TESTS = str(Path(__file__).resolve().parent)


def test_brute_quartics_basics():
    assert list(brute_quartics(0)) == []
    forms = list(brute_quartics(1))
    assert QuarticForm(0, -1, 0, 1, 0) in forms  # and not its negation
    assert QuarticForm(0, 1, 0, -1, 0) not in forms
    for F in forms:
        t = invariants(F)
        assert t.J == 0 and t.disc != 0
        assert max(abs(c) for c in F.coeffs()) <= 1
    with pytest.raises(ValueError):
        next(brute_quartics(100))


def test_brute_quartics_complete_small():
    # against a plain 5-fold loop at height 3
    from itertools import product

    want = set()
    for coeffs in product(range(-3, 4), repeat=5):
        F = QuarticForm(*coeffs)
        t = invariants(F)
        if t.J == 0 and t.disc != 0:
            want.add(coeffs)
    got = {F.coeffs() for F in brute_quartics_both_signs(3)}
    assert got == want


def test_brute_quartics_matches_per_form_reference():
    # the forms with (a4, a3) < (0, 0) of the per-form filter, in its order,
    # at every height up to 12 and with the |I| bound applied on the grid
    for h in range(13):
        ref = [(F, abs(invariants(F).I)) for F in brute_quartics_per_form(h)]
        for imax in (None, 1, 50, 407):
            want = [F for F, i in ref if (F.a4, F.a3) < (0, 0) and (imax is None or i <= imax)]
            assert list(brute_quartics(h, imax)) == want, (h, imax)


def test_brute_quartics_yields_one_form_of_each_pair():
    # never F together with -F, always the member with (a4, a3) < (0, 0),
    # and with their negations exactly the per-form reference's box
    for h in range(9):
        ref = [(F.coeffs(), abs(invariants(F).I)) for F in brute_quartics_per_form(h)]
        for imax in (None, 1, 50, 407):
            forms = list(brute_quartics(h, imax))
            coeffs = {F.coeffs() for F in forms}
            assert len(coeffs) == len(forms), (h, imax)
            assert all((F.a4, F.a3) < (0, 0) for F in forms), (h, imax)
            assert not any(F.neg().coeffs() in coeffs for F in forms), (h, imax)
            both = coeffs | {F.neg().coeffs() for F in forms}
            assert both == {c for c, i in ref if imax is None or i <= imax}, (h, imax)
            assert {F.coeffs() for F in brute_quartics_both_signs(h, imax)} == both


def test_brute_quartics_sign_and_mod_3_identities():
    # F -> -F keeps I; every solved form (8 a4 a2 != 3 a3^2, where J
    # involves a0) has 3 | a2
    forms = brute_quartics_both_signs(12)
    for F in forms:
        assert invariants(F.neg()).I == invariants(F).I, F
        if 8 * F.a4 * F.a2 != 3 * F.a3 * F.a3:
            assert F.a2 % 3 == 0, F
    assert any(8 * F.a4 * F.a2 == 3 * F.a3 * F.a3 for F in forms)


def test_orbit_key_memo_matches_uncached_reference():
    # run in a fresh process, so that the first pass starts on an empty memo
    script = textwrap.dedent(
        """
        from jzero import oracle
        from reference import brute_quartics_both_signs, orbit_key_uncached

        forms = brute_quartics_both_signs(8)
        assert forms and not oracle._DIVISORS
        want = [orbit_key_uncached(F) for F in forms]
        for memo in ("empty", "filled"):
            got = [oracle.orbit_key(F) for F in forms]
            bad = [F for F, k, r in zip(forms, got, want) if k != r]
            assert not bad, (memo, bad[:3])
        print(len(forms), len(oracle._DIVISORS))
        """
    )
    path = os.pathsep.join(p for p in (SRC, TESTS, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=600,
    )
    assert out.returncode == 0, out.stderr
    n_forms, n_divisors = map(int, out.stdout.split())
    assert n_forms > n_divisors > 0


def test_negated_key_is_the_key_of_minus_f():
    # on every form of the box, and on all three slices
    slices = set()
    for F in brute_quartics_both_signs(4):
        key = orbit_key(F)
        neg, size, n_f = negated_key(key)
        assert neg == orbit_key(F.neg()), F
        slices.add(key.slice)
        if key.slice == "indefinite":
            assert (neg, size, n_f) == (key, 0, 0)
        else:
            d = oracle._DIVISORS[key.divisor]
            assert size == d.action.orbit_size(*key.point) and n_f == d.n_f, F
    assert slices == {"posdef", "square", "indefinite"}


def test_pair_keyed_counts_match_keying_every_form():
    for X in (2000, 20000):
        rep = orbit_count_bruteforce(X)
        want = {"posdef": set(), "square": set(), "indefinite": set()}
        for F in brute_quartics_both_signs(rep.height, imax=DISC_POLICY.ibound(X)):
            if is_irreducible_Q(F):
                key = orbit_key(F)
                want[key.slice].add(key)
        assert rep.n_keys == want["posdef"] and rep.m_keys == want["square"], X
        assert rep.indefinite_orbits == len(want["indefinite"]), X


def _rand_T(rng):
    T = IDENTITY
    for _ in range(rng.randint(1, 5)):
        k = rng.randint(-3, 3)
        T = T.mul(Unimodular(1, k, 0, 1) if rng.random() < 0.5 else Unimodular(1, 0, k, 1))
        if rng.random() < 0.3:
            T = T.mul(Unimodular(0, -1, 1, 0))
        if rng.random() < 0.2:
            T = T.mul(Unimodular(1, 0, 0, -1))
    return T


def test_orbit_key_invariance():
    rng = random.Random(71)
    forms = brute_quartics_both_signs(6)
    for F in forms[:: max(1, len(forms) // 40)]:
        k0 = orbit_key(F)
        for _ in range(30):
            assert orbit_key(act_quartic(F, _rand_T(rng))) == k0


def test_orbit_key_separates():
    # forms with equal invariants but different divisor classes get
    # different keys; validated against explicit matrix search
    rng = random.Random(72)
    by_inv = {}
    for F in brute_quartics_both_signs(4):
        if not is_irreducible_Q(F):
            continue
        k = orbit_key(F)
        if k.slice == "indefinite":
            continue
        by_inv.setdefault(k.invariants, []).append((F, k))
    checked_diff = checked_same = 0
    for inv_t, entries in by_inv.items():
        if len(entries) < 2 or checked_diff + checked_same > 60:
            continue
        for (F1, k1), (F2, k2) in zip(entries, entries[1:]):
            T = equivalent_by_matrix_search(F1, F2, bound=5)
            if k1 == k2:
                checked_same += 1
                assert T is not None or _deep_search(F1, F2), (F1, F2)
            else:
                checked_diff += 1
                assert T is None, (F1, F2, T)
    assert checked_diff > 3 and checked_same > 3


def _deep_search(F1, F2):
    return equivalent_by_matrix_search(F1, F2, bound=9) is not None


def test_pm_inequivalent_special_pair():
    # +-(x^4 - 6 x^2 y^2 + y^4) are inequivalent: no unimodular substitution
    # realizes the sign flip even though all invariants agree
    F = QuarticForm(1, 0, -6, 0, 1)
    G = F.neg()
    assert invariants(F) == invariants(G)
    assert equivalent_by_matrix_search(F, G, bound=7) is None
    assert orbit_key(F) != orbit_key(G)


def test_binding_counts_small():
    for X in (2000, 10000):
        rep = orbit_count_bruteforce(X)
        assert rep.height >= rep.required_height
        assert rep.n_orbits == count_N(X).irreducible_orbits
        assert rep.m_orbits == count_M(X).irreducible_orbits


def test_cover_certificate_monotone():
    assert certify_cover(2000)[0] <= certify_cover(20000)[0] <= 60


def test_box_too_small_rejected():
    with pytest.raises(ValueError):
        orbit_count_bruteforce(20000, height=2)


def test_oracle_equivalence_is_pinned_at_the_benchmark_size():
    # the box, its irreducibility and its keys must leave the suite's
    # checks, stats and findings at X = 1e7 unchanged (SHA-256 of their repr)
    res = run_suite("oracle-equivalence", xs=(10**7,), completeness_height=16)
    assert res.passed
    fields = (res.checks, sorted(res.stats.items()), res.findings)
    got = hashlib.sha256(repr(fields).encode()).hexdigest()
    assert got == "31c0ab8ee98a5a04cedde42509d834547f175d3fb258a9d358ddd37c19a69047"


def test_compose_oracle_agreement():
    rng = random.Random(73)
    for D in (23, 47, 71, 84, 120, 231, 255):
        if D % 4 not in (0, 3):
            continue
        G = ClassGroup(D)
        for c1 in G.elements:
            for c2 in G.elements:
                got = compose_oracle(c1, c2)  # raises on disagreement
                assert got.disc == -D
    # principal composed with c stays c
    G = ClassGroup(23)
    e = G.identity()
    for c in G.elements:
        assert compose_oracle(e, c) in (c, inverse(c))


def test_value_candidates_contains_product():
    G = ClassGroup(23)
    c = class_of(QuadraticForm(2, 1, 3))
    cands, used = value_candidates(c, c)
    reps = {x.rep.coeffs() for x in cands}
    assert (2, -1, 3) in reps or (2, 1, 3) in reps


def _reference_small_values(f, avoid):
    out = set()
    r = 1
    while not out and r <= 12:
        for x in range(-r, r + 1):
            for y in range(-r, r + 1):
                v = f.value(x, y)
                if math.gcd(x, y) == 1 and 0 < v <= 4000 and math.gcd(v, avoid) == 1:
                    out.add(v)
        r += 1
    return sorted(out)


def _box_values(f, avoid, r):
    """The values small_values keeps from the box |x|, |y| <= r alone."""
    return {
        v
        for x in range(-r, r + 1)
        for y in range(-r, r + 1)
        for v in [f.value(x, y)]
        if math.gcd(x, y) == 1 and 0 < v <= 4000 and math.gcd(v, avoid) == 1
    }


def test_small_values_ring_scan_matches_box_scan():
    primes = (3, 5, 7, 11, 13, 17, 19, 23)
    deepest = 0
    for D in range(3, 160):
        if D % 4 not in (0, 3):
            continue
        G = ClassGroup(D)
        avoids = [2 * D] + [2 * D * p for p in primes] + [2 * D * math.prod(primes)]
        for c in G.elements:
            for avoid in avoids:
                got = G.small_values(c.rep, avoid)
                assert got == _reference_small_values(c.rep, avoid), (c.rep, avoid)
                if got:
                    r = next(r for r in range(1, 13) if _box_values(c.rep, avoid, r))
                    deepest = max(deepest, r)
    # past r = 1 the ring scan and the box scan read different points, so
    # the comparison must reach there (here it reaches r = 5)
    assert deepest >= 3


def _reference_value_candidates(c1, c2, pairs=2):
    """value_candidates without any cache: a fresh class list and one
    representations call per class and value."""
    D = -c1.disc
    reps = [f.coeffs() for f in enumerate_reduced(D)]
    used, cand = [], None
    for m1 in _reference_small_values(c1.rep, 2 * D):
        for m2 in _reference_small_values(c2.rep, 2 * D * m1):
            got = {t for t in reps if representations(QuadraticForm(*t), m1 * m2)}
            cand = got if cand is None else cand & got
            used.append((m1, m2))
            if len(used) >= pairs:
                return [class_of(QuadraticForm(*t)) for t in sorted(cand)], used
    return [class_of(QuadraticForm(*t)) for t in sorted(cand)], used


def test_value_candidates_match_uncached_reference():
    pairs = 0
    for D in range(3, 151):
        if D % 4 not in (0, 3):
            continue
        els = [class_of(f) for f in enumerate_reduced(D)]
        for c1 in els:
            for c2 in els:
                assert value_candidates(c1, c2) == _reference_value_candidates(c1, c2)
                pairs += 1
    assert pairs > 1000


def test_value_candidates_survive_cache_replacement():
    def answers(D):
        els = class_group(D).elements
        return [value_candidates(c1, c2) for c1 in els for c2 in els]

    first = answers(71)
    G71 = class_group(71)
    other = answers(84)
    assert answers(71) == first
    assert class_group(71) is not G71  # the one slot held D = 84 in between
    assert answers(84) == other


def test_compose_oracle_raises_on_corrupted_candidates():
    G = class_group(71)
    c1, c2 = G.elements[1], G.elements[2]
    compose_oracle(c1, c2)
    _, used = value_candidates(c1, c2)
    prod = G.compose(c1, c2)
    wrong = next(c for c in G.elements if c not in (prod, inverse(prod)))
    try:
        for m1, m2 in used:
            G._represented[m1 * m2] = frozenset({wrong.rep.coeffs()})
        with pytest.raises(AssertionError):
            compose_oracle(c1, c2)
    finally:
        class_group.cache_clear()


_J0_FORMS = brute_quartics_both_signs(3)
_SHEARS = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.booleans()), max_size=4
)


@settings(max_examples=60, deadline=2000, database=None)
@given(st.sampled_from(_J0_FORMS), _SHEARS)
def test_orbit_key_gl2_invariant_property(F, steps):
    # upper and lower shears generate SL2(Z); diag(1, -1) adds GL2(Z)
    T = IDENTITY
    for k, l, flip in steps:
        T = T.mul(Unimodular(1, k, 0, 1)).mul(Unimodular(1, 0, l, 1))
        if flip:
            T = T.mul(Unimodular(1, 0, 0, -1))
    assert orbit_key(act_quartic(F, T)) == orbit_key(F)
