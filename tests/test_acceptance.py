"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each test prints a single PASS/FAIL line for its criterion.  Findings
(documented deviations of literature formulas from computed ground truth,
anticipated by the build's open questions) are printed but only fail a
criterion where its contract makes them binding.
"""

import math

from jzero import classes, counting, forms, oracle, verify
from reference import brute_quartics_both_signs

PRINTED = []


def report(num: int, passed: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if passed else 'FAIL'} - {detail}"
    PRINTED.append(line)
    print(line)


# -- 1: binding oracle equivalence -----------------------------------------


def test_criterion_1_oracle_equivalence():
    ok = True
    details = []
    for X in (2000, 10000, 20000):
        rep = oracle.orbit_count_bruteforce(X)
        nN = counting.count_N(X).irreducible_orbits
        nM = counting.count_M(X).irreducible_orbits
        match = rep.n_orbits == nN and rep.m_orbits == nM
        ok &= match and rep.height >= rep.required_height
        details.append(
            f"X={X}: N {rep.n_orbits}={nN}, M {rep.m_orbits}={nM}, box h={rep.height}"
        )
    report(1, ok, "; ".join(details))
    assert ok


# -- 2: parametrization suite ----------------------------------------------


def test_criterion_2_parametrization():
    res = verify.suite_parametrization(dmax=300, coeff_box=40)
    report(2, res.passed, f"{res.checks} identities checked, {len(res.failures)} failures")
    assert res.passed, res.failures[:5]


# -- 3: completeness of the family cover -----------------------------------


def test_criterion_3_completeness():
    seen = 0
    fiber_equal = fiber_proper = 0
    hard_failures = []
    for F in brute_quartics_both_signs(25):
        seen += 1
        key = oracle.orbit_key(F)  # unique family assignment asserted inside
        if key.slice == "indefinite":
            continue
        g = forms.QuadraticForm(*key.divisor)
        action = oracle.divisor(g).action
        size = action.orbit_size(*key.point)
        n_f = classes.cover_multiplicity(classes.class_of(g))
        if n_f % size != 0:
            hard_failures.append(f"fiber {size} does not divide n_f={n_f} at {key}")
        if size == n_f:
            fiber_equal += 1
        else:
            fiber_proper += 1
    passed = not hard_failures and seen > 10**4
    detail = (
        f"{seen} box forms all assigned to exactly one family; fiber size = n_f for "
        f"{fiber_equal}, a proper divisor for {fiber_proper} (documented finding: "
        "the uniform-cover claim fails on symmetric points and on reducible-"
        "divisor label collapse; every fiber divides n_f and exact counts use "
        "discovered fibers)"
    )
    report(3, passed, detail)
    assert passed, hard_failures[:5]


# -- 4: lattice determinants ------------------------------------------------


def test_criterion_4_lattice_determinants():
    from jzero.families import lattice_det

    checks = 0
    failures = []
    for a in range(1, 21):
        for b in range(-20, 21):
            for c in range(1, 41):
                f = forms.QuadraticForm(a, b, c)
                if f.disc() == 0 or not f.is_primitive():
                    continue
                checks += 1
                try:
                    lattice_det(f)
                except AssertionError as e:
                    failures.append(str(e))
    report(4, not failures, f"{checks} determinants match the closed form")
    assert not failures, failures[:3]


# -- 5: class group laws, value oracle, nu = w^4, w distinctness -------------


def test_criterion_5_class_groups():
    res = verify.suite_classgroup(dmax=2000, phimax=1000, rednf_trials=0)
    ok = res.passed
    # nu = w^4 and w-distinctness live in the hensel suite over D <= 500
    res2 = verify.suite_hensel(dmax_classes=500, pmax=0, dmax_integrality=0)
    ok &= res2.passed
    report(
        5,
        ok,
        f"group laws/oracle: {res.checks} checks; nu=w^4 and w-distinctness: "
        f"{res2.checks} checks",
    )
    assert ok, (res.failures[:3], res2.failures[:3])


# -- 6: Hensel lift class walk ----------------------------------------------


def test_criterion_6_hensel_class_walk():
    res = verify.suite_hensel(dmax_classes=500, pmax=50, dmax_integrality=200)
    vacuous = sum(1 for f in res.findings if "vacuous" in f)
    report(
        6,
        res.passed,
        f"{res.checks} checks (class walks for p <= 50, k <= 3, D <= 500; "
        f"{vacuous} vacuous by missing exponent, flagged); script-I "
        "quarter-integrality on even-m classes recorded as a finding",
    )
    assert res.passed, res.failures[:5]


# -- 7: Mertens-type class number sum ----------------------------------------


def test_criterion_7_class_number_sum():
    rep = classes.class_number_sum_report(10**5)
    ok = abs(rep.ratio - 1) <= 0.06
    report(
        7,
        ok,
        f"sum h2(-D) D<=1e5 = {rep.total}, ratio {rep.ratio:.4f} (tolerance 6%); "
        f"4|D ratio {rep.ratio_4mid:.4f}"
        + (" FLAGGED outside [0.8, 1.2]" if rep.flagged_4mid else " within [0.8, 1.2]"),
    )
    assert ok


# -- 8: reducible class representatives and hyperbola identity ---------------


def test_criterion_8_reducible_classes():
    import random

    failures = []
    for n in range(1, 1001):
        phi = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
        expected = phi if n > 1 else 0
        if len(classes.reducible_class_reps(n)) != expected:
            failures.append(n)
    rng = random.Random(20260809)
    for _ in range(20):
        beta = rng.randint(1, 12)
        alpha = rng.choice([a for a in range(1, 12) if math.gcd(a, beta) == 1])
        X = rng.randint(10**3, 10**9)
        rep = counting.red_Nf_compare(alpha, beta, X)
        if not rep.identity_holds:
            failures.append((alpha, beta, X))
    report(8, not failures, "phi(n) counts for n <= 1000 and 20 exact decompositions")
    assert not failures, failures[:5]


# -- 9: at most one primitive point for large D -------------------------------


def test_criterion_9_primitive_uniqueness():
    rep = counting.primitive_uniqueness_check(10**6)
    report(
        9,
        rep.passed,
        f"{rep.checked_forms} forms with D > 1e6^(2/9); {len(rep.violations)} violations",
    )
    assert rep.passed, rep.violations[:3]


# -- 10: asymptotic trends (informative) and per-class adjudication ----------


def test_criterion_10_asymptotic_trends():
    ladder = [10**6, 10**8, 10**10, 10**12]
    nrep = counting.ladder_report("N", ladder)
    mrep = counting.ladder_report("M", ladder)
    audits = counting.per_class_error_audit(
        [
            forms.QuadraticForm(1, 0, 1),
            forms.QuadraticForm(1, 1, 1),
            forms.QuadraticForm(1, 1, 2),
            forms.QuadraticForm(2, 1, 3),
            forms.QuadraticForm(1, 0, 2),
            forms.QuadraticForm(2, 2, 3),
        ],
        [10**8, 10**10, 10**12],
    )
    all_area = all(a.supports == "area/det" for a in audits)
    n_last = nrep.reports[-1].ratio
    m_last = mrep.reports[-1].ratio
    positive = all(r.irreducible_orbits > 0 for r in nrep.reports + mrep.reports)
    # the per-class audit adjudicates the factor of 2: the quoted per-class
    # main term is double the area/determinant value, so the N reference
    # constant is halved when the audit is unanimous
    n_ref_ratio = 2 * n_last if all_area else n_last
    ok = positive and 0.5 <= n_ref_ratio <= 2.0 and 0.5 <= m_last <= 2.0
    report(
        10,
        ok,
        f"N ladder ratios {[round(r.ratio, 4) for r in nrep.reports]} vs stated c1 "
        f"(vs adjudicated c1/2: {round(n_ref_ratio, 4)}); M ladder ratios "
        f"{[round(r.ratio, 4) for r in mrep.reports]}; per-class audit supports "
        f"{'area/det everywhere (quoted main term is 2x)' if all_area else 'mixed'}",
    )
    assert ok


# -- 11: randomized identity suite -------------------------------------------


def test_criterion_11_identities():
    res = verify.suite_identities(trials=10000, seed=20260809)
    report(11, res.passed, f"{res.checks} randomized exact identities")
    assert res.passed, res.failures[:5]
