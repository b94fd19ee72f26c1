"""Named verification suites exercising every pipeline end to end.

Each suite returns a SuiteResult with hard failures (violations of exact
contracts) separated from findings (documented deviations of literature
formulas from the computed ground truth, reported but non-fatal).

Suites:
  parametrization     family identities, lattice determinants
  classgroup          group laws, value oracle, reducible class counts
  hensel              nu = w^4, w-distinctness, lift class walk, integrality
  reducibility        classification, cofactor identities, square curve
  oracle-equivalence  brute-force orbit counts vs family counts (binding)
  constants           class number sums, uniqueness, asymptotic trends
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import classes, counting, families, forms, hensel, oracle, reducible


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    def note(self, msg: str) -> None:
        self.findings.append(msg)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f", {len(self.findings)} findings" if self.findings else ""
        return f"[{status}] {self.name}: {self.checks} checks, {len(self.failures)} failures{extra}"


# ---------------------------------------------------------------------------
# parametrization
# ---------------------------------------------------------------------------


def suite_parametrization(
    dmax: int = 300, coeff_box: int = 40, det_alpha: int = 20
) -> SuiteResult:
    res = SuiteResult("parametrization")
    for D in range(3, dmax + 1):
        if D % 4 not in (0, 3):
            continue
        for f in classes.enumerate_reduced(D):
            L = families.lattice_Lfa(f)
            smax = coeff_box // L.d1 + 1
            tmax = coeff_box + 1
            for s in range(-smax, smax + 1):
                for t in range(-tmax, tmax + 1):
                    A, B = L.point(s, t)
                    if abs(A) > coeff_box or abs(B) > coeff_box:
                        continue
                    pt = families.FamilyPoint(f, A, B)
                    try:
                        F = families.family_member(pt)  # J = 0 and f^2 | H asserted
                    except AssertionError as e:
                        res.fail(f"family identity broke at {pt}: {e}")
                        continue
                    res.checks += 1
                    if families.plane_residual(f, F) != 0:
                        res.fail(f"nonzero plane residual at {pt}")
                    I, _ = families.family_invariant(pt)
                    if forms.invariants(F).I != I:
                        res.fail(f"closed-form I mismatch at {pt}")
                    if (A, B) != (0, 0) and families.member_of(f, F) != pt:
                        res.fail(f"member_of does not invert at {pt}")
    # lattice determinants
    for a in range(1, det_alpha + 1):
        for b in range(-det_alpha, det_alpha + 1):
            for c in range(1, 41):
                f = forms.QuadraticForm(a, b, c)
                if f.disc() == 0 or not f.is_primitive():
                    continue
                res.checks += 1
                try:
                    families.lattice_det(f)  # closed form asserted inside
                except AssertionError as e:
                    res.fail(f"lattice determinant mismatch for {f}: {e}")
    return res


# ---------------------------------------------------------------------------
# classgroup
# ---------------------------------------------------------------------------


def suite_classgroup(
    dmax: int = 2000, phimax: int = 1000, rednf_trials: int = 20, seed: int = 20260809
) -> SuiteResult:
    res = SuiteResult("classgroup")
    rng = random.Random(seed)
    for D in range(3, dmax + 1):
        if D % 4 not in (0, 3):
            continue
        G = classes.ClassGroup(D)
        els = G.elements
        e = G.identity()
        if e not in els:
            res.fail(f"principal class missing for D={D}")
        table = {}
        for c1 in els:
            for c2 in els:
                out = G.compose(c1, c2)
                table[(c1.rep.coeffs(), c2.rep.coeffs())] = out
                res.checks += 1
                if out not in els:
                    res.fail(f"composition leaves the group at D={D}")
        for c in els:
            if table[(e.rep.coeffs(), c.rep.coeffs())] != c:
                res.fail(f"identity law fails at D={D}, {c.rep}")
            if table[(c.rep.coeffs(), classes.inverse(c).rep.coeffs())] != e:
                res.fail(f"inverse law fails at D={D}, {c.rep}")
        for c1 in els:
            for c2 in els:
                for c3 in els:
                    ab = table[(c1.rep.coeffs(), c2.rep.coeffs())]
                    bc = table[(c2.rep.coeffs(), c3.rep.coeffs())]
                    if (
                        table[(ab.rep.coeffs(), c3.rep.coeffs())]
                        != table[(c1.rep.coeffs(), bc.rep.coeffs())]
                    ):
                        res.fail(f"associativity fails at D={D}")
        # ambiguity <-> order <= 2
        for c in els:
            res.checks += 1
            if classes.is_ambiguous(c) != (classes.order(c) <= 2):
                res.fail(f"ambiguity mismatch at D={D}, {c.rep}")
        # value oracle on all pairs
        for c1 in els:
            for c2 in els:
                res.checks += 1
                try:
                    oracle.compose_oracle(c1, c2)
                except AssertionError as exc:
                    res.fail(f"compose oracle disagrees at D={D}: {exc}")
    # reducible class representatives
    for n in range(1, phimax + 1):
        reps = classes.reducible_class_reps(n)
        phi = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
        expected = phi if n > 1 else 0
        res.checks += 1
        if len(reps) != expected:
            res.fail(f"|reps({n})| = {len(reps)} != {expected}")
    # hyperbola decomposition identity
    for _ in range(rednf_trials):
        beta = rng.randint(1, 12)
        alpha = rng.choice([a for a in range(1, 12) if math.gcd(a, beta) == 1])
        X = rng.randint(10**3, 10**8)
        rep = counting.red_Nf_compare(alpha, beta, X)
        res.checks += 1
        if not rep.identity_holds:
            res.fail(
                f"S1+S2-S3 identity fails for ({alpha},{beta},{X}): "
                f"{rep.decomposed} vs {rep.raw_pairs}"
            )
    return res


# ---------------------------------------------------------------------------
# hensel
# ---------------------------------------------------------------------------


def suite_hensel(
    dmax_classes: int = 500, pmax: int = 50, dmax_integrality: int = 200
) -> SuiteResult:
    res = SuiteResult("hensel")
    for D in range(3, dmax_classes + 1):
        if D % 4 not in (0, 3):
            continue
        gl2 = [f for f in classes.enumerate_reduced(D) if f.b >= 0]
        ws = {}
        for f in classes.enumerate_reduced(D):
            # nu = w^4 (up to the GL2 inverse identification of the class)
            res.checks += 1
            nu = hensel.nu_of(f)
            w = classes.class_of(classes.reduce_form(hensel.w_of(f))[0])
            w4 = classes.class_pow(w, 4)
            if nu not in (w4, classes.inverse(w4)):
                res.fail(f"nu != w^4 for {f}: {nu.rep} vs {w4.rep}")
        for f in gl2:
            wred, _ = classes.reduce_form(hensel.w_of(f))
            ws[f.coeffs()] = (wred.a, abs(wred.b), wred.c)
        res.checks += 1
        if len(set(ws.values())) != len(ws):
            res.fail(f"w(f) collides across GL2 classes at D={D}: {ws}")
        # lift class walk
        for f in classes.enumerate_reduced(D):
            for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
                if p > pmax or D % p == 0:
                    continue
                if pow(-D % p, (p - 1) // 2, p) != 1:
                    continue
                res.checks += 1
                out = hensel.hensel_class_check(f, p, 3)
                if not out.passed:
                    res.fail(f"class walk fails for {f}, p={p}: {out.witnesses}")
                elif out.vacuous:
                    res.note(f"vacuous class walk (no exponent s) for {f}, p={p}")
    # integrality of script-I on canonical translates
    quarter = 0
    for D in range(3, dmax_integrality + 1):
        if D % 4 not in (0, 3):
            continue
        for f in classes.enumerate_reduced(D):
            c = hensel.canonical_fp(f)
            g = c.form()
            L = families.lattice_Lfa(g)
            smax = 50 // L.d1 + 1
            tmax = 50 // L.d2 + 2
            for s in range(-smax, smax + 1):
                for t in range(-tmax, tmax + 1):
                    A, B = L.point(s, t)
                    if abs(A) > 50 or abs(B) > 50 or (A, B) == (0, 0):
                        continue
                    res.checks += 1
                    _, sI = families.family_invariant(families.FamilyPoint(g, A, B))
                    if c.m % 2 == 1:
                        if sI.denominator != 1:
                            res.fail(f"script-I not integral for odd-m {g} at ({A},{B})")
                    else:
                        if sI.denominator not in (1, 2, 4):
                            res.fail(f"script-I denominator {sI.denominator} for {g}")
                        if sI.denominator > 1:
                            quarter += 1
    if quarter:
        res.note(
            f"script-I is genuinely quarter-integral at {quarter} even-m points; "
            "the literature integrality claim holds only for odd m"
        )
    return res


# ---------------------------------------------------------------------------
# reducibility
# ---------------------------------------------------------------------------


def suite_reducibility(
    dmax: int = 100, coeff_box: int = 30, seed: int = 20260809
) -> SuiteResult:
    res = SuiteResult("reducibility")
    rng = random.Random(seed)
    type1 = type2 = 0
    for D in range(3, dmax + 1):
        if D % 4 not in (0, 3):
            continue
        for f in classes.enumerate_reduced(D):
            L = families.lattice_Lfa(f)
            for s in range(-(coeff_box // L.d1) - 1, coeff_box // L.d1 + 2):
                for t in range(-coeff_box - 1, coeff_box + 2):
                    A, B = L.point(s, t)
                    if abs(A) > coeff_box or abs(B) > coeff_box or (A, B) == (0, 0):
                        continue
                    F = forms.QuarticForm(*families.family_coefficients(f, A, B))
                    if forms.invariants(F).disc == 0:
                        continue
                    res.checks += 1
                    try:
                        w = reducible.classify(F, f)
                    except AssertionError as e:
                        res.fail(f"classification failed at {f}, ({A},{B}): {e}")
                        continue
                    irr = forms.is_irreducible_Q(F)
                    if (w.kind is reducible.ReducibleKind.IRREDUCIBLE) != irr:
                        res.fail(f"classification disagrees with factorization at {F}")
                    if w.kind is reducible.ReducibleKind.TYPE1:
                        type1 += 1
                    if w.kind is reducible.ReducibleKind.TYPE2:
                        type2 += 1
                    if w.kind in (
                        reducible.ReducibleKind.TYPE1,
                        reducible.ReducibleKind.TYPE2,
                    ) and not w.product_equals(F):
                        res.fail(f"witness product mismatch at {F}")
    res.stats["type1"] = type1
    res.stats["type2"] = type2
    # Lambda(f) closure and Jacobian cofactor identities
    for _ in range(1000):
        f = _random_primitive(rng, definite=True)
        L = reducible.lambda_f(f)
        g2, g1 = L.point(rng.randint(-8, 8), rng.randint(-8, 8))
        try:
            u = reducible.lambda_form(f, g2, g1)
        except ValueError:
            continue
        if u.is_zero():
            continue
        res.checks += 1
        img = reducible.apply_mf(f, u)
        if not reducible._proportional(img, u):
            res.fail(f"Lambda member not involution-stable: {f}, {u}")
        # symmetry u in Lambda(v) <-> v in Lambda(u), content divides gcd
        if u.a != 0 and u.disc() != 0:
            v = reducible.jacobian_cofactor(f, u)
            if not v.is_zero() and u.is_primitive():
                xi = v.content()
                res.checks += 1
                if math.gcd(abs(f.disc()), abs(u.disc())) % xi != 0:
                    res.fail(f"cofactor content {xi} beyond gcd of discs: {f}, {u}")
                if reducible.in_lambda(u, f) != reducible.in_lambda(f, u):
                    # membership symmetry in the two lattices
                    res.fail(f"Lambda symmetry fails: {f}, {u}")
    # square curve vs I-square family members
    for D in range(3, 60):
        if D % 4 not in (0, 3):
            continue
        for f in classes.enumerate_reduced(D):
            X = 10**9
            Z = counting.icbrt(27 * X // 4)
            s, t = reducible.square_part_split(D)
            m_odd = hensel.canonical_fp(f).m % 2 == 1
            fam_sq = set()
            for (A, B) in counting.ellipse_points(f, Z):
                I, _ = families.family_invariant(families.FamilyPoint(f, A, B))
                r = math.isqrt(I)
                if r * r == I:
                    fam_sq.add(I)
            pts = reducible.square_disc_points(f, X)
            if m_odd:
                curve_I = {4 * t * t * p.z * p.z for p in pts}
            else:
                curve_I = {
                    (t * t * p.z * p.z) // 4
                    for p in pts
                    if (t * t * p.z * p.z) % 4 == 0
                }
            res.checks += 1
            if fam_sq != curve_I:
                res.fail(
                    f"square curve mismatch for {f}: family {sorted(fam_sq)[:5]} "
                    f"vs curve {sorted(curve_I)[:5]}"
                )
    # xi_m order observations
    cnt = bad = 0
    for D in range(3, 500):
        if D % 4 not in (0, 3):
            continue
        for f in classes.enumerate_reduced(D):
            for m in _odd_squarefree_unit_divisors(D):
                try:
                    xi = hensel.xi_of(f)
                    xim = hensel.xi_m_of(f, m)
                except ValueError:
                    continue
                cnt += 1
                o1, o2 = classes.order(xi), classes.order(xim)
                if o2 not in (o1, 2 * o1):
                    bad += 1
    res.checks += cnt
    if bad:
        res.note(
            f"xi_m order claim (equal or doubled) fails {bad}/{cnt} times; the "
            "observed failures are halvings, consistent with multiplication by "
            "an ambiguous ramified class"
        )
    res.stats["xi_m_checked"] = cnt
    res.stats["xi_m_order_violations"] = bad
    return res


def _odd_squarefree_unit_divisors(D: int) -> list[int]:
    out = []
    for m in range(3, D + 1, 2):
        if D % m:
            continue
        if any(m % (p * p) == 0 or D % (p * p) == 0 for p in classes._prime_divisors(m)):
            continue
        out.append(m)
    return out


def _random_primitive(rng, definite=False) -> forms.QuadraticForm:
    while True:
        a = rng.randint(1, 9)
        b = rng.randint(-9, 9)
        c = rng.randint(1, 12) if definite else rng.randint(-12, 12)
        f = forms.QuadraticForm(a, b, c)
        if f.disc() == 0 or not f.is_primitive():
            continue
        if definite and f.disc() >= 0:
            continue
        return f


# ---------------------------------------------------------------------------
# oracle equivalence (binding)
# ---------------------------------------------------------------------------


def suite_oracle_equivalence(
    xs: tuple[int, ...] = (2000, 10000, 20000), completeness_height: int = 25
) -> SuiteResult:
    res = SuiteResult("oracle-equivalence")
    for X in xs:
        rep = oracle.orbit_count_bruteforce(X, counting.DISC_POLICY, check_fibers=True)
        nN = counting.count_N(X).irreducible_orbits
        nM = counting.count_M(X).irreducible_orbits
        res.checks += 2
        if rep.n_orbits != nN:
            res.fail(f"X={X}: brute N={rep.n_orbits} != count_N={nN}")
        if rep.m_orbits != nM:
            res.fail(f"X={X}: brute M={rep.m_orbits} != count_M={nM}")
        for msg in rep.fiber_findings:
            res.note(f"X={X}: {msg}")
        res.stats[f"X={X}"] = {
            "N": nN,
            "M": nM,
            "box_height": rep.height,
            "indefinite_divisor_classes": rep.indefinite_orbits,
        }
    # completeness: every box form lands in exactly one family with a fiber
    # size dividing n_f (equality reported as a finding when violated)
    seen = assigned = 0
    fiber_equal = fiber_divides = 0
    for F in oracle.brute_quartics(completeness_height):
        seen += 1
        key = oracle.orbit_key(F)  # asserts family membership internally
        assigned += 1
        if key.slice == "indefinite":
            continue
        g = forms.QuadraticForm(*key.divisor)
        action = oracle._cached_action(g)
        size = action.orbit_size(*key.point)
        n_f = classes.cover_multiplicity(classes.class_of(g, classes.Group.GL2))
        res.checks += 1
        if n_f % size != 0:
            res.fail(f"fiber size {size} does not divide n_f={n_f} at {key}")
        if size == n_f:
            fiber_equal += 1
        else:
            fiber_divides += 1
    res.stats["completeness_forms"] = seen
    res.stats["fiber_equal_nf"] = fiber_equal
    res.stats["fiber_proper_divisor"] = fiber_divides
    if fiber_divides:
        res.note(
            f"{fiber_divides}/{fiber_equal + fiber_divides} orbits have fiber "
            "size a proper divisor of n_f (symmetric points and reducible-"
            "divisor label collapsing); exact counts use discovered fibers"
        )
    return res


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def suite_constants(
    mertens_X: int = 10**5,
    uniqueness_X: int = 10**6,
    ladder: tuple[int, ...] = (10**6, 10**8, 10**10, 10**12),
    audit_ladder: tuple[int, ...] = (10**8, 10**10, 10**12),
) -> SuiteResult:
    res = SuiteResult("constants")
    # Mertens sum
    rep = classes.class_number_sum_report(mertens_X)
    res.checks += 1
    if not (0.94 <= rep.ratio <= 1.06):
        res.fail(f"class number sum ratio {rep.ratio:.4f} outside [0.94, 1.06]")
    res.stats["mertens"] = {
        "total": rep.total,
        "ratio": rep.ratio,
        "ratio_4mid": rep.ratio_4mid,
        "flagged_4mid": rep.flagged_4mid,
    }
    if rep.flagged_4mid:
        res.note(f"4|D class sum ratio {rep.ratio_4mid:.4f} outside [0.8, 1.2]")
    # at most one primitive point for large D
    u = counting.primitive_uniqueness_check(uniqueness_X)
    res.checks += u.checked_forms
    for v in u.violations:
        res.fail(f"primitive uniqueness violated: {v}")
    res.stats["uniqueness_forms"] = u.checked_forms
    # asymptotic trends
    nrep = counting.ladder_report("N", list(ladder))
    mrep = counting.ladder_report("M", list(ladder))
    res.stats["N_ladder"] = [(r.X, r.irreducible_orbits, r.ratio) for r in nrep.reports]
    res.stats["M_ladder"] = [(r.X, r.irreducible_orbits, r.ratio) for r in mrep.reports]
    res.stats["N_fit"] = (nrep.fit_a, nrep.fit_b, counting.C1_STATED)
    res.stats["M_fit"] = (mrep.fit_a, mrep.fit_b, counting.C2_STATED)
    # per-class factor-2 adjudication (decides the reference constant for N)
    panel = [
        forms.QuadraticForm(1, 0, 1),
        forms.QuadraticForm(1, 1, 1),
        forms.QuadraticForm(1, 1, 2),
        forms.QuadraticForm(2, 1, 3),
        forms.QuadraticForm(1, 0, 2),
        forms.QuadraticForm(2, 2, 3),
    ]
    audits = counting.per_class_error_audit(panel, list(audit_ladder))
    res.stats["per_class_supports"] = {str(a.f): a.supports for a in audits}
    res.checks += len(audits)
    all_area = all(a.supports == "area/det" for a in audits)
    res.note(
        "per-class main-term adjudication supports: "
        + ", ".join(f"{a.f}:{a.supports}" for a in audits)
    )
    res.checks += 2
    for kind, rp in (("N", nrep), ("M", mrep)):
        vals = [r.irreducible_orbits for r in rp.reports]
        if any(v <= 0 for v in vals):
            res.fail(f"{kind} ladder contains a non-positive count")
        last = rp.reports[-1].ratio
        in_window = 0.5 <= last <= 2.0
        msg = (
            f"{kind}(X)/(c X^(1/3) log X) = {last:.4f} at X={rp.reports[-1].X} "
            f"({'inside' if in_window else 'outside'} the factor-2 window of "
            "the stated constant)"
        )
        res.note(msg)
        if kind == "N" and not in_window and all_area:
            # the adjudicated per-class term is half the stated one; the
            # trend criterion is informative, so the miss is a finding with
            # the corrected reference attached
            res.note(
                f"against the adjudicated constant c1/2 the ratio is "
                f"{2 * last:.4f}; the stated constant inherits the per-class "
                "factor-2 overcount"
            )
        elif not in_window:
            res.fail(msg)
    return res


# ---------------------------------------------------------------------------
# identity suite (randomized exact identities; criterion 11)
# ---------------------------------------------------------------------------


def suite_identities(trials: int = 10000, seed: int = 20260809) -> SuiteResult:
    res = SuiteResult("identities")
    rng = random.Random(seed)
    for _ in range(trials):
        u = forms.QuadraticForm(*(rng.randint(-30, 30) for _ in range(3)))
        v = forms.QuadraticForm(*(rng.randint(-30, 30) for _ in range(3)))
        res.checks += 1
        try:
            families.invariant_form(u, v)  # disc identity asserted inside
        except AssertionError:
            res.fail(f"disc identity fails for {u}, {v}")
    for _ in range(trials):
        F = forms.QuarticForm(*(rng.randint(-50, 50) for _ in range(5)))
        T = _rand_unimodular(rng)
        res.checks += 1
        if forms.hessian(forms.act_quartic(F, T)) != forms.act_quartic(
            forms.hessian(F), T
        ):
            res.fail(f"Hessian covariance fails for {F}, {T}")
        t0, t1 = forms.invariants(F), forms.invariants(forms.act_quartic(F, T))
        if (t0.I, t0.J, t0.disc) != (t1.I, t1.J, t1.disc):
            res.fail(f"invariants move under {T} for {F}")
    for _ in range(trials):
        # outer action scales the half-Jacobian by det T (equality on SL2)
        u = forms.QuadraticForm(*(rng.randint(-12, 12) for _ in range(3)))
        v = forms.QuadraticForm(*(rng.randint(-12, 12) for _ in range(3)))
        T = _rand_unimodular(rng)
        U = forms.QuadraticForm(
            T.t1 * u.a + T.t2 * v.a, T.t1 * u.b + T.t2 * v.b, T.t1 * u.c + T.t2 * v.c
        )
        V = forms.QuadraticForm(
            T.t3 * u.a + T.t4 * v.a, T.t3 * u.b + T.t4 * v.b, T.t3 * u.c + T.t4 * v.c
        )
        J0, J1 = families.jacobian(u, v), families.jacobian(U, V)
        res.checks += 1
        d = T.det()
        if J1.coeffs() != (d * J0.a, d * J0.b, d * J0.c):
            res.fail(f"outer action does not scale the half-Jacobian by det at {u}, {v}, {T}")
    done = 0
    while done < trials:
        u = forms.QuadraticForm(*(rng.randint(-8, 8) for _ in range(3)))
        v = forms.QuadraticForm(*(rng.randint(-8, 8) for _ in range(3)))
        if v.disc() == 0:
            continue
        h2, h1 = rng.randint(-8, 8), rng.randint(-8, 8)
        try:
            h0 = families.outer_h0(h2, h1, u, v)
        except ValueError:
            continue
        F = families.outer_value(h2, h1, h0, u, v)
        res.checks += 1
        if Fraction(forms.invariants(F).I) != families.outer_I(h2, h1, u, v):
            res.fail(f"outer I mismatch for {u}, {v}, ({h2},{h1},{h0})")
        done += 1
    return res


def _rand_unimodular(rng):
    T = forms.IDENTITY
    for _ in range(rng.randint(1, 5)):
        k = rng.randint(-5, 5)
        T = T.mul(
            forms.Unimodular(1, k, 0, 1)
            if rng.random() < 0.5
            else forms.Unimodular(1, 0, k, 1)
        )
        if rng.random() < 0.3:
            T = T.mul(forms.Unimodular(0, -1, 1, 0))
        if rng.random() < 0.2:
            T = T.mul(forms.Unimodular(1, 0, 0, -1))
    return T


SUITES = {
    "parametrization": suite_parametrization,
    "classgroup": suite_classgroup,
    "hensel": suite_hensel,
    "reducibility": suite_reducibility,
    "oracle-equivalence": suite_oracle_equivalence,
    "constants": suite_constants,
    "identities": suite_identities,
}


def run_suite(name: str, **kwargs) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
