"""Named verification suites exercising every pipeline end to end.

Each suite returns a SuiteResult with hard failures (violations of exact
contracts) separated from findings (documented deviations of literature
formulas from the computed ground truth, reported but non-fatal).

Suites:
  parametrization     family identities, lattice determinants, reduced enumeration
  classgroup          group laws, value oracle, reducible class counts; every
                      ordered pair of classes of a window of consecutive D
                      composed and checked in one integer-row pass
  hensel              nu = w^4, w-distinctness, lift class walk, integrality
  reducibility        classification, cofactor identities, square curve
  oracle-equivalence  brute-force orbit counts vs family counts (binding)
  constants           class number sums, uniqueness, asymptotic trends
  identities          randomized exact identities of invariants, families and pairs
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

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
    for reps in classes.reduced_forms_by_disc(3, dmax + 1).values():
        for f in reps:
            for A, B in _box_points(families.lattice_Lfa(f), coeff_box):
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
    _check_reduced_enumeration(res, dmax)
    return res


def _box_points(L, box: int):
    """Every point (A, B) of the lattice L with |A|, |B| <= box, (0, 0)
    included, row by row: A ascending, then B ascending."""
    for s in range(-(box // L.d1), box // L.d1 + 1):
        r = L.k * s  # B = r (mod d2) on the row A = d1 s
        for B in range(-box + (r + box) % L.d2, box + 1, L.d2):
            yield L.d1 * s, B


def _ellipse_points_rowscan(f: forms.QuadraticForm, ibound: int) -> list[tuple[int, int]]:
    """Reference for `counting.ellipse_points`: the HNF row scan.

    Rows A run over multiples of d1 with 12 D^2 A^2 <= a K, K = 4 a^3 ibound;
    in each row B runs over the residue class k (A / d1) mod d2 inside the
    exact interval of 3 D q(A, B) <= K, q = a B^2 - 4b AB + 16c A^2.
    """
    a, b, c = f.coeffs()
    D = -f.disc()
    assert D > 0 and a > 0
    L = families.lattice_Lfa(f)
    K = 4 * a**3 * ibound
    Amax = math.isqrt(a * K // (12 * D * D))
    d1, k, d2 = L.d1, L.k, L.d2
    out = []
    for A in range(-(Amax // d1) * d1, Amax + 1, d1):
        discB = 12 * D * a * K - 144 * D**3 * A * A
        if discB < 0:
            continue
        s = math.isqrt(discB)
        den = 6 * D * a
        lo = -((s - 12 * D * b * A) // den)  # ceil((12DbA - s)/den)
        hi = (12 * D * b * A + s) // den
        r = (k * (A // d1)) % d2
        for B in range(lo + ((r - lo) % d2), hi + 1, d2):
            q = a * B * B - 4 * b * A * B + 16 * c * A * A
            if (A, B) != (0, 0) and 3 * D * q <= K:
                out.append((A, B))
    return out


def _check_reduced_enumeration(res: SuiteResult, dmax: int) -> None:
    """`counting.ellipse_points` (reduced coordinates, one point of each
    pair {P, -P}) with its negations against the row scan, the Gram
    identity Q = lam g behind it, the closed-form diagonal
    `families.lattice_diagonal` and the determinant against
    `families.lattice_Lfa`, and the odd-D skip of
    `counting._admissible_discs`, on every GL2 family with D <= dmax.

    `counting.frame_block` runs once on the GL2 reps of each D without a
    bound, where its frames are checked against `lattice_Lfa`, `transport`
    and `gauss_reduce`, and once at each bound Z, where its axis rule and
    ga skip are checked against the row scan and its kept frames against
    the ones without a bound.  At Z = 3D the one-row `counting.axis_pairs`
    of the last rep must equal its row of the block.  The bounds Z in
    {D, 2D, 3D} reach the even D above Z/3."""
    for D, reduced in classes.reduced_forms_by_disc(3, dmax + 1).items():
        odd = D % 2 == 1
        if odd:
            res.checks += 1
            admitted = (D in counting._admissible_discs(Z) for Z in (12 * D - 1, 12 * D))
            if tuple(admitted) != (False, True):
                res.fail(f"odd D={D} is not admitted exactly from Z = 12D")
        reps = [f for f in reduced if f.b >= 0]
        rows = [f.coeffs() for f in reps]
        frames = counting.frame_block(rows).frames
        for f, frame in zip(reps, frames):
            a, b, c = f.coeffs()
            L = families.lattice_Lfa(f)
            res.checks += 1
            diagonal = families.lattice_diagonal(a, b, c)
            if diagonal != (L.d1, L.d2) or L.index != (4 if odd else 1) * a**3:
                res.fail(f"closed-form diagonal {diagonal} or index {L.index} of {f} is wrong for {L}")

            def q(A, B):
                return a * B * B - 4 * b * A * B + 16 * c * A * A

            v1, v2 = (L.d1, L.k), (0, L.d2)
            Q = (q(*v1), q(v1[0] + v2[0], v1[1] + v2[1]) - q(*v1) - q(*v2), q(*v2))
            lam = 16 * a**3 if odd else a**3
            res.checks += 1
            if any(x % lam for x in Q):
                res.fail(f"Gram form {Q} of {f} is not divisible by {lam}")
                continue
            g = forms.QuadraticForm(*(x // lam for x in Q))
            if g.disc() != (-D if odd else -16 * D):
                res.fail(f"disc of the family Gram form {g} of {f} is {g.disc()}")
            triple, _, _, gram, transform = frame
            res.checks += 1
            reduced = classes.gauss_reduce(*L.transport((16 * c, -4 * b, a), lam))
            if triple != (L.d1, L.k, L.d2):
                res.fail(f"frame triple {triple} of {f} is not lattice_Lfa's {L}")
            elif (gram, transform) != reduced:
                res.fail(f"frame Gram form of {f} is not the reduced transport {reduced}")
        for Z in (D // 2, D, 2 * D, 3 * D, 12 * D - 1, 12 * D, 100 * D, 400 * D):
            block = counting.frame_block(rows, Z)
            kept = dict(zip(block.kept, block.frames))
            if Z == 3 * D:
                res.checks += 1
                if counting.axis_pairs(reps[-1], Z) != (None if block.axis[-1] < 0 else block.axis[-1]):
                    res.fail(f"the one-row axis rule of {reps[-1]} differs from its block row at Z={Z}")
            for i, (f, frame) in enumerate(zip(reps, frames)):
                res.checks += 1
                want = _ellipse_points_rowscan(f, Z)
                axis = block.axis[i]
                if axis >= 0 and (i in kept or any(A for A, _ in want) or len(want) != 2 * axis):
                    res.fail(f"axis rule gives {axis} pairs on A = 0: f={f}, Z={Z}, {want}")
                if counting.with_negations(counting.ellipse_points(frame, Z)) != want:
                    res.fail(f"ellipse_points differs from the row scan: f={f}, Z={Z}")
                if axis < 0 and (i in kept) != bool(want):
                    res.fail(f"the block's skip is not exact: f={f}, Z={Z}, {len(want)} points")
                if kept.get(i, frame) != frame:
                    res.fail(f"the block keeps another frame of {f} at Z={Z}")
                if odd and Z < 12 * D and want:
                    res.fail(f"odd D={D} has points at Z={Z} < 12D: f={f}")


# ---------------------------------------------------------------------------
# classgroup
# ---------------------------------------------------------------------------


# The ordered pairs of classes `suite_classgroup` composes and checks per
# numpy pass, a window of consecutive D at a time (at least one D).  At
# dmax = 500 one pass over all 13928 pairs raised the process's peak memory
# by about 12 MB over the scalar suite's; 2048 pairs (8 windows) keep it
# within about 1.3 MB and spread numpy's per-call cost over enough pairs
# that 1024 ran no faster.
WINDOW_PAIRS = 2048


def _windows(rows):
    """The windows of consecutive D of the `enumerate_reduced` rows, as
    lists of the (lo, hi) row range of each D: each holds about
    WINDOW_PAIRS ordered pairs of classes of equal D, and at least one D."""
    first = np.flatnonzero(np.diff(rows[:, 0], prepend=-1)).tolist() + [len(rows)]
    window, pairs = [], 0
    for lo, hi in zip(first, first[1:]):
        if window and pairs + (hi - lo) ** 2 > WINDOW_PAIRS:
            yield window
            window, pairs = [], 0
        window.append((lo, hi))
        pairs += (hi - lo) ** 2
    if window:
        yield window


def _row_index(rows, D, f):
    """The index of the row (D[i], *f[i]) among `rows`, -1 where none: a
    reduced form of discriminant -D is fixed by (D, a, b), which keys the
    search, and the found row is compared whole."""
    w = math.isqrt(int(rows[:, 0].max()) // 3) + 1  # above every reduced |b| <= a
    scale = np.array([w * (2 * w + 1), 2 * w + 1, 1])
    keys = rows[:, :3] @ scale
    order = np.argsort(keys)
    at = np.searchsorted(keys[order], np.column_stack((D, f[:, :2])) @ scale)
    at = order[at.clip(max=len(rows) - 1)]
    found = (rows[at, 0] == D) & (rows[at, 1:] == f).all(axis=1)
    return np.where(found, at, -1)


def suite_classgroup(
    dmax: int = 2000, phimax: int = 1000, rednf_trials: int = 20, seed: int = 20260809
) -> SuiteResult:
    """Group laws, the value oracle and reducible class counts.

    The reduced forms of 3 <= D <= dmax come from one `enumerate_reduced`
    call, and each window of consecutive D (`_windows`) has every ordered
    pair (i, j) of classes of equal D composed by `classes.compose_rows`
    and checked by `oracle.value_candidates`/`compose_oracle` in one pass.
    T[i, j] is the index of class i * class j among the D's classes, -1
    outside the group; the laws are checked on T per D."""
    res = SuiteResult("classgroup")
    rng = random.Random(seed)
    rows = classes.enumerate_reduced(3, dmax + 1)
    for runs in _windows(rows):
        start = runs[0][0]
        win = rows[start : runs[-1][1]]
        i, j = classes.class_pairs(win)
        D, f1, f2 = win[i, 0], win[i, 1:], win[j, 1:]
        f3 = classes.compose_rows(f1, f2)
        index = _row_index(win, D, f3)
        used = oracle.value_candidates(D, f1, f2)
        disagree = ~((index >= 0) & oracle.compose_oracle(D, f3, used))
        pair = 0
        for lo, hi in runs:
            h, d, reps = hi - lo, int(rows[lo, 0]), rows[lo:hi, 1:].tolist()
            table = index[pair : pair + h * h].reshape(h, h)
            _check_class_table(res, d, reps, np.where(table >= 0, table - (lo - start), -1))
            for p in np.flatnonzero(disagree[pair : pair + h * h]) + pair:
                _oracle_failure(res, d, reps, f3[p], used[p])
            res.checks += h * h
            pair += h * h
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


def _check_class_table(res: SuiteResult, D: int, reps: list, T: np.ndarray) -> None:
    """The group laws of the classes `reps` of -D on their composition
    table T (-1 outside the group): identity and inverse laws per class,
    associativity as one comparison T[T[i, j], k] == T[i, T[j, k]], and
    ambiguity <-> order <= 2."""
    els = [classes.FormClass(forms.QuadraticForm(*f), -D) for f in reps]
    key = {f: i for i, f in enumerate(map(tuple, reps))}
    e = key.get(classes.principal_class(-D).rep.coeffs(), -1)
    if e < 0:
        res.fail(f"principal class missing for D={D}")
    res.checks += len(els) ** 2
    rows = T.tolist()
    if (T < 0).any():
        res.fail(f"composition leaves the group at D={D}")
    elif e >= 0:
        for i, c in enumerate(els):
            if rows[e][i] != i:
                res.fail(f"identity law fails at D={D}, {c.rep}")
            if rows[i][key[classes.inverse(c).rep.coeffs()]] != e:
                res.fail(f"inverse law fails at D={D}, {c.rep}")
        for _ in range(int((T[T] != T[:, T]).any(axis=2).sum())):
            res.fail(f"associativity fails at D={D}")
    for i, c in enumerate(els):
        res.checks += 1
        if classes.is_ambiguous(c) != (rows[i][i] == e):
            res.fail(f"ambiguity mismatch at D={D}, {c.rep}")


def _oracle_failure(res: SuiteResult, D: int, reps: list, f, used) -> None:
    """The failure of a composite f that `oracle.compose_oracle` rejects,
    with the classes that do represent every product of `used`."""
    ms = [(m1, m2) for m1, m2 in used.tolist() if m1]
    cands = sorted(
        tuple(g) for g in reps
        if all(classes.represents(forms.QuadraticForm(*g), m1 * m2) for m1, m2 in ms)
    )
    res.fail(
        f"compose oracle disagrees at D={D}: composition "
        f"{forms.QuadraticForm(*f.tolist())} not among value candidates {cands} (pairs {ms})"
    )


# ---------------------------------------------------------------------------
# hensel
# ---------------------------------------------------------------------------


def suite_hensel(
    dmax_classes: int = 500, pmax: int = 50, dmax_integrality: int = 200
) -> SuiteResult:
    res = SuiteResult("hensel")
    for D, reps in classes.reduced_forms_by_disc(3, dmax_classes + 1).items():
        ws = {}  # reduced w(f) of the GL2 representatives f (b >= 0)
        for f in reps:
            # nu = w^4 (up to the GL2 inverse identification of the class)
            res.checks += 1
            c = hensel.canonical_fp(f)
            nu = hensel.nu_of(f, c)
            wred, _ = classes.reduce_form(hensel.w_of(f, c))
            w = classes.class_of(wred)
            w2 = classes.compose(w, w)
            w4 = classes.compose(w2, w2)
            if nu not in (w4, classes.inverse(w4)):
                res.fail(f"nu != w^4 for {f}: {nu.rep} vs {w4.rep}")
            if f.b >= 0:
                ws[f.coeffs()] = (wred.a, abs(wred.b), wred.c)
        res.checks += 1
        if len(set(ws.values())) != len(ws):
            res.fail(f"w(f) collides across GL2 classes at D={D}: {ws}")
        # lift class walk
        for f in reps:
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
    for reps in classes.reduced_forms_by_disc(3, dmax_integrality + 1).values():
        for f in reps:
            c = hensel.canonical_fp(f)
            g = c.form()
            for A, B in _box_points(families.lattice_Lfa(g), 50):
                if (A, B) == (0, 0):
                    continue
                res.checks += 1
                sI = Fraction(*families.family_invariant(families.FamilyPoint(g, A, B))[1])
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
    dmax: int = 100,
    coeff_box: int = 30,
    seed: int = 20260809,
    certificate_x: int = 10**9,
    sympy_samples: int = 300,
) -> SuiteResult:
    """Also checks the irreducibility fast paths against slow ones: the mod-p
    certificate, the square split and the counting kernel's decision
    against full factorization on every family point of N(X) and M(X) for
    X = certificate_x, `forms.irreducible_rows` against the scalar
    decisions on those points within its coefficient bound and on every
    J = 0 form of height at most 12, and `is_irreducible_Q` against
    `sympy.factor_list` on a seeded sample of sympy_samples of those forms
    (this check needs sympy, from the dev extra)."""
    res = SuiteResult("reducibility")
    rng = random.Random(seed)
    type1 = type2 = 0
    for reps in classes.reduced_forms_by_disc(3, dmax + 1).values():
        for f in reps:
            for A, B in _box_points(families.lattice_Lfa(f), coeff_box):
                if (A, B) == (0, 0):
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
            v = families.jacobian(f, u)  # the forced cofactor of u in Type 2
            if not v.is_zero() and u.is_primitive():
                xi = v.content()
                res.checks += 1
                if math.gcd(abs(f.disc()), abs(u.disc())) % xi != 0:
                    res.fail(f"cofactor content {xi} beyond gcd of discs: {f}, {u}")
                if reducible.in_lambda(u, f) != reducible.in_lambda(f, u):
                    # membership symmetry in the two lattices
                    res.fail(f"Lambda symmetry fails: {f}, {u}")
    # square curve vs I-square family members
    X = 10**9
    Z = counting.DISC_POLICY.ibound(X)
    for D, reps in classes.reduced_forms_by_disc(3, 60).items():
        for f, family in zip(reps, counting.family_point_sets(reps, Z)):
            s, t = reducible.square_part_split(D)
            m_odd = hensel.canonical_fp(f).m % 2 == 1
            fam_sq = set()
            for (A, B) in family:
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
    for D, reps in classes.reduced_forms_by_disc(3, 500).items():
        for f in reps:
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
    _check_irreducibility_certificate(res, certificate_x)
    _check_box_irreducibility(res, rng, sympy_samples)
    return res


def _check_rows(res: SuiteResult, label: str, coeffs: list, want: list) -> None:
    """`forms.irreducible_rows` on the coefficient rows `coeffs` against the
    per-form decisions `want`, with the rows checked as a stat."""
    got = forms.irreducible_rows(coeffs).tolist()
    res.checks += len(coeffs)
    res.stats[f"irreducible_rows_{label}"] = len(coeffs)
    for row, g, w in zip(coeffs, got, want):
        if g != w:
            res.fail(f"irreducible_rows decides {row} {g}, the slow path {w}")


def _check_irreducibility_certificate(res: SuiteResult, X: int) -> None:
    """The fast paths against full factorization on every family point of
    N(X) and M(X): a certified point must not factor, `families.square_split`
    must not split an irreducible point, `counting.decide_member` (the
    kernel's decision; A = 0 points are reducible) must agree, and no
    reducible point with a4 a0 != 0 and a non-square disc(F) may escape the
    split (the cover statement at `decide_member`).  Records per slice the
    share of irreducible points the certificate settles, the points the
    split settles, those missed points, and the points by kernel branch.
    It also checks the lemma at `count_family` on every point P: a fiber
    map that sends P to -P makes F reducible.  It records the points that
    some fiber map sends to -P.  `forms.irreducible_rows` must agree with
    full factorization on the points whose coefficients lie within its
    bound.  Every N point of a D above the cut-off (odd D > Z/24, even
    D > 4Z/51) must lie on A = 0 or be split by `families.square_split`,
    so no such D holds an irreducible point; those points are recorded.

    Per family it also checks `counting.count_family`, which decides one
    point of each pair {P, -P} and keys the orbits of irreducible pairs
    under the fiber action and negation together, against these per-point
    decisions: its points, irreducible points and points by branch must
    equal the tallies taken here point by point, and its orbits and
    `max_coeff` those of the plain reference, which canonicalizes every
    irreducible point and keeps the least max |coefficient| per canonical
    point."""
    Z = counting.DISC_POLICY.ibound(X)
    for kind in ("N", "M"):
        points = irreducible = settled = split = missed = negated = beyond = 0
        decided = dict.fromkeys(counting.BRANCHES, 0)
        rows, fulls = [], []
        for u in counting.count_units(kind, Z):
            disc, fams = counting.unit_families(kind, u)
            past_cutoff = kind == "N" and (24 * disc > Z if disc % 2 else 51 * disc > 4 * Z)
            for f, family in zip(fams, counting.family_point_sets(fams, Z)):
                pairs = list(family)
                pts = counting.with_negations(pairs)
                fam_irreducible = 0
                fam_decided = dict.fromkeys(counting.BRANCHES, 0)
                action = None
                height = {}  # canonical point -> least max |coefficient|
                for (A, B) in pts:
                    F = forms.QuarticForm(*families.family_coefficients(f, A, B))
                    p = forms.irreducible_mod_p(F)
                    full = forms.quartic_factorization(F).is_irreducible()
                    points += 1
                    fam_irreducible += full
                    settled += full and p is not None
                    if p is not None and not full:
                        res.fail(f"certificate mod {p} on the reducible {F}")
                    if max(map(abs, F.coeffs())) <= forms.MAX_BRUTE_HEIGHT:
                        rows.append(F.coeffs())
                        fulls.append(full)
                    branch, kernel = (
                        counting.decide_member(f, A, B, F.coeffs()) if A else ("zero_a", False)
                    )
                    fam_decided[branch] += 1
                    if kernel != full:
                        res.fail(f"the kernel's {branch} branch decides {F} wrongly")
                    action = action or families.fiber_action(f)
                    orbit = action.orbit(A, B)
                    if (-A, -B) in orbit:
                        negated += 1
                        if full:
                            res.fail(
                                f"a fiber map of f={f} sends the irreducible point "
                                f"({A},{B}) to its negation"
                            )
                    if full:
                        c = orbit[0]  # action.canonical(A, B)
                        h = max(map(abs, F.coeffs()))
                        height[c] = min(height.get(c, h), h)
                    is_split = families.square_split(f, A, B, F) is not None
                    if past_cutoff:
                        beyond += 1
                        if A and not is_split:
                            res.fail(
                                f"the point ({A},{B}) of f={f} at D={disc}, above the "
                                "cut-off, is neither on A = 0 nor split"
                            )
                    if is_split:
                        split += 1
                        if full:
                            res.fail(f"square split on the irreducible {F}")
                    elif (
                        not full
                        and F.a4 * F.a0
                        and forms._exact_sqrt(forms.invariants(F).disc) is None
                    ):
                        missed += 1
                        res.fail(
                            f"the square split misses the reducible {F}, whose "
                            "disc(F) is not a square"
                        )
                fc = counting.count_family(f, pairs)
                got = (fc.points, fc.irreducible_points, fc.decided, fc.irreducible_orbits, fc.max_coeff)
                want = (
                    len(pts),
                    fam_irreducible,
                    {b: n for b, n in fam_decided.items() if n},
                    len(height),
                    max(height.values(), default=0),
                )
                res.checks += 1
                if got != want:
                    res.fail(
                        f"count_family's tallies for f={f} differ from the per-point "
                        f"ones: {got} against {want}"
                    )
                irreducible += fam_irreducible
                for branch, n in fam_decided.items():
                    decided[branch] += n
        res.checks += points
        res.stats[f"certificate_{kind}_points"] = points
        res.stats[f"certificate_{kind}_irreducible"] = irreducible
        res.stats[f"certificate_{kind}_settled"] = settled
        res.stats[f"square_split_{kind}"] = split
        res.stats[f"type2_missed_{kind}"] = missed
        res.stats[f"negation_in_orbit_{kind}"] = negated
        for branch, n in decided.items():
            res.stats[f"kernel_{kind}_{branch}"] = n
        if kind == "N":
            res.stats["cutoff_N_points"] = beyond
        _check_rows(res, kind, rows, fulls)


def _check_box_irreducibility(res: SuiteResult, rng: random.Random, samples: int) -> None:
    """On the J = 0 box of height 12, one form of each pair {F, -F}, which
    factor alike: `forms.irreducible_rows` against `is_irreducible_Q` on
    every form, and `is_irreducible_Q` against `sympy.factor_list` on a
    seeded sample of `samples` forms."""
    box = list(oracle.brute_quartics(12))
    _check_rows(res, "box", [F.coeffs() for F in box], [forms.is_irreducible_Q(F) for F in box])
    if samples <= 0:
        return
    try:
        import sympy
    except ImportError:
        res.fail("sympy.factor_list oracle unavailable: install the dev extra")
        return

    x, y = sympy.symbols("x y")
    for F in rng.sample(box, min(samples, len(box))):
        poly = sum(c * x ** (4 - i) * y**i for i, c in enumerate(F.coeffs()))
        _, factors = sympy.factor_list(poly)
        res.checks += 1
        if forms.is_irreducible_Q(F) != (len(factors) == 1 and factors[0][1] == 1):
            res.fail(f"is_irreducible_Q disagrees with sympy.factor_list on {F}")


def _odd_squarefree_unit_divisors(D: int) -> list[int]:
    """The divisors m > 1 of D that are products of odd primes dividing D
    exactly once, ascending."""
    out = [1]
    for p, e in forms.prime_factorization(D):
        if p > 2 and e == 1:
            out += [m * p for m in out]
    return sorted(out)[1:]


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
        rep = oracle.orbit_count_bruteforce(X)
        nN = rep.n_report.irreducible_orbits
        nM = rep.m_report.irreducible_orbits
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
    # size dividing n_f (equality reported as a finding when violated).  F
    # and -F share the fiber size and n_f, so each pair is keyed once, on
    # the member that brute_quartics yields.
    seen = 0
    fiber_equal = fiber_divides = 0
    for F in oracle.brute_quartics(completeness_height):
        seen += 2
        key = oracle.orbit_key(F)  # asserts family membership internally
        if key.slice == "indefinite":
            continue
        neg, size, n_f = oracle.negated_key(key)
        res.checks += 2
        if n_f % size != 0:
            for k in (key, neg):
                res.fail(f"fiber size {size} does not divide n_f={n_f} at {k}")
        if size == n_f:
            fiber_equal += 2
        else:
            fiber_divides += 2
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
        # the closed-form act_quartic against F(T(x, y)) at five pairwise
        # non-proportional points, which fix a binary quartic
        res.checks += 1
        G = forms.act_quartic(F, T)
        for x, y in _FIVE_POINTS:
            if G.value(x, y) != F.value(T.t1 * x + T.t2 * y, T.t3 * x + T.t4 * y):
                res.fail(f"act_quartic({F}, {T.entries()}) differs from F(T(x, y)) at ({x}, {y})")
                break
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
        if Fraction(forms.invariants(F).I) != Fraction(*families.outer_I(h2, h1, u, v)):
            res.fail(f"outer I mismatch for {u}, {v}, ({h2},{h1},{h0})")
        done += 1
    # the one-cycle indefinite class key against the least reduced form over
    # the cycles of f, (a, -b, c), -f and (-a, b, -c), each walked on its own
    done = 0
    while done < trials // 10:
        f = forms.QuadraticForm(*(rng.randint(-30, 30) for _ in range(3)))
        D = f.disc()
        if D <= 0 or math.isqrt(D) ** 2 == D:
            continue
        a, b, c = f.coeffs()
        variants = ((a, b, c), (a, -b, c), (-a, -b, -c), (-a, b, -c))
        want = min(
            min(h.coeffs() for h in classes.indefinite_cycle(forms.QuadraticForm(*g)))
            for g in variants
        )
        res.checks += 1
        if classes.indefinite_class_key(f) != want:
            res.fail(f"indefinite_class_key({f}) is not the least over the four variant cycles")
        done += 1
    return res


_FIVE_POINTS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2))


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
