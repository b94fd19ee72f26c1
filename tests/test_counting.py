"""Tests for the exact counting kernels and aggregates."""

import hashlib
import math
import random
from dataclasses import asdict

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jzero import counting
from jzero.classes import enumerate_reduced, gauss_reduce, reduced_forms
from jzero.counting import (
    ABS_I_POLICY,
    DISC_POLICY,
    WINDOW_DISCS,
    _count_discs,
    axis_pairs,
    count_family,
    count_M,
    count_N,
    count_units,
    decide_member,
    ellipse_frame,
    ellipse_points,
    family_points,
    fit_ladder,
    frame_block,
    frame_empty,
    icbrt,
    merged_square_labels,
    per_class_error_audit,
    primitive_uniqueness_check,
    red_Nf_compare,
    square_family_points,
    unit_families,
    with_negations,
    write_count_csv,
)
from jzero.families import (
    FamilyPoint,
    fiber_action,
    family_coefficients,
    family_invariant,
    lattice_Lfa,
    square_split,
)
from jzero.forms import QuadraticForm, QuarticForm, invariants, is_irreducible_Q
from reference import contains, ellipse_points_full_plane, square_family_points_two_signs


def _gl2_reps(D):
    return unit_families("N", D)[1]


def _rows(forms):
    # the (a, b, c) rows that frame_block takes
    return [f.coeffs() for f in forms]


def test_icbrt():
    big = (10**100 + 1) ** 3
    for n in (0, 1, 7, 8, 9, 26, 27, 28, 10**12, 10**12 + 1, 10**400, big - 1, big, big + 1):
        r = icbrt(n)
        assert r**3 <= n < (r + 1) ** 3


def test_policies():
    assert DISC_POLICY.ibound(4) == icbrt(27)
    # 4 I^3 <= 27 X exactly at the cube root
    X = 123456
    Z = DISC_POLICY.ibound(X)
    assert 4 * Z**3 <= 27 * X < 4 * (Z + 1) ** 3
    assert ABS_I_POLICY.ibound(1000) == 1000


def test_branch_split_at_1e9():
    # how the kernel decides its points, and what it counts, on both slices
    n, m = count_N(10**9), count_M(10**9)
    assert n.decided == {"zero_a": 5158, "split": 694, "nonsquare_disc": 888, "factored": 56}
    assert (n.irreducible_orbits, n.raw_points, n.max_coeff) == (452, 6796, 40)
    assert m.decided == {"zero_a": 216, "split": 340, "nonsquare_disc": 5174, "factored": 172}
    assert (m.irreducible_orbits, m.raw_points, m.max_coeff) == (2676, 5902, 1372)


def test_least_reduced_value_decides_empty_families():
    # the count skips a family when its frame's least reduced value ga
    # exceeds the bound; that must be exactly the families with no point
    # (by the row scan), over every GL2 rep of every D <= 4Z/3, admissible
    # or not, and the frame's ga must be the one of the slow path
    from jzero.verify import _ellipse_points_rowscan

    Z = DISC_POLICY.ibound(10**9)
    admissible = set(count_units("N", Z))
    outcomes = {True: 0, False: 0}
    for D in range(3, 4 * Z // 3 + 1):
        reps = unit_families("N", D)[1]
        for f, frame in zip(reps, frame_block(_rows(reps)).frames):
            a, b, c = f.coeffs()
            lam, bound = (16 * a**3, Z // (12 * D)) if b % 2 else (a**3, 4 * Z // (3 * D))
            (ga, _, _), _ = gauss_reduce(*lattice_Lfa(f).transport((16 * c, -4 * b, a), lam))
            assert (frame[3][0], frame[1] * Z // frame[2]) == (ga, bound), f
            empty = frame_empty(frame, Z)
            assert empty == (not _ellipse_points_rowscan(f, Z)), f
            assert D in admissible or empty, f
            outcomes[empty] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_ellipse_points_example():
    pts = list(ellipse_points(ellipse_frame(QuadraticForm(1, 0, 1)), 100))
    assert len(pts) == 14 and len(with_negations(pts)) == 28
    f = QuadraticForm(1, 0, 1)
    fc = count_family(f, family_points(f, 100))
    assert fc.points == 28
    assert fc.irreducible_points == 12 and fc.irreducible_orbits == 6
    assert not list(ellipse_points(ellipse_frame(QuadraticForm(1, 1, 1)), 1))


def test_ellipse_points_match_naive():
    rng = random.Random(61)
    for _ in range(100):
        D = rng.choice([d for d in range(3, 120) if d % 4 in (0, 3)])
        f = rng.choice(reduced_forms(D))
        Z = rng.randint(1, 500)
        got = with_negations(ellipse_points(ellipse_frame(f), Z))
        a, b, c = f.coeffs()
        L = lattice_Lfa(f)
        K = 4 * a**3 * Z
        # every (A, B) != (0, 0) of the box in L (`contains`) with I <= Z,
        # scanned as arrays in the box's order
        A, B = (x.ravel() for x in np.meshgrid(np.arange(-200, 201), np.arange(-200, 201), indexing="ij"))
        inside = (A % L.d1 == 0) & ((B - L.k * (A // L.d1)) % L.d2 == 0) & ((A != 0) | (B != 0))
        inside &= 3 * D * (a * B * B - 4 * b * A * B + 16 * c * A * A) <= K
        want = sorted(zip(A[inside].tolist(), B[inside].tolist()))
        assert got == want, (f, Z)


def test_counted_points_have_valid_invariants():
    # no degenerate member is counted and I is within bound and a positive
    # multiple of 3D/4
    for D in (3, 4, 7, 8):
        for f in reduced_forms(D):
            for (A, B) in ellipse_points(ellipse_frame(f), 200):
                F = QuarticForm(*family_coefficients(f, A, B))
                t = invariants(F)
                assert t.J == 0 and t.I > 0 and t.I <= 200
                assert (4 * t.I) % (3 * D) == 0
                assert t.disc != 0


def _check_half(half, want):
    # one point of each pair {P, -P}: no (0, 0), no P together with -P, and
    # with its negations exactly the full scan
    pts = set(half)
    assert len(pts) == len(half) and (0, 0) not in pts
    assert not any((-A, -B) in pts for (A, B) in pts)
    assert with_negations(half) == sorted(want)


def test_enumerators_match_their_two_sign_scans():
    # each enumerator yields one point of each pair {P, -P} of its centrally
    # symmetric region; with the negations that is the full scan, for both
    # signs of a
    nonempty = 0
    for D in range(3, 1500):
        for frame in frame_block(_rows(unit_families("N", D)[1])).frames:
            for Z in (12 * D, 40 * D + 3, 300 * D + 7):
                want = ellipse_points_full_plane(frame, Z)
                _check_half(list(ellipse_points(frame, Z)), want)
                nonempty += bool(want)
    for n in range(1, 120):
        for a in merged_square_labels(n):
            for sa in (a, -a):
                for Z in (50, 999, 20000):
                    want = square_family_points_two_signs(sa, n, Z)
                    _check_half(square_family_points(sa, n, Z), want)
                    nonempty += bool(want)
    assert nonempty > 2000, nonempty


# the divisors of the families of N (D < 300) and of M (n < 60, a of both signs)
_COUNTED_DIVISORS = [f for D in range(3, 300) for f in unit_families("N", D)[1] if D % 4 in (0, 3)] + [
    QuadraticForm(sign * a, n, 0)
    for n in range(1, 60)
    for a in merged_square_labels(n)
    for sign in (1, -1)
]


@settings(max_examples=400, deadline=2000, database=None)
@given(st.sampled_from(_COUNTED_DIVISORS), st.integers(-8, 8), st.integers(-8, 8))
def test_negated_point_is_decided_alike(f, s, t):
    # count_family decides one point of each pair {P, -P} for both: the
    # member at -P is -F, decide_member agrees on the two, and square_split
    # at -P returns (-H, -G) for the (G, H) at P
    A, B = lattice_Lfa(f).point(s, t)
    a, b, c = f.coeffs()
    assume(A != 0 and a * B * B - 4 * b * A * B + 16 * c * A * A != 0)
    coeffs = family_coefficients(f, A, B)
    mate = family_coefficients(f, -A, -B)
    assert mate == tuple(-x for x in coeffs)
    assert decide_member(f, -A, -B, mate) == decide_member(f, A, B, coeffs), (f, A, B)
    split = square_split(f, A, B, QuarticForm(*coeffs))
    mate_split = square_split(f, -A, -B, QuarticForm(*mate))
    if split is None:
        assert mate_split is None, (f, A, B)
    else:
        G, H = split
        assert [h.coeffs() for h in mate_split] == [H.neg().coeffs(), G.neg().coeffs()], (f, A, B)


def test_pair_kernel_matches_the_per_point_orbits():
    # count_family keys each irreducible pair by one canonical point under
    # +-G, the fiber maps and their negations, and every key weighs 2; its
    # orbits and max_coeff must be those of canonicalizing every irreducible
    # point on its own under G, and no irreducible point may share its
    # G-orbit with its negation (the lemma at count_family)
    for f in _COUNTED_DIVISORS:
        pairs = list(family_points(f, 3000 if f.c == 0 else 300 * -f.disc()))
        action = fiber_action(f)
        height = {}
        for (A, B) in with_negations(pairs):
            F = QuarticForm(*family_coefficients(f, A, B))
            if A and is_irreducible_Q(F):
                c, h = action.canonical(A, B), max(map(abs, F.coeffs()))
                height[c] = min(height.get(c, h), h)
                assert c != action.canonical(-A, -B), (f, A, B)
        fc = count_family(f, pairs)
        assert (fc.irreducible_orbits, fc.max_coeff) == (len(height), max(height.values(), default=0)), f


def _naive_square_family_points(a, n, Z):
    # every lattice point in a box beyond the bound on |B|, kept on |I|
    f = QuadraticForm(a, n, 0)
    L = lattice_Lfa(f)
    R = 4 * abs(a) ** 3 * Z // (3 * n * n) + 20
    want = []
    for B in range(-R, R + 1):
        for A in range(-R, R + 1):
            if (A, B) == (0, 0) or not contains(L, A, B):
                continue
            I, _ = family_invariant(FamilyPoint(f, A, B))
            if I != 0 and abs(I) <= Z:
                want.append((A, B))
    return sorted(want)


def test_square_family_points_match_naive():
    for (a, n, Z) in [(1, 1, 60), (1, 2, 60), (1, 4, 100), (3, 4, 200), (2, 5, 300)]:
        assert with_negations(square_family_points(a, n, Z)) == _naive_square_family_points(a, n, Z), (a, n, Z)


def test_square_family_points_negative_a():
    # (-a, n, 0)(-x, y) = -(a x^2 + n xy): the family of -a has as many
    # points as that of a, and the bound on |B| takes |a|^3
    for (a, n, Z) in [(1, 1, 60), (1, 3, 200), (3, 4, 200), (2, 5, 300)]:
        assert with_negations(square_family_points(-a, n, Z)) == _naive_square_family_points(-a, n, Z), (a, n, Z)
    for (a, n) in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 4), (5, 6)]:
        pos = count_family(QuadraticForm(a, n, 0), square_family_points(a, n, 2000))
        neg = count_family(QuadraticForm(-a, n, 0), square_family_points(-a, n, 2000))
        assert neg.points > 0, (a, n)
        assert (neg.points, neg.irreducible_points, neg.irreducible_orbits) == (
            pos.points,
            pos.irreducible_points,
            pos.irreducible_orbits,
        ), (a, n)


def test_merged_square_labels():
    assert merged_square_labels(1) == [1]
    assert merged_square_labels(2) == [1]
    # mod 5: {1,4} merge (negation), {2,3} merge
    assert merged_square_labels(5) == [1, 2]
    # mod 7: {1,6}, {2,3,4,5} (2^-1=4, -2=5, -4=3)
    assert merged_square_labels(7) == [1, 2]
    for n in range(2, 60):
        labels = merged_square_labels(n)
        phi = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
        assert sum(1 for _ in labels) <= phi


def test_count_monotone():
    prev_n = prev_m = -1
    for X in (10**3, 10**4, 10**5, 10**6):
        n = count_N(X).irreducible_orbits
        m = count_M(X).irreducible_orbits
        assert n >= prev_n and m >= prev_m
        prev_n, prev_m = n, m


def test_count_example_form():
    # the A=2, B=1 member of the (1,1) reducible family
    f = QuadraticForm(1, 1, 0)
    coeffs = family_coefficients(f, 2, 4)
    F = QuarticForm(*coeffs)
    assert F == QuarticForm(2, 4, 6, 4, 1)
    t = invariants(F)
    assert (t.I, t.J) == (12, 0)
    # A = B member degenerates
    c2 = family_coefficients(f, 1, 4)
    assert invariants(QuarticForm(*c2)).I == 0


def test_red_nf_identity_random():
    rng = random.Random(62)
    for _ in range(20):
        beta = rng.randint(1, 10)
        alpha = rng.choice([a for a in range(1, 10) if math.gcd(a, beta) == 1])
        X = rng.randint(10**3, 10**9)
        rep = red_Nf_compare(alpha, beta, X)
        assert rep.identity_holds, (alpha, beta, X)
    assert red_Nf_compare(1, 1, 10).raw_pairs == 0  # Y < 1


def test_primitive_uniqueness_small():
    rep = primitive_uniqueness_check(10**5)
    assert rep.passed, rep.violations[:3]
    assert rep.checked_forms > 0


def test_per_class_audit_supports_area_det():
    audits = per_class_error_audit(
        [QuadraticForm(1, 0, 1), QuadraticForm(1, 1, 2)], [10**8, 10**10]
    )
    for a in audits:
        assert a.supports == "area/det", (a.f, a.rows)


def test_fit_and_csv(tmp_path):
    reports = [count_N(X) for X in (10**5, 10**6, 10**7)]
    a, b = fit_ladder(reports)
    assert a > 0
    path = tmp_path / "counts.csv"
    write_count_csv(str(path), reports)
    text = path.read_text().splitlines()
    assert text[0] == "X,D,points,orbits"
    assert len(text) > 3


def test_workers_deterministic():
    for counter in (count_N, count_M):
        r1 = counter(10**7)
        r2 = counter(10**7, workers=2)
        assert r1.per_D == r2.per_D
        assert r1.irreducible_orbits == r2.irreducible_orbits
        assert r1.irreducible_points == r2.irreducible_points
        assert r1.cover_findings == r2.cover_findings
        assert r1.max_coeff == r2.max_coeff
        assert r1.decided == r2.decided


def test_imprimitive_scaling_consistency():
    # r-multiples of a family point are counted exactly when r^2 I <= bound
    from jzero.forms import invariants as _inv

    for f in (QuadraticForm(1, 0, 1), QuadraticForm(1, 1, 1), QuadraticForm(2, 1, 3)):
        Z = 600
        pts = set(with_negations(ellipse_points(ellipse_frame(f), Z)))
        for (A, B) in pts:
            F = QuarticForm(*family_coefficients(f, A, B))
            I = _inv(F).I
            for r in (2, 3):
                expected = r * r * I <= Z
                assert ((r * A, r * B) in pts) == expected, (f, A, B, r)


def test_ellipse_points_match_row_scan_on_skewed_lattices():
    # the reduced-coordinate enumeration, with its negations, against the
    # HNF row scan it replaced; large D gives large a and skewed bases
    from jzero.verify import _ellipse_points_rowscan

    rng = random.Random(63)
    discs = [D for D in range(3, 3001) if D % 4 in (0, 3)]
    cases = [(f, Z) for D in (2995, 2996, 2999, 3000) for f in _gl2_reps(D)
             for Z in (12 * D - 1, 12 * D, 400 * D)]
    for _ in range(1500):
        D = rng.choice(discs)
        cases.append((rng.choice(_gl2_reps(D)), rng.randint(1, 400 * D)))
    frames = frame_block(_rows(f for f, _ in cases)).frames
    for (f, Z), frame in zip(cases, frames):
        assert with_negations(ellipse_points(frame, Z)) == _ellipse_points_rowscan(f, Z), (f, Z)


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 40), st.integers(-40, 40), st.integers(1, 80), st.integers(1, 200))
def test_axis_rule_matches_row_scan(a, b, c, zmul):
    # where the A = 0 axis rule decides a family, its pair count against the
    # row scan, for primitive definite f, reduced or not (the closed-form
    # diagonal it rests on is checked in test_families)
    from jzero.verify import _ellipse_points_rowscan

    f = QuadraticForm(a, b, c)
    assume(f.is_primitive() and f.disc() < 0)
    D = -f.disc()
    Z = D * zmul // 8
    axis = axis_pairs(f, Z)
    if axis is not None:
        want = _ellipse_points_rowscan(f, Z)
        assert all(A == 0 for A, _ in want) and len(want) == 2 * axis, (f, Z)


def test_odd_disc_skip_is_exact():
    # an odd D holds a point iff 12 D <= Z: none below (row scan over every
    # family), and the principal family reaches I = 12 D
    from jzero.counting import _admissible_discs
    from jzero.verify import _ellipse_points_rowscan

    for D in range(3, 800, 4):
        assert D not in _admissible_discs(12 * D - 1)
        assert D in _admissible_discs(12 * D)
        for f in _gl2_reps(D):
            assert _ellipse_points_rowscan(f, 12 * D - 1) == [], f
        principal = QuadraticForm(1, 1, (D + 1) // 4)
        assert _ellipse_points_rowscan(principal, 12 * D), D
    for Z in (1, 11, 12, 100, 1889):
        assert all(D % 4 == 0 or 12 * D <= Z for D in _admissible_discs(Z))
        assert [D for D in _admissible_discs(Z) if D % 2] == list(range(3, Z // 12 + 1, 4))


def _report_digest(rep):
    fields = (
        rep.irreducible_orbits,
        rep.raw_points,
        rep.irreducible_points,
        sorted(rep.per_D.items()),
        rep.max_coeff,
        sorted(rep.decided.items()),
        rep.cover_findings,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


# the counting contract: every output of count_N and count_M at 1e9 and
# 1e10, and of count_N at 1e11, but the float fit, as SHA-256 of its repr
_PINNED = {
    ("N", 10**9): "de7c18da0c36abcd4da939087265547f154a9bedddb00bfe51200a1a72a5fe6c",
    ("M", 10**9): "c40a1b6747c0e864321dd8c770aa477ea1bc92ab31853467fb0260e3131713fb",
    ("N", 10**10): "a99c8222ed2bf8921a19388cad318225ff223d9c479d63c41ad1a8c92a907233",
    ("M", 10**10): "c0db44ebd32710f9ce91946313f20172de672f18ebcdfacb75ee443dc09e793b",
    ("N", 10**11): "e97a3331060544b00579b36015244b5c69f56513be5d73952f9c4a44e6a9a9af",
}


def test_count_reports_are_pinned():
    # a change to the counting path must leave these unchanged
    got = {(kind, X): _report_digest((count_N if kind == "N" else count_M)(X)) for (kind, X) in _PINNED}
    assert got == _PINNED


def test_frame_block_matches_the_references():
    # the GL2 reps with D <= 2000.  In one frame_block without a bound, each
    # row's frame against lattice_Lfa and the Gauss reduction of the
    # transported Gram form; in one frame_block per D at each bound Z, each
    # row's verdict against the row scan: the axis rule with its pair count,
    # the ga skip, or the same frame kept
    from jzero.verify import _ellipse_points_rowscan

    units = [(D, _gl2_reps(D)) for D in range(3, 2001) if D % 4 in (0, 3)]
    block = frame_block(_rows(f for _, reps in units for f in reps))
    assert block.kept == list(range(len(block.frames))) and (block.axis == -1).all()
    frames = iter(block.frames)
    verdicts = {"axis": 0, "skip": 0, "kept": 0}
    for D, reps in units:
        unframed = [next(frames) for _ in reps]
        for f, frame in zip(reps, unframed):
            a, b, c = f.coeffs()
            L = lattice_Lfa(f)
            lam, num, den = (16 * a**3, 1, 12 * D) if b % 2 else (a**3, 4, 3 * D)
            assert frame[:3] == ((L.d1, L.k, L.d2), num, den), f
            assert frame[3:] == gauss_reduce(*L.transport((16 * c, -4 * b, a), lam)), f
        for Z in (D // 2, D, 3 * D, 12 * D - 1, 12 * D, 400 * D):
            at = frame_block(_rows(reps), Z)
            kept = dict(zip(at.kept, at.frames))
            for i, f in enumerate(reps):
                want = _ellipse_points_rowscan(f, Z)
                if at.axis[i] >= 0:
                    assert i not in kept and not any(A for A, _ in want), (f, Z)
                    assert len(want) == 2 * at.axis[i], (f, Z)
                    verdicts["axis"] += 1
                elif i in kept:
                    assert want and kept[i] == unframed[i], (f, Z)
                    verdicts["kept"] += 1
                else:
                    assert not want, (f, Z)
                    verdicts["skip"] += 1
    assert min(verdicts.values()) > 1000, verdicts


_DEFINITE_FORMS = (
    st.tuples(st.integers(1, 60), st.integers(-90, 90), st.integers(1, 300))
    .map(lambda abc: QuadraticForm(*abc))
    .filter(lambda f: f.is_primitive() and f.disc() < 0)
)


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(_DEFINITE_FORMS, min_size=2, max_size=8), st.integers(1, 10**6))
def test_block_rows_equal_their_one_row_results(forms, Z):
    # primitive positive definite forms, not reduced and with b < 0 too: a
    # row's results do not depend on the other rows of its block, so
    # blocking cannot change a count
    frames = [ellipse_frame(f) for f in forms]
    assert frame_block(_rows(forms)).frames == frames
    block = frame_block(_rows(forms), Z)
    kept = dict(zip(block.kept, block.frames))
    for i, (f, frame) in enumerate(zip(forms, frames)):
        axis = axis_pairs(f, Z)
        assert block.axis[i] == (-1 if axis is None else axis), (f, Z)
        assert kept.get(i) == (None if axis is not None or frame_empty(frame, Z) else frame), (f, Z)


def test_object_arrays_keep_the_pinned_counts(monkeypatch):
    # the same pass on Python integers, which a block takes when its bound
    # on the intermediates reaches 2^63, gives the same count reports
    monkeypatch.setattr(counting, "_block_dtype", lambda *bounds: object)
    for X in (10**9, 10**10):
        assert _report_digest(count_N(X)) == _PINNED[("N", X)], X


def test_family_points_take_the_object_path_for_large_a(monkeypatch):
    # a = 2^21 + 1, so a^3 > 2^63: the block must run on Python integers
    # and agree with the row scan, with no int64 wrap.  For b = 0 the
    # lattice is a^2 | A, a | B and g(s, t) = t^2 + 16ac s^2, so at the
    # bound g <= 25 the points are (0, t a) with 1 <= t <= 5
    from jzero.verify import _ellipse_points_rowscan

    dtypes = []
    dtype_of = counting._block_dtype
    monkeypatch.setattr(counting, "_block_dtype", lambda *bounds: dtypes.append(dtype_of(*bounds)) or dtypes[-1])
    a = 2**21 + 1
    f = QuadraticForm(a, 0, a + 1)
    D = -f.disc()
    Z = 3 * D * 25 // 4
    pts = with_negations(family_points(f, Z))
    assert pts == _ellipse_points_rowscan(f, Z) == sorted((0, t * a) for t in range(-5, 6) if t)
    assert axis_pairs(f, Z) == 5
    L = lattice_Lfa(f)
    assert ellipse_frame(f) == ((L.d1, L.k, L.d2), 4, 3 * D, *gauss_reduce(*L.transport((16 * (a + 1), 0, a), a**3)))
    # a small form in the same block takes the same path and keeps its results
    small = QuadraticForm(2, 1, 3)
    assert frame_block(_rows([small, f])).frames[0] == frame_block(_rows([small])).frames[0]
    assert dtypes[-2:] == [object, np.int64] and set(dtypes[:-1]) == {object}


def test_workers_agree_across_blocks():
    # at 1e9 the admissible D fill several windows, which two workers split
    # into runs of consecutive D; the reports agree field for field
    Z = DISC_POLICY.ibound(10**9)
    assert len(count_units("N", Z)) > 4 * WINDOW_DISCS
    assert asdict(count_N(10**9, workers=2)) == asdict(count_N(10**9))


def test_count_discs_tallies_do_not_depend_on_the_window_split():
    # the per-D tallies of a run of admissible D are the same whether the
    # run goes as one job, as jobs of a few D (windows that end inside a
    # WINDOW_DISCS window) or one D at a time
    Z = DISC_POLICY.ibound(10**9)
    discs = list(count_units("N", Z))
    whole = _count_discs((discs, Z))
    assert [unit[0] for unit in whole] == discs
    for size in (1, 7, WINDOW_DISCS - 1, WINDOW_DISCS + 5):
        split = [unit for i in range(0, len(discs), size) for unit in _count_discs((discs[i : i + size], Z))]
        assert split == whole, size


_EVEN_B_FORMS = (
    st.tuples(st.integers(1, 200), st.integers(-200, 200), st.integers(1, 2000))
    .map(lambda ahc: QuadraticForm(ahc[0], 2 * ahc[1], ahc[2]))
    .filter(lambda f: f.is_primitive() and f.disc() < 0)
)


@settings(max_examples=50, deadline=None, database=None)
@given(st.lists(_EVEN_B_FORMS, min_size=1, max_size=20))
def test_even_b_gram_values_are_squares_mod_16(forms):
    # for even b the frame's Gram form g takes only squares mod 16 (proof in
    # the counting docstring), on reduced forms and others alike
    for f, (_, _, _, (ga, gb, gc), _) in zip(forms, frame_block(_rows(forms)).frames):
        values = {(ga * s * s + gb * s * t + gc * t * t) % 16 for s in range(-4, 5) for t in range(-4, 5)}
        assert values <= {0, 1, 4, 9}, (f, values)
