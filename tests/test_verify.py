"""Plumbing tests for the verification suites."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import jzero
from jzero import classes, counting, families, forms, hensel, verify
from jzero.verify import SUITES, run_suite
from reference import contains

# The subprocesses import the same jzero as these tests.
SRC = str(Path(list(jzero.__path__)[0]).resolve().parent)


def test_dispatch_and_summary():
    res = run_suite("identities", trials=300)
    assert res.passed
    assert res.checks >= 900
    assert res.summary().startswith("[PASS] identities:")
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_all_suites_registered():
    assert set(SUITES) == {
        "parametrization",
        "classgroup",
        "hensel",
        "reducibility",
        "oracle-equivalence",
        "constants",
        "identities",
    }


def test_reduced_parameter_suites_pass():
    assert run_suite("parametrization", dmax=20, coeff_box=8, det_alpha=4).passed
    assert run_suite("classgroup", dmax=100, phimax=30, rednf_trials=3).passed
    r = run_suite("hensel", dmax_classes=60, pmax=7, dmax_integrality=40)
    assert r.passed
    r = run_suite("oracle-equivalence", xs=(2000,), completeness_height=6)
    assert r.passed
    assert r.stats["completeness_forms"] > 100


def test_box_walk_reaches_every_lattice_point():
    # row by row against a scan of the whole square, on the lattices the
    # suites walk: L_{f,a} of the reduced forms and of their canonical
    # translates
    for D in range(3, 80):
        if D % 4 not in (0, 3):
            continue
        for f in classes.reduced_forms(D):
            for g in (f, hensel.canonical_fp(f).form()):
                L = families.lattice_Lfa(g)
                for box in (0, 7, 25):
                    side = range(-box, box + 1)
                    want = [(A, B) for A in side for B in side if contains(L, A, B)]
                    assert list(verify._box_points(L, box)) == want, (g, box)


def test_oracle_findings_do_not_follow_hash_seed():
    script = (
        "from jzero.verify import run_suite; "
        "print(run_suite('oracle-equivalence', xs=(2000,), completeness_height=4).findings)"
    )
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        outs.append(out.stdout)
    assert outs[0] == outs[1] and "fiber size" in outs[0]


def test_reducibility_suite_checks_fast_path(monkeypatch):
    r = run_suite(
        "reducibility", dmax=12, coeff_box=6, certificate_x=10**6, sympy_samples=40
    )
    assert r.passed, r.failures[:3]
    for kind in ("N", "M"):
        points, irreducible, settled = (
            r.stats[f"certificate_{kind}_{key}"]
            for key in ("points", "irreducible", "settled")
        )
        assert 0 < settled <= irreducible < points
        assert 0 < r.stats[f"square_split_{kind}"] <= points - irreducible
        assert r.stats[f"type2_missed_{kind}"] == 0
        # every point is decided once, and some reach factoring
        assert sum(r.stats[f"kernel_{kind}_{b}"] for b in counting.BRANCHES) == points
        assert r.stats[f"kernel_{kind}_factored"] > 0

    def reducibility_failures():
        return run_suite(
            "reducibility", dmax=3, coeff_box=2, certificate_x=10**6, sympy_samples=0
        ).failures

    with monkeypatch.context() as m:
        m.setattr(families, "square_split", lambda f, A, B, F: (f, f))
        assert any(msg.startswith("square split on the irreducible") for msg in reducibility_failures())
    with monkeypatch.context() as m:
        m.setattr(families, "square_split", lambda f, A, B, F: None)
        assert any(msg.startswith("the square split misses") for msg in reducibility_failures())
    # a decision that calls square-disc reducible points irreducible
    monkeypatch.setattr(counting, "_nonsquare_disc", lambda F: True)
    failures = reducibility_failures()
    assert any("nonsquare_disc branch decides" in msg for msg in failures)


def test_reducibility_suite_checks_the_kernel_tallies(monkeypatch):
    # count_family decides one point of each pair {P, -P} and keys the
    # orbits of irreducible pairs under +-G, the fiber maps and their
    # negations; tallies with a pair moved to the wrong branch or given the
    # wrong verdict, keys taken under G alone (so two pairs of one O u -O
    # can key O and -O apart), or a key height that is not the least, must
    # fail the suite
    count_family = counting.count_family

    def mutated(mutate):
        def counted(f, points, visit=None):
            fc = count_family(f, points, visit)
            if fc.decided.get("nonsquare_disc", 0) >= 2:
                mutate(fc)
            return fc

        return counted

    def wrong_branch(fc):
        fc.decided["nonsquare_disc"] -= 2
        fc.decided["factored"] = fc.decided.get("factored", 0) + 2

    def wrong_verdict(fc):
        fc.irreducible_points -= 2

    def wrong_height(fc):
        fc.max_coeff += 1

    mutations = [(counting, "count_family", mutated(m)) for m in (wrong_branch, wrong_verdict, wrong_height)]
    for target, name, value in mutations + [(families.FiberAction, "with_negation", lambda self: self)]:
        with monkeypatch.context() as m:
            m.setattr(target, name, value)
            failures = run_suite(
                "reducibility", dmax=3, coeff_box=2, certificate_x=10**6, sympy_samples=0
            ).failures
        assert failures and all(msg.startswith("count_family's tallies") for msg in failures), name


def test_reducibility_suite_checks_the_negation_lemma(monkeypatch):
    # count_family weighs every key 2 because no fiber map sends an
    # irreducible point P to -P; an action that holds the negated maps
    # breaks that, and the suite must name the points
    fiber_action = families.fiber_action
    monkeypatch.setattr(families, "fiber_action", lambda f: fiber_action(f).with_negation())
    failures = run_suite(
        "reducibility", dmax=3, coeff_box=2, certificate_x=10**6, sympy_samples=0
    ).failures
    assert any(" sends the irreducible point (" in msg for msg in failures)


def test_reducibility_suite_checks_the_row_decision_and_the_cutoff(monkeypatch):
    def run():
        return run_suite("reducibility", dmax=3, coeff_box=2, certificate_x=10**6, sympy_samples=0)

    r = run()
    assert r.passed, r.failures[:3]
    assert r.stats["cutoff_N_points"] > 0
    assert min(r.stats[f"irreducible_rows_{k}"] for k in ("N", "M", "box")) > 0
    # a row decision that disagrees with is_irreducible_Q on every row
    irreducible_rows = forms.irreducible_rows
    with monkeypatch.context() as m:
        m.setattr(forms, "irreducible_rows", lambda rows: ~irreducible_rows(rows))
        failures = run().failures
    assert failures and all(msg.startswith("irreducible_rows decides") for msg in failures)
    # points above the cut-off that nothing splits
    monkeypatch.setattr(families, "square_split", lambda f, A, B, F: None)
    assert any("above the cut-off, is neither" in msg for msg in run().failures)


def test_reducibility_without_sympy_is_a_failure_not_a_crash(monkeypatch):
    monkeypatch.setitem(sys.modules, "sympy", None)  # import sympy -> ImportError
    r = run_suite(
        "reducibility", dmax=3, coeff_box=2, certificate_x=10**3, sympy_samples=5
    )
    assert r.failures == ["sympy.factor_list oracle unavailable: install the dev extra"]


def test_failure_reporting_shape():
    res = run_suite("identities", trials=50)
    res.fail("synthetic failure")
    assert not res.passed
    assert res.summary().startswith("[FAIL]")


def test_parametrization_suite_checks_reduced_enumeration(monkeypatch):
    enumerate_points = counting.ellipse_points

    def drop_last_point(frame, Z):
        yield from list(enumerate_points(frame, Z))[:-1]

    monkeypatch.setattr(counting, "ellipse_points", drop_last_point)
    r = run_suite("parametrization", dmax=20, coeff_box=0, det_alpha=0)
    assert any("differs from the row scan" in msg for msg in r.failures)
    monkeypatch.setattr(counting, "_admissible_discs", lambda Z: range(3, 4 * Z // 3 + 1))
    r = run_suite("parametrization", dmax=20, coeff_box=0, det_alpha=0)
    assert any("not admitted exactly" in msg for msg in r.failures)


def _patch_block(monkeypatch, change):
    # counting.frame_block with `change` applied to its output
    block_of = counting.frame_block

    def changed(abc, ibound=None):
        return change(block_of(abc, ibound), ibound)

    monkeypatch.setattr(counting, "frame_block", changed)


def test_parametrization_suite_checks_the_integer_frame(monkeypatch):
    def wrong_k(block, Z):
        frames = [((d1, (k + 1) % d2, d2), *rest) for (d1, k, d2), *rest in block.frames]
        return block._replace(frames=frames)

    _patch_block(monkeypatch, wrong_k)
    r = run_suite("parametrization", dmax=20, coeff_box=0, det_alpha=0)
    assert any(msg.startswith("frame triple") for msg in r.failures)
    monkeypatch.undo()

    # a skip at ga = bound drops families whose point g(1, 0) = ga is in
    def skip_at_bound(block, Z):
        if Z is None:
            return block
        keep = [i for i, (_, num, den, (ga, _, _), _) in enumerate(block.frames) if ga < num * Z // den]
        return block._replace(kept=[block.kept[i] for i in keep], frames=[block.frames[i] for i in keep])

    _patch_block(monkeypatch, skip_at_bound)
    r = run_suite("parametrization", dmax=20, coeff_box=0, det_alpha=0)
    assert any(msg.startswith("the block's skip is not exact") for msg in r.failures)


def test_parametrization_suite_checks_the_axis_rule(monkeypatch):
    # d1 := 1 in the closed-form diagonal, then one pair too many on A = 0
    diagonal_of = families.lattice_diagonal
    monkeypatch.setattr(families, "lattice_diagonal", lambda a, b, c: (1, diagonal_of(a, b, c)[1]))
    r = run_suite("parametrization", dmax=20, coeff_box=0, det_alpha=0)
    assert any(msg.startswith("closed-form diagonal") for msg in r.failures)
    monkeypatch.undo()

    def one_more(block, Z):
        return block._replace(axis=block.axis + (block.axis >= 0))

    _patch_block(monkeypatch, one_more)
    r = run_suite("parametrization", dmax=20, coeff_box=0, det_alpha=0)
    assert any(msg.startswith("axis rule gives") for msg in r.failures)


def test_identities_suite_checks_closed_forms(monkeypatch):
    act_quartic = forms.act_quartic

    def flip_a1(F, T):
        G = act_quartic(F, T)
        return forms.QuarticForm(G.a4, G.a3, G.a2, -G.a1, G.a0)

    monkeypatch.setattr(forms, "act_quartic", flip_a1)
    r = run_suite("identities", trials=200)
    assert any("differs from F(T(x, y))" in msg for msg in r.failures)
    monkeypatch.undo()

    # the least reduced form of f's own cycle, without the other variants
    def own_cycle(f):
        return min(h.coeffs() for h in classes.indefinite_cycle(f))

    monkeypatch.setattr(classes, "indefinite_class_key", own_cycle)
    r = run_suite("identities", trials=300)
    assert any("least over the four variant cycles" in msg for msg in r.failures)
