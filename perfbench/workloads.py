"""The benchmark's workloads: seeded sizes, bodies, output gates and pins.

A workload body runs in a fresh worker process with jzero already imported
and returns `(counts, detail, work, problems)`:

* `counts`  - the pinned figures (compared against `PINNED` for the default
  seed and, through the digest, between the iterations of one run);
* `detail`  - further exact outputs that only enter the digest;
* `work`    - the work done, for `work_per_s`;
* `problems` - every output gate that failed.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

# Sizes for the default seed.  Other seeds draw each X from [X, X (1 + XBAND))
# and each class-group bound within +-DBAND.
BASE = {
    "n-ladder": {"xs": [10**9, 10**10, 10**11]},
    "m-ladder": {"xs": [10**9, 10**10, 10**11]},
    "oracle-bind": {"xs": [10**7], "completeness_height": 16},
    "class-groups": {"dmax": 500, "phimax": 200, "dmax_classes": 300},
}

# A ladder's time grows about as X^0.45, so X within +25% moved it by up to
# 10% between seeds, as much as the host's noise left after rescaling; +5%
# keeps that near 2%.  The oracle's box height, which sets its work, is
# certified from X and is 36 on [1e7, 1.0975e7) but 40 to 48 above; a wider
# band would let the seed, not the program, decide its time and memory.
XBAND = {"n-ladder": 0.05, "m-ladder": 0.05, "oracle-bind": 0.08}
# classgroup's time grows about as dmax^2.5, so +-5% in dmax would move it
# by +-12% and +-2% still by +-5%; +-0.5% keeps the seed's effect near 1%.
DBAND = 0.005

# Tiny sizes for the benchmark's own tests (`run.py --smoke`).
SMOKE = {
    "n-ladder": {"xs": [10**5, 10**6]},
    "m-ladder": {"xs": [10**5, 10**6]},
    "oracle-bind": {"xs": [2000], "completeness_height": 4},
    "class-groups": {"dmax": 60, "phimax": 20, "dmax_classes": 40},
}

# Exact outputs at the default sizes.  The ladder figures are
# [irreducible orbits, raw family points] and match the ROADMAP baseline.
PINNED = {
    "n-ladder": {
        "1000000000": [452, 6796],
        "10000000000": [1172, 16692],
        "100000000000": [3074, 40554],
    },
    "m-ladder": {
        "1000000000": [2676, 5902],
        "10000000000": [6728, 14448],
        "100000000000": [16544, 34818],
    },
    "oracle-bind": {
        "10000000": {"N": 48, "M": 394, "box_height": 36},
        "completeness_forms": 12836,
        "checks": 6414,
    },
    "class-groups": {"classgroup_checks": 29606, "hensel_checks": 865},
}

# Layers every traced run of the workload must see called at least once
# (at default and smoke sizes); a zero there means a binding was missed.
EXPECTED_LAYERS = {
    "n-ladder": (
        "counting.count_N",
        "counting.ellipse_points",
        "families.lattice_Lfa",
        "lattices.SubLattice.from_congruences",
        "families.family_coefficients",
        "forms.is_irreducible_Q",
        "forms.quartic_factorization",
        "families.fiber_action",
        "families.FiberAction.canonical",
        "families.FiberAction.orbit",
        "classes.enumerate_reduced",
        "classes.class_of",
        "classes.cover_multiplicity",
        "classes.signed_automorphisms",
    ),
    "m-ladder": (
        "counting.count_M",
        "counting.square_family_points",
        "families.family_coefficients",
        "forms.is_irreducible_Q",
        "forms.quartic_factorization",
        "families.fiber_action",
        "families.FiberAction.canonical",
        "families.FiberAction.orbit",
        "classes.class_of",
        "classes.cover_multiplicity",
    ),
    "oracle-bind": (
        "verify.suite_oracle_equivalence",
        "oracle.brute_quartics",
        "oracle.orbit_key",
        "oracle.certify_cover",
        "forms.invariants",
        "forms.hessian_sqrt",
        "forms.is_irreducible_Q",
        "families.member_of",
        "classes.reduce_form",
        "classes.canonical_square_label",
        "counting.count_N",
        "counting.count_M",
    ),
    "class-groups": (
        "verify.suite_classgroup",
        "verify.suite_hensel",
        "classes.enumerate_reduced",
        "classes.reduce_form",
        "classes.class_of",
        "classes.compose",
        "classes.representations",
        "oracle.value_candidates",
        "oracle.compose_oracle",
        "hensel.nu_of",
        "hensel.w_of",
    ),
}

NAMES = tuple(BASE)


def sizes(workload: str, seed: int, smoke: bool = False) -> dict:
    """The workload's input sizes for `seed`; the default seed gives `BASE`."""
    base = (SMOKE if smoke else BASE)[workload]
    if seed == DEFAULT_SEED:
        return {k: (list(v) if isinstance(v, list) else v) for k, v in base.items()}
    rng = random.Random(f"{workload}/{seed}")
    out = {}
    for key, value in base.items():
        if key == "xs":
            out[key] = [x + rng.randrange(int(x * XBAND[workload])) for x in value]
        elif key == "completeness_height":
            out[key] = value
        else:
            out[key] = round(value * rng.uniform(1 - DBAND, 1 + DBAND))
    return out


def pinned(workload: str, size: dict):
    """The pinned counts when `size` is the default size, else None."""
    return PINNED[workload] if size == BASE[workload] else None


def run(workload: str, size: dict):
    return _BODIES[workload](size)


def _ladder(counter, size):
    counts, detail, problems = {}, {}, []
    work = 0
    for X in size["xs"]:
        rep = counter(X)
        if not rep.check_sums():
            problems.append(f"check_sums fails at X={X}")
        counts[str(X)] = [rep.irreducible_orbits, rep.raw_points]
        detail[str(X)] = {
            "ibound": rep.ibound,
            "irreducible_points": rep.irreducible_points,
            "per_D": sorted(rep.per_D.items()),
            "cover_findings": len(rep.cover_findings),
            "max_coeff": rep.max_coeff,
        }
        work += rep.raw_points
    return counts, detail, work, problems


def _n_ladder(size):
    from jzero import counting

    return _ladder(counting.count_N, size)


def _m_ladder(size):
    from jzero import counting

    return _ladder(counting.count_M, size)


def _oracle_bind(size):
    from jzero import verify

    res = verify.run_suite(
        "oracle-equivalence",
        xs=tuple(size["xs"]),
        completeness_height=size["completeness_height"],
    )
    problems = [f"oracle-equivalence: {msg}" for msg in res.failures]
    counts = {"completeness_forms": res.stats["completeness_forms"], "checks": res.checks}
    # box forms examined: every (a4, a3, a2, a1) the J = 0 solver scans
    work = (2 * size["completeness_height"] + 1) ** 4
    for X in size["xs"]:
        st = res.stats[f"X={X}"]
        counts[str(X)] = {"N": st["N"], "M": st["M"], "box_height": st["box_height"]}
        work += (2 * st["box_height"] + 1) ** 4
    detail = {"findings": len(res.findings), "stats": sorted((k, repr(v)) for k, v in res.stats.items())}
    return counts, detail, work, problems


def _class_groups(size):
    from jzero import verify

    cg = verify.run_suite("classgroup", dmax=size["dmax"], phimax=size["phimax"], rednf_trials=0)
    hs = verify.run_suite("hensel", dmax_classes=size["dmax_classes"], pmax=0, dmax_integrality=0)
    problems = [f"{res.name}: {msg}" for res in (cg, hs) for msg in res.failures]
    counts = {"classgroup_checks": cg.checks, "hensel_checks": hs.checks}
    detail = {"findings": [len(cg.findings), len(hs.findings)]}
    return counts, detail, cg.checks + hs.checks, problems


_BODIES = {
    "n-ladder": _n_ladder,
    "m-ladder": _m_ladder,
    "oracle-bind": _oracle_bind,
    "class-groups": _class_groups,
}
