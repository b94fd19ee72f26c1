"""Slow, independent reference implementations that the tests check
the package against.  Nothing in `src/jzero` uses them."""

from typing import Optional

from jzero.forms import QuarticForm, Unimodular, act_quartic
from jzero.lattices import SubLattice


def contains(L: SubLattice, x: int, y: int) -> bool:
    """(x, y) lies in the lattice with column basis (d1, k), (0, d2)."""
    return x % L.d1 == 0 and (y - L.k * (x // L.d1)) % L.d2 == 0


def is_sublattice_of(L: SubLattice, M: SubLattice) -> bool:
    return all(contains(M, *v) for v in L.basis())


def equivalent_by_matrix_search(
    F: QuarticForm, G: QuarticForm, bound: int = 6
) -> Optional[Unimodular]:
    """Exhaustive unimodular search; a slow validator for orbit_key."""
    rng = range(-bound, bound + 1)
    for t1 in rng:
        for t2 in rng:
            for t3 in rng:
                for t4 in rng:
                    if t1 * t4 - t2 * t3 not in (1, -1):
                        continue
                    T = Unimodular(t1, t2, t3, t4)
                    if act_quartic(F, T) == G:
                        return T
    return None
