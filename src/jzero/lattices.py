"""Finite-index sublattices of Z^2 in column Hermite normal form.

A sublattice is stored as the column basis

    [ d1  0  ]
    [ k   d2 ]      d1, d2 >= 1,  0 <= k < d2,

so membership of (x, y) is the pair of conditions d1 | x and
d2 | (y - k * x / d1), and the index is d1 * d2.  Every lattice this
package needs arises from congruences u*x + v*y = 0 (mod N).
"""

from __future__ import annotations

import math

from .forms import substitute, value_type


def _solve_kernel(c1: int, c2: int, N: int) -> tuple[int, int, int]:
    """HNF data (d1, k, d2) for {(z1, z2): c1 z1 + c2 z2 = 0 mod N},
    with basis columns (d1, k) and (0, d2).

    d2 is the smallest positive z2 with (0, z2) in the kernel; d1 the
    smallest positive z1 occurring at all, and k a matching z2 for z1 = d1.
    """
    if N <= 0:
        raise ValueError("modulus must be positive")
    c1 %= N
    c2 %= N
    g2 = math.gcd(c2, N)  # >= 1
    d2 = N // g2
    d1 = g2 // math.gcd(c1, g2)
    rhs = (-c1 * d1) % N
    assert rhs % g2 == 0
    if d2 == 1:
        k = 0
    else:
        k = (rhs // g2) * pow(c2 // g2, -1, d2) % d2
    return d1, k, d2


@value_type
class SubLattice:
    """Finite-index sublattice of Z^2, column HNF basis ((d1, k), (0, d2))."""

    d1: int
    k: int
    d2: int

    def __post_init__(self):
        if self.d1 <= 0 or self.d2 <= 0 or not (0 <= self.k < self.d2):
            raise ValueError(f"not a normalized HNF triple: {(self.d1, self.k, self.d2)}")

    @property
    def index(self) -> int:
        return self.d1 * self.d2

    def transport(self, f: tuple[int, int, int], scale: int) -> tuple[int, int, int]:
        """Coefficients of the quadratic f on the basis (d1, k), (0, d2),
        divided by scale; ValueError unless scale divides all three."""
        a, b, c = substitute(f, (self.d1, 0, self.k, self.d2))
        if a % scale or b % scale or c % scale:
            raise ValueError(f"{scale} does not divide {(a, b, c)} on {self}")
        return a // scale, b // scale, c // scale

    def point(self, s: int, t: int) -> tuple[int, int]:
        return (self.d1 * s, self.k * s + self.d2 * t)

    @staticmethod
    def from_congruences(congs: list[tuple[int, int, int]]) -> "SubLattice":
        """Lattice {(x, y): u x + v y = 0 (mod N) for every (u, v, N)}.

        Solved by iterating: keep the HNF triple (d1, k, d2), restrict it by
        each congruence expressed in the current basis coordinates.
        """
        d1, k, d2 = 1, 0, 1
        for (u, v, N) in congs:
            N = abs(N)
            if N <= 1:
                continue
            e1, kk, e2 = _solve_kernel(u * d1 + v * k, v * d2, N)
            # new basis: e1*(d1, k) + kk*(0, d2) and e2*(0, d2)
            d1, k, d2 = e1 * d1, (e1 * k + kk * d2) % (e2 * d2), e2 * d2
        return SubLattice(d1, k, d2)

    def __str__(self) -> str:
        return f"[({self.d1},{self.k}),(0,{self.d2})] index {self.index}"
