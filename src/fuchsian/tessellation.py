"""Tessellation bookkeeping in exact integer/rational arithmetic.

Covers the genus range of complete bipartite graph embeddings, the
Euler-characteristic solution for the vertex valence q of a {p, q}
tessellation, the three degree families with closed-form tessellations,
the hyperbolicity inequality (p-2)(q-2) > 4, and the p/q cycle count.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class GenusRange(NamedTuple):
    g_min: int
    g_max: int


class TessellationSpec(NamedTuple):
    p: int
    q: int
    genus: int
    hyperbolic: bool


class CycleCount(NamedTuple):
    ratio: Fraction
    divisible: bool


def genus_range(m: int, n: int) -> GenusRange:
    """Genus interval for two-cell embeddings of K_{m,n}:
    ceil((m-2)(n-2)/4) up to floor((m-1)(n-1)/2); needs m, n >= 2.
    """
    if m < 2 or n < 2:
        raise ValueError("genus range needs m >= 2 and n >= 2")
    g_min = -((m - 2) * (n - 2) // -4)
    g_max = (m - 1) * (n - 1) // 2
    return GenusRange(g_min, g_max)


def euler_characteristic(p: int, q: int) -> Fraction:
    """chi = V - E + F = p/q - p/2 + 1 for one face of a {p, q} tiling."""
    return Fraction(p, q) - Fraction(p, 2) + 1


def q_from_euler(p: int, g: int) -> int:
    """Solve p/q - p/2 + 1 = 2 - 2g for integer q, exactly.

    Raises ValueError when the denominator is nonpositive or q is not an
    integer: no regular tessellation with p-gons exists for that genus.
    """
    if p < 3:
        raise ValueError("p must be at least 3")
    if g < 2:
        raise ValueError("genus must be at least 2")
    den = Fraction(p, 2) + 1 - 2 * g
    if den <= 0:
        raise ValueError(f"no regular tessellation: p/2 + 1 - 2g = {den} <= 0")
    q = Fraction(p) / den
    if q.denominator != 1:
        raise ValueError(f"no regular tessellation: q = {q} is not an integer")
    return int(q)


def is_hyperbolic_tessellation(p: int, q: int) -> bool:
    """True when (p-2)(q-2) > 4, the hyperbolic-plane condition."""
    if p < 3 or q < 3:
        raise ValueError("p and q must be at least 3")
    return (p - 2) * (q - 2) > 4


def tessellation_for_degree(n_degree: int, g: int) -> TessellationSpec:
    """{p, q} for a genus-g curve of degree n in the three closed
    families: n = 2g+1 -> {4g, 4g}; n = 2g+2 -> {4g+2, 2g+1};
    n = 6g-2 -> {12g-6, 3}.

    g is the genus of the tessellated surface, chi = 2 - 2g. A
    hyperelliptic curve of degree n has genus floor((n - 1)/2), which is
    g for the first two families but 3g - 2, not g, for n = 6g-2.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    if n_degree not in (2 * g + 1, 2 * g + 2, 6 * g - 2):
        raise ValueError(
            f"degree {n_degree} is outside the covered families for genus {g}"
        )
    p = 2 * (n_degree - 1)
    q = q_from_euler(p, g)
    return TessellationSpec(p, q, g, is_hyperbolic_tessellation(p, q))


def cycle_count(p: int, q: int) -> CycleCount:
    """Cycle count p/q as an exact rational, with a q-divides-p flag."""
    if p < 3 or q < 3:
        raise ValueError("p and q must be at least 3")
    ratio = Fraction(p, q)
    return CycleCount(ratio, ratio.denominator == 1)
