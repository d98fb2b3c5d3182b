"""Hyperelliptic curves y^2 = z^(2g+1) + sign with sign in {+1, -1}.

The branch points solve z^n = -sign (n = 2g+1 odd) and sit on the unit
circle at equally spaced angles; they are built directly from those
angles, never from a polynomial root finder.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import NamedTuple


class _CurveFields(NamedTuple):
    genus: int
    sign: int


def _as_int(value: object) -> int | None:
    """value as a plain int (`operator.index`), or None for a bool, a
    float or any other non-integer."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


class HyperellipticCurve(_CurveFields):
    """An immutable (genus, sign) record, validated on every
    construction: positional, by keyword, through `_make`/`_replace`,
    and by unpickling with any pickle protocol. The genus is an integer
    of at least 1 and the sign the integer +1 or -1, each stored as an
    int; a float or a bool is rejected even where it equals such an int.
    """

    __slots__ = ()

    def __new__(cls, genus: int, sign: int) -> HyperellipticCurve:
        g = _as_int(genus)
        if g is None:
            raise ValueError(f"genus must be an integer, not {genus!r}")
        if g < 1:
            raise ValueError("genus must be at least 1")
        s = _as_int(sign)
        if s not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return super().__new__(cls, g, s)

    @classmethod
    def _make(cls, iterable) -> HyperellipticCurve:
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)

    @property
    def degree(self) -> int:
        return 2 * self.genus + 1


def roots(curve: HyperellipticCurve) -> list[complex]:
    """The n solutions of z^n = -sign, ordered by angle in (0, 2*pi].

    sign -1 gives the n-th roots of unity (the root 1 comes last, at
    angle 2*pi); sign +1 gives e^(i pi (2k+1)/n), so the list starts at
    e^(i pi/n).
    """
    n = curve.degree
    if curve.sign == -1:
        angles = [2.0 * math.pi * k / n for k in range(1, n)] + [2.0 * math.pi]
    else:
        angles = [math.pi * (2 * k + 1) / n for k in range(n)]
    return [cmath.exp(1j * t) for t in angles]


def fde_coefficient(curve: HyperellipticCurve, z: complex) -> complex:
    """Coefficient (3/16)[(f'/f)^2 - ((2g+2)/(2g+1)) f''/f] of the
    degree-2 term in the uniformizing differential equation, where
    f(z) = z^n + sign.
    """
    n = curve.degree
    z = complex(z)
    f = z**n + curve.sign
    if f == 0:
        raise ValueError("z is a curve root: coefficient has a pole there")
    fp = n * z ** (n - 1)
    fpp = n * (n - 1) * z ** (n - 2)
    ratio = (2.0 * curve.genus + 2.0) / (2.0 * curve.genus + 1.0)
    return (3.0 / 16.0) * ((fp / f) ** 2 - ratio * (fpp / f))
