"""Hypergeometric machinery and closed-form disk-group generators.

For a genus-g curve y^2 = z^(2g+1) + sign put a = 1/(2g+1). The quotient
of two solutions of the uniformizing equation is governed by the Gauss
hypergeometric function with parameters ((g-1)a, ga; 2ga), which
hyp2f1 sums through the quadratic transformation of F(alpha, beta;
2 beta; z) wherever its argument (z/(2-z))^2 is the smallest. Transporting
the local solution quotient from z = 0 to z = 1 is a Moebius map whose
matrix is built from ratios of Gamma values (math.gamma, see gamma_fn);
a closed trigonometric form of the same map exists, and the two must
agree projectively (connection_residual). Looping around z = 0
multiplies the quotient by e^(2 pi i a). Out of these come a closed-form
family of 2g+1 elliptic involutions generating the uniformizing group,
and the 2g plain matrix products of each later member with the first,
generating the genus-g surface group.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, NamedTuple, Sequence

from . import NumericalError
from .moebius import MoebiusMap, _half_turns, compose

# a sum stops once this many consecutive terms leave its partial sum
# unchanged in floating point
SERIES_CONSECUTIVE = 3
SERIES_MAX_TERMS = 100000
# hyp2f1 sums the Taylor series about (1 +- i)/2 where the smallest of
# |z|, |z/(z-1)| and |1-z| exceeds this and gamma != 2 beta: near
# e^(+-i pi/3) each is close to 1 and its series would need up to the
# whole term budget
TAYLOR_MIN_MODULUS = 0.88


class SeriesNotConvergedError(NumericalError, ValueError):
    """The hypergeometric series ran out of its term budget."""


def _is_pole(x: float) -> bool:
    """Whether Gamma has a pole at finite x (a nonpositive integer)."""
    return x <= 0 and x == int(x)


def _reject_non_finite(alpha: float, beta: float, gamma: float) -> None:
    """ValueError naming the first parameter that is infinite or NaN.

    A non-finite parameter is bad input: checked before any Gamma value
    or sum, it is neither an OverflowError from the integer tests nor a
    NaN sum that runs out of its term budget. Callers screen first with
    math.isfinite(alpha + beta + gamma), one test on the hot path: the
    sum is finite only if all three are, and when finite parameters
    overflow it, none is named here.
    """
    for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not math.isfinite(value):
            raise ValueError(f"parameter {name} is not finite: {value}")


def gamma_fn(x: float) -> float:
    """Gamma function of a real argument: math.gamma behind a pole check.

    Nonpositive integers raise ValueError naming the pole, and an
    infinite or NaN argument ValueError naming it.
    """
    if not math.isfinite(x):
        raise ValueError(f"gamma argument is not finite: {x}")
    if _is_pole(x):
        raise ValueError(f"gamma pole at nonpositive integer {int(x)}")
    return math.gamma(x)


def _series(
    alpha: float,
    beta: float,
    gamma: float,
    z: complex,
    name: str = "Maclaurin series in z",
) -> complex:
    """The Maclaurin series of F(alpha, beta; gamma; z), |z| < 1.

    A real z (zero imaginary part) is summed in float arithmetic, which
    gives the same real part as complex arithmetic. It stops once
    SERIES_CONSECUTIVE consecutive terms leave the partial sum unchanged,
    or at once on a term that is exactly 0 (a terminating series);
    SeriesNotConvergedError, naming the sum and |z|, if neither happens
    in SERIES_MAX_TERMS. A term that leaves a double unchanged is below
    half an ulp of it, so every term that moves the result is kept. A
    NaN partial sum never compares equal and would run out of terms, so
    hyp2f1 and continuation_residuals reject a NaN argument and a
    non-finite parameter before any sum.
    """
    if z.imag == 0:
        z = z.real
        term = total = 1.0
    else:
        term = total = complex(1.0)
    quiet = 0
    n = 0.0
    for _ in range(SERIES_MAX_TERMS):
        term *= (alpha + n) * (beta + n) / ((gamma + n) * (n + 1.0)) * z
        before = total
        total += term
        if total == before:
            # a zero term ends a terminating series: every later one is 0
            if not term:
                return complex(total)
            quiet += 1
            if quiet >= SERIES_CONSECUTIVE:
                return complex(total)
        else:
            quiet = 0
        n += 1.0
    raise _not_converged(name, abs(z))


def _not_converged(name: str, modulus: float) -> SeriesNotConvergedError:
    """The error for the sum `name`, with its argument modulus."""
    return SeriesNotConvergedError(
        f"hypergeometric {name} (argument modulus {modulus:.9g}) did not"
        f" converge in {SERIES_MAX_TERMS} terms"
    )


def _taylor_sum(alpha: float, beta: float, gamma: float, z: complex) -> complex:
    """The Taylor series of F(alpha, beta; gamma; z) about z0 = (1 +- i)/2,
    with the sign of Im z (DLMF 15.10.1 re-expanded about z0).

    With t = z - z0 and u_k = c_k t^k, the hypergeometric equation gives
    u_(k+2) = [(k+alpha)(k+beta) t^2 u_k
               - ((1-2 z0) k + gamma - (alpha+beta+1) z0)(k+1) t u_(k+1)]
              / (z0 (1-z0) (k+1)(k+2)),
    seeded by u_0 = F(z0) and u_1 = t (alpha beta/gamma) F(alpha+1,
    beta+1; gamma+1; z0), both Maclaurin series at |z0| = 1/sqrt 2. The
    series converges for |t| < 1/sqrt 2, the distance from z0 to 0 and
    to 1; at the points TAYLOR_MIN_MODULUS routes here |t| is at most
    about 0.46. It stops as _series does, except on a zero term: the
    recurrence goes on from the two last terms.
    """
    z0 = complex(0.5, 0.5 if z.imag >= 0 else -0.5)
    name = f"Taylor series about z0 = {z0}"
    seed = name + ", seed series in z0"
    t = z - z0
    prev = _series(alpha, beta, gamma, z0, seed)
    term = t * (alpha * beta / gamma) * _series(
        alpha + 1, beta + 1, gamma + 1, z0, seed
    )
    total = prev + term
    # z0 (1 - z0) = 1/2, so dividing by it is a factor 2, and k + 1
    # cancels from the second term
    one_minus_2z0 = 1 - 2 * z0
    shift = gamma - (alpha + beta + 1) * z0
    t2 = 2 * t * t
    t1 = 2 * t
    quiet = 0
    k = 0.0
    for _ in range(SERIES_MAX_TERMS):
        prev, term = term, (
            (k + alpha) * (k + beta) / ((k + 1.0) * (k + 2.0)) * t2 * prev
            - (one_minus_2z0 * k + shift) / (k + 2.0) * t1 * term
        )
        before = total
        total += term
        if total == before:
            quiet += 1
            if quiet >= SERIES_CONSECUTIVE:
                return total
        else:
            quiet = 0
        k += 1.0
    raise _not_converged(name + " in z - z0", abs(t))


def hyp2f1(alpha: float, beta: float, gamma: float, z: complex) -> complex:
    """Gauss hypergeometric function F(alpha, beta; gamma; z).

    For |z| < 1 it sums the series whose argument has the smallest
    modulus among four representations (DLMF 15.8):
    - zeta = (z/(2-z))^2, the quadratic transformation (15.8.13) of a
      triple with gamma == 2 * beta, as every hde_params triple has
      (_quadratic_sum):
      (1-z/2)^(-alpha) F(alpha/2, alpha/2 + 1/2; beta + 1/2; zeta).
      It is tried first, and only for the second parameter: the
      swapped F(beta, alpha; gamma; z) takes another sum. |zeta| is
      1/3 at e^(+-i pi/3) and nears 1 only as z nears 1;
    - z itself, the Maclaurin series;
    - w = z/(z-1), Pfaff's transformation (15.8.1):
      (1-z)^(-alpha) F(alpha, gamma-beta; gamma; w);
    - 1 - z, the connection formula (15.8.4, see _connection_sum).
      It is a candidate only when all its Gamma values are finite and
      it keeps its digits: 1e-4 <= |gamma-alpha-beta| <= 0.99,
      gamma <= 2, and none of alpha, beta, gamma-alpha, gamma-beta is a
      nonpositive integer.
    The 1 - 1/z form (15.8.5) is never a candidate: inside the disk
    |1 - 1/z| = |1 - z|/|z| exceeds |1 - z|. The smallest of |z|, |w|
    and |1 - z| nears 1 only as z nears e^(+-i pi/3) on the circle.
    Where it exceeds TAYLOR_MIN_MODULUS and the quadratic series does
    not apply, hyp2f1 sums instead the Taylor series about (1 +- i)/2
    (_taylor_sum): there it needs at most about 80 terms after two seed
    series of about 110 terms each, so the term budget is not reached
    near those two points. A triple that cannot take the connection
    formula still runs out of its term budget (SeriesNotConvergedError,
    naming the sum and its argument modulus) close to the arc
    |1 - z| <= 1 near z = 1, where it sums the Maclaurin series with
    |z| near 1.

    z = 1 uses the Gauss summation Gamma(gamma) Gamma(gamma-alpha-beta)
    / (Gamma(gamma-alpha) Gamma(gamma-beta)), which needs
    gamma - alpha - beta > 0. A NaN argument or an infinite or NaN
    parameter is bad input: ValueError naming it at once, not a sum run
    out of terms or a NaN value.
    """
    if not math.isfinite(alpha + beta + gamma):
        _reject_non_finite(alpha, beta, gamma)
    if _is_pole(gamma):
        raise ValueError("gamma parameter is a nonpositive integer")
    z = complex(z)
    if cmath.isnan(z):
        raise ValueError("argument z is NaN")
    if z == 1:
        if gamma - alpha - beta <= 0:
            raise ValueError("Gauss sum at z = 1 needs gamma > alpha + beta")
        return complex(
            gamma_fn(gamma)
            * gamma_fn(gamma - alpha - beta)
            / (gamma_fn(gamma - alpha) * gamma_fn(gamma - beta))
        )
    mod_z = abs(z)
    if mod_z >= 1:
        raise ValueError("series diverges for |z| >= 1 (z != 1)")
    w = z / (z - 1)
    c = gamma - alpha - beta
    # 15.8.4 adds two terms that cancel, with A and B growing like 1/|c|:
    # against mpmath its relative error reads about 2e-15/|c|. Its series
    # have third parameters 1 -+ c, which reach a pole at |c| = 1 (0.6 at
    # F(0.25, 0.25; 1.5 + 1e-9; 0.9)), and terms of size about
    # n^(gamma-2) |1-z|^n, which grow before they decay for gamma > 2
    # (1.2e-9 at F(3, 3; 6.5; 0.99 e^(-0.9i))).
    mod_w, mod_1z = abs(w), abs(1 - z)
    smallest = min(mod_z, mod_w, mod_1z)
    if gamma == 2 * beta:
        # 15.8.13, on the second parameter only (see above)
        q = z / (2 - z)
        zeta = q * q
        if abs(zeta) < smallest:
            return _quadratic_sum(alpha, beta, z, zeta)
    if smallest > TAYLOR_MIN_MODULUS:
        return _taylor_sum(alpha, beta, gamma, z)
    if (
        mod_1z < min(mod_z, mod_w)
        and 1e-4 <= abs(c) <= 0.99
        and gamma <= 2
        and not any(map(_is_pole, (alpha, beta, gamma - alpha, gamma - beta)))
    ):
        return _connection_sum(
            alpha, beta, gamma, continuation_constants(alpha, beta, gamma), z
        )
    if mod_w < mod_z:
        return (1 - z) ** -alpha * _series(
            alpha, gamma - beta, gamma, w, "Pfaff series in z/(z-1)"
        )
    return _series(alpha, beta, gamma, z)


def _quadratic_sum(alpha: float, beta: float, z: complex, zeta: complex) -> complex:
    """F(alpha, beta; 2 beta; z) by the quadratic transformation (DLMF
    15.8.13), (1-z/2)^(-alpha) F(alpha/2, alpha/2 + 1/2; beta + 1/2;
    zeta), with zeta = (z/(2-z))^2 formed by the caller. |zeta| < 1 for
    Re z < 1, so it converges wherever |z| < 1.
    """
    return (1 - 0.5 * z) ** -alpha * _series(
        0.5 * alpha,
        0.5 * alpha + 0.5,
        beta + 0.5,
        zeta,
        "quadratic series in (z/(2-z))^2",
    )


class HdeParams(NamedTuple):
    """Parameters (alpha, beta, gamma) = ((g-1)a, ga, 2ga), a = 1/(2g+1)."""

    alpha: float
    beta: float
    gamma: float
    a: float
    g: int


def hde_params(g: int) -> HdeParams:
    if g < 2:
        raise ValueError("genus must be at least 2")
    a = 1.0 / (2 * g + 1)
    return HdeParams((g - 1) * a, g * a, 2 * g * a, a, g)


def continuation_constants(
    alpha: float, beta: float, gamma: float
) -> tuple[float, float]:
    """The classical Gamma-ratio constants of the continuation to z = 1:
    A = Gamma(gamma) Gamma(c) / (Gamma(gamma-alpha) Gamma(gamma-beta)),
    B = Gamma(gamma) Gamma(-c) / (Gamma(alpha) Gamma(beta)),
    with c = gamma - alpha - beta. An infinite or NaN parameter raises
    ValueError naming it.
    """
    if not math.isfinite(alpha + beta + gamma):
        _reject_non_finite(alpha, beta, gamma)
    c = gamma - alpha - beta
    gam = gamma_fn(gamma)
    coeff_a = gam * gamma_fn(c) / (gamma_fn(gamma - alpha) * gamma_fn(gamma - beta))
    coeff_b = gam * gamma_fn(-c) / (gamma_fn(alpha) * gamma_fn(beta))
    return coeff_a, coeff_b


def _connection_sum(
    alpha: float, beta: float, gamma: float, constants: tuple[float, float], z: complex
) -> complex:
    """The continuation of F through the solutions at z = 1 (DLMF 15.8.4):
    A F(alpha, beta; alpha+beta-gamma+1; 1-z) +
    B (1-z)^c F(gamma-alpha, gamma-beta; c+1; 1-z), with c =
    gamma-alpha-beta and (A, B) = constants from continuation_constants.
    """
    coeff_a, coeff_b = constants
    c = gamma - alpha - beta
    name = "DLMF 15.8.4 sum in 1-z"
    rhs = coeff_a * _series(alpha, beta, alpha + beta - gamma + 1, 1 - z, name)
    return rhs + coeff_b * (1 - z) ** c * _series(
        gamma - alpha, gamma - beta, c + 1, 1 - z, name
    )


def continuation_residual(
    alpha: float, beta: float, gamma: float, z: complex
) -> float:
    """|F(z) - continuation of F through the solutions at z = 1|, the
    DLMF 15.8.4 sum of _connection_sum. Needs gamma - alpha - beta
    non-integer and both series in range (|z| < 1 and |1 - z| < 1).
    """
    return continuation_residuals(alpha, beta, gamma, (z,))[0]


def continuation_residuals(
    alpha: float, beta: float, gamma: float, zs: Iterable[complex]
) -> list[float]:
    """continuation_residual at each point of zs, for one parameter
    triple: A and B are computed once. The parameters and every point
    are checked before any Gamma value is evaluated: a non-finite
    parameter or a NaN point is a ValueError naming it.

    The reference side F(z) is the quadratic sum (_quadratic_sum) when
    gamma == 2 * beta, as for every genus triple, and the Maclaurin
    series in z otherwise. Neither is the 1 - z formula that hyp2f1
    uses for z > 1/2, so the check never compares that formula with
    itself.
    """
    if not math.isfinite(alpha + beta + gamma):
        _reject_non_finite(alpha, beta, gamma)
    c = gamma - alpha - beta
    if c == int(c):
        raise ValueError("continuation degenerates for integer gamma-alpha-beta")
    zs = [complex(z) for z in zs]
    for z in zs:
        if cmath.isnan(z):
            raise ValueError("argument z is NaN")
        if abs(z) >= 1 or abs(1 - z) >= 1:
            raise ValueError("z must satisfy |z| < 1 and |1 - z| < 1")
    constants = continuation_constants(alpha, beta, gamma)
    quadratic = gamma == 2 * beta
    out = []
    for z in zs:
        if quadratic:
            q = z / (2 - z)
            reference = _quadratic_sum(alpha, beta, z, q * q)
        else:
            reference = _series(alpha, beta, gamma, z)
        out.append(abs(reference - _connection_sum(alpha, beta, gamma, constants, z)))
    return out


def connection_map(g: int) -> MoebiusMap:
    """Closed trigonometric form of the 0-to-1 solution-quotient map:
    [2 cos(a pi) e^(-(g+1) a pi i), -i (cos a pi + cos 2a pi)/sin a pi;
     2 i sin a pi,                   2 cos(a pi) e^((g+1) a pi i)].
    """
    a = hde_params(g).a
    ca = math.cos(a * math.pi)
    c2a = math.cos(2 * a * math.pi)
    sa = math.sin(a * math.pi)
    return MoebiusMap(
        2 * ca * cmath.exp(-1j * (g + 1) * a * math.pi),
        -1j * (ca + c2a) / sa,
        2j * sa,
        2 * ca * cmath.exp(1j * (g + 1) * a * math.pi),
    )


def connection_map_from_gammas(g: int) -> MoebiusMap:
    """The same 0-to-1 map assembled from Gamma-ratio coefficients.

    With a = 1/(2g+1), the four connection constants are
      G1 = Gamma(2(g+1)a) Gamma(a)  / (Gamma((g+2)a) Gamma((g+1)a))
      G2 = Gamma(2(g+1)a) Gamma(-a) / (Gamma((g+1)a) Gamma(ga))
      G3 = Gamma(2ga)     Gamma(a)  / (Gamma((g+1)a) Gamma(ga))
      G4 = Gamma(2ga)     Gamma(-a) / (Gamma(ga)     Gamma((g-1)a))
    giving the quotient map entries
      x1 = G2 G3 e^(-2 a pi i) - G1 G4,  x2 = 2i sin(a pi) G1 G2,
      x3 = -2i sin(a pi) G3 G4,          x4 = G2 G3 e^(2 a pi i) - G1 G4,
    followed by the rescaling of the source quotient by G4 (conjugation
    with diag(G4, 1)). Projectively equal to connection_map(g).
    """
    a = hde_params(g).a
    gam_2g1, gam_2g = gamma_fn(2 * (g + 1) * a), gamma_fn(2 * g * a)
    gam_g2, gam_g1 = gamma_fn((g + 2) * a), gamma_fn((g + 1) * a)
    gam_g, gam_gm1 = gamma_fn(g * a), gamma_fn((g - 1) * a)
    gam_a, gam_ma = gamma_fn(a), gamma_fn(-a)
    g1 = gam_2g1 * gam_a / (gam_g2 * gam_g1)
    g2 = gam_2g1 * gam_ma / (gam_g1 * gam_g)
    g3 = gam_2g * gam_a / (gam_g1 * gam_g)
    g4 = gam_2g * gam_ma / (gam_g * gam_gm1)
    phase = cmath.exp(2j * a * math.pi)
    two_i_sin = 2j * math.sin(a * math.pi)
    x1 = g2 * g3 / phase - g1 * g4
    x2 = g1 * g2 * two_i_sin
    x3 = -g3 * g4 * two_i_sin
    x4 = g2 * g3 * phase - g1 * g4
    return MoebiusMap(x1, g4 * x2, x3 / g4, x4)


def connection_residual(closed_form: MoebiusMap, from_gammas: MoebiusMap) -> float:
    """How far connection_map(g) and connection_map_from_gammas(g), passed
    in as built, are from proportional: 0 up to rounding.

    from_gammas is scaled by s = x_k / y_k at the largest entry x_k of
    closed_form, and the residual is max_k |x_k - s y_k| / |x_k|, relative
    entry by entry. The entries of closed_form run from 3.1e-3 to 1.3e3
    at g = 1000, and projective_distance, which forms closed_form *
    from_gammas^-1, loses its digits across that spread (1.2e-4 there).
    An entry that is 0 on one side only reads inf.
    """
    xs = (closed_form.a, closed_form.b, closed_form.c, closed_form.d)
    ys = (from_gammas.a, from_gammas.b, from_gammas.c, from_gammas.d)
    if any((not x) != (not y) for x, y in zip(xs, ys)):
        return math.inf
    largest = max(xs, key=abs)
    scale = largest / ys[xs.index(largest)]
    return max(abs(x - scale * y) / abs(x) for x, y in zip(xs, ys) if x)


def monodromy_zero(g: int) -> MoebiusMap:
    """Loop around z = 0: the quotient is scaled by e^(2 pi i a)."""
    return MoebiusMap(cmath.exp(2j * math.pi * hde_params(g).a), 0, 0, 1)


def monodromy_order_residual(g: int) -> float:
    """|P.a/P.d - 1| for P = monodromy_zero(g)^(2g+1), built by repeated
    compose: how far the loop map is from order 2g+1, 0 up to rounding."""
    mono = monodromy_zero(g)
    power = mono
    for _ in range(2 * g):
        power = compose(power, mono)
    return abs(power.a / power.d - 1.0)


def trig_identity_residuals(g: int) -> tuple[float, float]:
    """Residuals of the two phase identities
    (sin(ga pi) e^(-+ 2a pi i) - sin((g-1)a pi)) / sin(a pi)
        = 2 cos(a pi) e^(-+ (g+1)a pi i)
    used to reduce the Gamma-ratio map to the closed form.
    """
    a = hde_params(g).a
    sa = math.sin(a * math.pi)
    sga = math.sin(g * a * math.pi)
    sg1a = math.sin((g - 1) * a * math.pi)
    out = []
    for s in (-1, 1):
        lhs = (sga * cmath.exp(s * 2j * a * math.pi) - sg1a) / sa
        rhs = 2 * math.cos(a * math.pi) * cmath.exp(s * 1j * (g + 1) * a * math.pi)
        out.append(abs(lhs - rhs))
    return out[0], out[1]


def sine_product_residual(g: int) -> float:
    """Residual of sin((g-1)a pi) sin(ga pi) = (cos a pi + cos 2a pi)/2."""
    a = hde_params(g).a
    lhs = math.sin((g - 1) * a * math.pi) * math.sin(g * a * math.pi)
    rhs = (math.cos(a * math.pi) + math.cos(2 * a * math.pi)) / 2.0
    return abs(lhs - rhs)


def whittaker_generator_raw(g: int, k: int) -> MoebiusMap:
    """Closed-form generator k (0 <= k <= 2g), as displayed:
    [(2 cos a pi - 1)^(-1/2), -e^((4k+1) a pi i / 2);
     e^(-(4k+1) a pi i / 2), -(2 cos a pi - 1)^(-1/2)].
    Determinant is (2 cos a pi - 2)/(2 cos a pi - 1), not 1.
    """
    a = hde_params(g).a
    if not 0 <= k <= 2 * g:
        raise ValueError(f"generator index {k} outside 0..{2 * g}")
    r = (2.0 * math.cos(a * math.pi) - 1.0) ** -0.5
    phase = _phase(a, k)
    return MoebiusMap(r, -phase, phase.conjugate(), -r)


def _phase(a: float, k: int) -> complex:
    """e^((4k+1) a pi i / 2), the direction of closed-form generator k."""
    return cmath.exp(1j * (4 * k + 1) * a * math.pi / 2.0)


def closed_form_generators(g: int) -> list[MoebiusMap]:
    """The 2g+1 closed-form generators with determinant 1, k = 0..2g:
    normalize(whittaker_generator_raw(g, k)), written in s_c.

    With cosh s_c = 1/(2 sin(a pi/2)) and sinh s_c = sqrt(2 cos a pi - 1)
    cosh s_c, generator k is the half-turn
    (-i cosh s_c, i sinh s_c ph; -i sinh s_c conj(ph), i cosh s_c),
    ph = e^((4k+1) a pi i / 2), built by `moebius._half_turns`. It is the
    display form divided by the principal square root i sqrt|det| of its
    determinant (2 cos a pi - 2)/(2 cos a pi - 1), without forming that
    determinant, which loses digits like g^2 to cancellation.
    """
    a = hde_params(g).a
    cosh_s = 0.5 / math.sin(a * math.pi / 2.0)
    sinh_s = math.sqrt(2.0 * math.cos(a * math.pi) - 1.0) * cosh_s
    return _half_turns(
        complex(0.0, -cosh_s),
        complex(0.0, sinh_s),
        (_phase(a, k) for k in range(2 * g + 1)),
    )


def whittaker_subgroup(generators: Sequence[MoebiusMap]) -> list[MoebiusMap]:
    """The 2g products compose(generator k, generator 0) (k = 1..2g,
    0-based), generating the genus-g surface group; every product is
    hyperbolic.

    `generators` are the 2g+1 determinant-1 closed-form generators,
    closed_form_generators(g), so the products have determinant 1
    without normalizing.
    """
    first = generators[0]
    return [compose(gen, first) for gen in generators[1:]]
