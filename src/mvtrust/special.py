"""Digamma, trigamma, and log-gamma over strictly positive float64 arrays.

Small arguments are pushed upward with the standard recurrences, then the
Bernoulli asymptotic series is evaluated at y >= 10, keeping the absolute
error near machine precision across (0, 1e6).  The evidential losses
consume *differences* of digamma values, so sloppy approximations here
would compound directly into the gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_ASYMPTOTIC_CUTOFF = 10.0
_HALF_LOG_TWO_PI = 0.9189385332046727417803297

# psi(y) = ln y - 1/(2y) - sum_n B_{2n} / (2n y^{2n}); magnitudes below,
# signs alternate starting positive.
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    1.0 / 120.0,
    1.0 / 252.0,
    1.0 / 240.0,
    1.0 / 132.0,
    691.0 / 32760.0,
    1.0 / 12.0,
)

# psi1(y) = 1/y + 1/(2y^2) + y^{-3} * sum_n B_{2n} y^{-2(n-1)}
_TRIGAMMA_COEFFS = (
    1.0 / 6.0,
    1.0 / 30.0,
    1.0 / 42.0,
    1.0 / 30.0,
    5.0 / 66.0,
    691.0 / 2730.0,
    7.0 / 6.0,
)

# lgamma(y) = (y - 1/2) ln y - y + ln(2 pi)/2 + sum_n B_{2n}/(2n(2n-1) y^{2n-1})
_LGAMMA_COEFFS = (
    1.0 / 12.0,
    1.0 / 360.0,
    1.0 / 1260.0,
    1.0 / 1680.0,
    1.0 / 1188.0,
    691.0 / 360360.0,
    1.0 / 156.0,
)


def _shift(x, name, term):
    """Validate ``x`` and push every element below the cutoff up by unit steps.

    Returns the shifted argument ``y >= 10`` and ``sum term(t)`` over the
    values ``t`` each element stepped through.
    """
    y = np.array(x, dtype=np.float64)
    if y.size and (not np.all(np.isfinite(y)) or np.any(y <= 0.0)):
        raise DomainError(f"{name}: argument must be finite and strictly positive")
    acc = np.zeros_like(y)
    for _ in range(int(_ASYMPTOTIC_CUTOFF)):
        mask = y < _ASYMPTOTIC_CUTOFF
        if not mask.any():
            break
        acc[mask] += term(y[mask])
        y[mask] += 1.0
    return y, acc


def _alternating_horner(coeffs, inv2):
    poly = np.full_like(inv2, coeffs[-1])
    for c in coeffs[-2::-1]:
        poly = c - inv2 * poly
    return poly


def digamma(x):
    """Digamma psi(x) for x > 0, elementwise."""
    y, acc = _shift(x, "digamma", lambda t: -(1.0 / t))
    inv = 1.0 / y
    inv2 = inv * inv
    return acc + np.log(y) - 0.5 * inv - inv2 * _alternating_horner(_DIGAMMA_COEFFS, inv2)


def trigamma(x):
    """Trigamma psi'(x) for x > 0, elementwise (backward pass of digamma)."""
    y, acc = _shift(x, "trigamma", lambda t: 1.0 / (t * t))
    inv = 1.0 / y
    inv2 = inv * inv
    return acc + inv + 0.5 * inv2 + inv * inv2 * _alternating_horner(_TRIGAMMA_COEFFS, inv2)


def lgamma(x):
    """Log-gamma ln Gamma(x) for x > 0, elementwise."""
    y, acc = _shift(x, "lgamma", lambda t: -np.log(t))
    inv = 1.0 / y
    inv2 = inv * inv
    stirling = (y - 0.5) * np.log(y) - y + _HALF_LOG_TWO_PI
    return acc + stirling + inv * _alternating_horner(_LGAMMA_COEFFS, inv2)
