"""Digamma, trigamma, and log-gamma over strictly positive float64 arrays.

Every argument is pushed up by ten unit steps with the standard
recurrences, then the Bernoulli asymptotic series is evaluated at y >= 10
(for every x > 0, so no element needs a mask), keeping the absolute
error near machine precision across (0, 1e6).  The evidential losses
consume *differences* of digamma values, so sloppy approximations here
would compound directly into the gradients.  ``polygamma_pass`` gives
psi, psi' and optionally ln Gamma from one shift; ``digamma``, ``trigamma``
and ``lgamma`` are its slices.
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


def _shift(x, log_gamma):
    """Validate ``x`` and push every element up by ten unit steps.

    Returns the shifted argument ``y = x + 10 >= 10`` and the sums over the
    ten values ``t = x, ..., x + 9`` each element stepped through of
    ``-1/t`` (digamma), of ``1/t^2`` (trigamma) and, where ``log_gamma`` is
    set, of ``-ln t`` (log-gamma; None otherwise).
    """
    y = np.array(x, dtype=np.float64)
    if y.size and (not np.isfinite(y).all() or (y <= 0.0).any()):
        raise DomainError("polygamma_pass: argument must be finite and strictly positive")
    psi_sum, psi1_sum = np.zeros(y.shape), np.zeros(y.shape)
    log_sum = np.zeros(y.shape) if log_gamma else None
    for _ in range(int(_ASYMPTOTIC_CUTOFF)):
        inv_t = 1.0 / y
        psi_sum -= inv_t
        # (1/t)^2 rather than 1/(t*t): t*t overflows for t above about 1e154
        psi1_sum += inv_t ** 2
        if log_gamma:
            log_sum -= np.log(y)
        y += 1.0
    return y, psi_sum, psi1_sum, log_sum


def _alternating_horner(coeffs, inv2):
    poly = np.full(inv2.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        poly = c - inv2 * poly
    return poly


def polygamma_pass(x, with_lgamma=False):
    """``(psi(x), psi'(x))``, and ``ln Gamma(x)`` after them when
    ``with_lgamma``, from one ten-step shift of ``x``.

    The Dirichlet losses call it once on their parameters and strengths
    side by side, for the values and the adjoints together.
    """
    y, psi, psi1, log_sum = _shift(x, with_lgamma)
    inv = 1.0 / y
    inv2 = inv * inv
    log_y = np.log(y)
    psi = psi + log_y - 0.5 * inv - inv2 * _alternating_horner(_DIGAMMA_COEFFS, inv2)
    psi1 = psi1 + inv + 0.5 * inv2 + inv * inv2 * _alternating_horner(_TRIGAMMA_COEFFS, inv2)
    if not with_lgamma:
        return psi, psi1
    stirling = (y - 0.5) * log_y - y + _HALF_LOG_TWO_PI
    return psi, psi1, log_sum + stirling + inv * _alternating_horner(_LGAMMA_COEFFS, inv2)


def digamma(x):
    """Digamma psi(x) for x > 0, elementwise: ``polygamma_pass(x)[0]``."""
    return polygamma_pass(x)[0]


def trigamma(x):
    """Trigamma psi'(x) for x > 0, elementwise: ``polygamma_pass(x)[1]``."""
    return polygamma_pass(x)[1]


def lgamma(x):
    """Log-gamma ln Gamma(x) for x > 0, elementwise: ``polygamma_pass(x, True)[2]``."""
    return polygamma_pass(x, with_lgamma=True)[2]
