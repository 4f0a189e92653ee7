"""The Harrell-Davis quantile estimator.

A run's operation times are few and unevenly spread: suite-sweep has 14
distinct operations, and weyl-products' times around its median are tens
of milliseconds apart.  A single order statistic then jumps with the noise
of the one or two samples it picks.  The Harrell-Davis estimator (Harrell
and Davis, Biometrika 69, 1982) weights every order statistic by a Beta
distribution centred on the quantile, which makes it much steadier.
"""

from math import exp, lgamma, log
from typing import Sequence


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 400):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log(1.0 - x)
    if x < (a + 1.0) / (a + b + 2.0):
        return exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(values: Sequence[float], p: float) -> float:
    """Estimate the p-quantile (0 < p < 1) of the distribution behind `values`."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))
