"""CRPS machinery: closed form, integral-definition oracle, gradients, skill.

The continuous ranked probability score of a predictive CDF F against an
observation y is the squared L2 distance between F and the step function at
y. For a Gaussian N(mu, sigma^2) it collapses to

    CRPS = sigma * (z * (2 * Phi(z) - 1) + 2 * phi(z) - 1 / sqrt(pi)),
    z = (y - mu) / sigma,

which is what the training loop differentiates. Phi is ``ndtr``, a numpy
normal CDF built on a fitted erfcx polynomial, so importing this module
(and so every CLI stage) loads no scipy module. The quadrature routine
evaluates the defining integral directly and exists purely as an independent
cross-check of the closed form; it alone imports scipy (``scipy.integrate``
and ``scipy.special``'s own Phi), at its first call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT_PI = np.sqrt(np.pi)
SQRT_2PI = np.sqrt(2.0 * np.pi)

#: erfcx(x) = exp(x^2) * erfc(x) on [0, 40] as a degree-22 power series in
#: u = (x - 3) / (x + 3), constant term first: a Chebyshev least-squares
#: fit in u against scipy.special.erfcx at 4,000 nodes, converted to
#: powers. tests/test_scoring.py holds the snippet that reproduces it.
_ERFCX_IN_U = (
    0.1790011511813898, -0.32623356004303966, 0.24560380171230203,
    -0.1501159365006807, 0.07166583719898613, -0.024392499319383143,
    0.004269136318645611, 0.0007077464365598403, -0.0005970618383806339,
    4.525535550661522e-05, 6.405602839559669e-05, -1.2860848160305512e-05,
    -7.97649353585886e-06, 2.1211946317315517e-06, 1.249105434369043e-06,
    -2.9639669581454855e-07, -2.2994948744357136e-07, 3.165987706698695e-08,
    4.2579292978426995e-08, -1.3894372889305287e-09, -6.370576082954053e-09,
    -1.4917835818107505e-10, 5.275336624898496e-10,
)


def ndtr(z):
    """Standard normal CDF Phi(z), elementwise, on numpy alone.

    With q = erfc(|z| / sqrt(2)) / 2 = erfcx(x) * exp(-z^2 / 2) / 2 and
    x = min(|z| / sqrt(2), 40), Phi is q below 0 and 1 - q from 0 on, so
    each tail keeps its relative accuracy. Against scipy.special.ndtr it
    is within 4.4e-16 absolute on [-40, 40] and 2.4e-13 relative on
    [-37, 0]; Phi(-inf) is 0, Phi(inf) is 1 and NaN stays NaN.
    """
    z = np.asarray(z, dtype=float)
    x = np.minimum(np.abs(z) / np.sqrt(2.0), 40.0)
    u = (x - 3.0) / (x + 3.0)
    q = np.full_like(u, _ERFCX_IN_U[-1])
    for c in _ERFCX_IN_U[-2::-1]:  # Horner, in place
        q *= u
        q += c
    q *= 0.5 * np.exp(-0.5 * z * z)
    out = np.where(z < 0, q, 1.0 - q)
    return out if out.ndim else float(out)


def _check_sigma(sigma) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
        raise ValueError("sigma must be finite and > 0")
    return sigma


def crps_gaussian(mu, sigma, y):
    """Closed-form Gaussian CRPS, elementwise over broadcastable arrays.

    Parameters
    ----------
    mu, sigma : array_like
        Predictive mean and standard deviation; sigma must be > 0.
    y : array_like
        Verifying observation.

    Returns
    -------
    ndarray or float
        Non-negative score in the units of y (mm here).
    """
    sigma = _check_sigma(sigma)
    mu = np.asarray(mu, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(y))):
        raise ValueError("mu and y must be finite")
    out = _crps_and_gradient(mu, sigma, y)[0]
    return out if out.ndim else float(out)


def crps_gradient(mu, sigma, y):
    """Analytic partial derivatives of :func:`crps_gaussian`.

    Returns (dCRPS/dmu, dCRPS/dsigma) with

        dCRPS/dmu    = -(2 * Phi(z) - 1)
        dCRPS/dsigma = 2 * phi(z) - 1 / sqrt(pi)
    """
    sigma = _check_sigma(sigma)
    return _crps_and_gradient(np.asarray(mu, dtype=float), sigma,
                              np.asarray(y, dtype=float))[1:]


def _crps_and_gradient(mu, sigma, y):
    """(crps_gaussian, *crps_gradient) of float arrays, unchecked.

    The one closed form, and the training loss kernel: z, Phi(z) and
    phi(z) are computed once for the score and both partial derivatives.
    """
    z = (y - mu) / sigma
    phi = np.exp(-0.5 * z * z) / SQRT_2PI
    cdf = 2.0 * ndtr(z) - 1.0
    crps = sigma * (z * cdf + 2.0 * phi - 1.0 / SQRT_PI)
    # guard against tiny negative round-off in the z ~ 0, sigma ~ 0 corner
    return np.maximum(crps, 0.0), -cdf, 2.0 * phi - 1.0 / SQRT_PI


def crps_quadrature_oracle(mu: float, sigma: float, y: float) -> float:
    """Gaussian CRPS by numerical quadrature of the defining integral.

    Integrates [F(q) - 1{q >= y}]^2 over a wide truncated range, split at
    the observation so the integrand is smooth on each piece. Slow and
    scalar by design; it is the independent reference the closed form is
    verified against, so it takes Phi from scipy.special, not from
    :func:`ndtr`. scipy is imported here, so that only callers of the
    oracle pay its import cost.
    """
    from scipy.integrate import quad
    from scipy.special import ndtr

    sigma = float(_check_sigma(sigma))
    mu = float(mu)
    y = float(y)

    lo = min(mu - 12.0 * sigma, y - sigma)
    hi = max(mu + 12.0 * sigma, y + sigma)

    def left(q):
        return ndtr((q - mu) / sigma) ** 2

    def right(q):
        return (ndtr((q - mu) / sigma) - 1.0) ** 2

    total = 0.0
    if lo < y:
        val, _ = quad(left, lo, y, epsabs=1e-13, epsrel=1e-11, limit=200)
        total += val
    if y < hi:
        val, _ = quad(right, y, hi, epsabs=1e-13, epsrel=1e-11, limit=200)
        total += val
    return total


@dataclass(frozen=True)
class GaussianField:
    """Per-cell (mu, sigma) forecast distribution over the grid."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        if mu.shape != sigma.shape:
            raise ValueError("mu and sigma must have the same shape")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise ValueError("GaussianField values must be finite")
        if np.any(sigma <= 0):
            raise ValueError("sigma must be > 0 everywhere")

    def crps(self, observation: np.ndarray) -> np.ndarray:
        return crps_gaussian(self.mu, self.sigma, observation)


def make_weights(indices, n_original: int) -> np.ndarray:
    """Temporal training weights of a list of report indices, in list order.

    ``indices`` may contain duplicates (noise copies share their source's
    fractional index). Distinct indices sorted ascending get raw weights
    1, 2, 4, ...; three plain originals therefore come out 1:2:4 and the
    six-slot augmented case 1:1:2:2:4:4. Normalization is over the report
    list, so duplicated indices count as many times as they appear.
    """
    idx = [float(i) for i in indices]
    if any(i < 1 or i > n_original for i in idx):
        raise ValueError(f"report indices must lie within [1, {n_original}]")
    rank = {d: r for r, d in enumerate(sorted(set(idx)))}
    raw = [2.0 ** rank[i] for i in idx]
    total = sum(raw)
    return np.array([r / total for r in raw])


def weighted_loss(predictions, reports, n_original: int, mask: np.ndarray) -> float:
    """Temporally weighted mean CRPS over masked cells.

    Sum over reports of w_r times the mean closed-form CRPS over ``mask``
    cells, with w_r from :func:`make_weights` of the reports' indices.
    """
    if len(predictions) != len(reports):
        raise ValueError(f"{len(predictions)} predictions vs {len(reports)} reports")
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask selects no cells")
    w = make_weights([r.index for r in reports], n_original)
    total = 0.0
    for wr, pred, rep in zip(w, predictions, reports):
        if rep.observation is None:
            raise ValueError(f"report {rep.index} has no observation")
        scores = crps_gaussian(pred.mu[mask], pred.sigma[mask], rep.observation[mask])
        total += wr * float(np.mean(scores))
    return total


def crpss(model_crps, reference_crps):
    """Skill score 1 - model/reference per cell; positive beats the reference.

    Cells where the reference score is exactly 0 are undefined and come back
    as NaN so callers can exclude them.
    """
    model_crps = np.asarray(model_crps, dtype=float)
    reference_crps = np.asarray(reference_crps, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = model_crps / reference_crps
    out = np.where(reference_crps > 0, 1.0 - ratio, np.nan)
    return out if out.ndim else float(out)
