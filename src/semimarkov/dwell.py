"""Parametric dwell-time distribution families: densities, MLE, BIC selection,
and seeded sampling.

Four families are supported.  Parameterizations (all times in seconds):

* ``Exponential``: mean ``mu``; f(x) = (1/mu) exp(-x/mu), x >= 0.
* ``GeneralizedExtremeValue``: shape ``k``, scale ``sigma``, location ``mu``;
  f(x) = (1/sigma) t(x)^(k+1) exp(-t(x)) with t(x) = (1 + k (x-mu)/sigma)^(-1/k).
  Here k > 0 means a heavy upper tail (note: scipy's `genextreme` uses the
  opposite sign for the shape).
* ``GeneralizedPareto``: shape ``k``, scale ``sigma``, location fixed at 0;
  f(x) = (1/sigma) (1 + k x/sigma)^(-1/k - 1).  For k < 0 the support is the
  bounded interval [0, -sigma/k].
* ``InverseGaussian``: mean ``mu``, shape ``lambda``;
  f(x) = sqrt(lambda / (2 pi x^3)) exp(-lambda (x-mu)^2 / (2 mu^2 x)), x > 0.

A ``DwellFit`` checks its parameters once, when built, and freezes them;
``log_pdf``, ``cdf``, ``quantile`` and ``sample_dwell`` take the fit as is.
``quantile`` covers the closed-form families (Exponential, GEV, GPD), at a
float level or an array of them; ``sample_dwell(fit, rng, min_seconds,
size=n)`` returns an array of n draws, taking InverseGaussian by a
transformation rather than its quantile.

Log densities return -inf outside the support rather than truncating.
Each family's log-density is written once, as a vectorized per-value kernel
``kernel(*theta, values)`` that covers the whole support and is evaluated in
one place, ``_log_density``; ``log_pdf`` returns it, and the fitted
log-likelihoods and the stationarity certificate sum it over distinct values
with their counts in one place, ``_loglik``.  Every fitter takes
values with optional counts, ``fit(xs, counts=None)`` (None: each value once),
such as a cohort's dwell table from ``sequences.durations_by_state`` --
durations lie on a sampling grid, so there are far fewer values than
observations.  The closed forms (Exponential, InverseGaussian) are weighted
sums.  The numerical fits (GEV, GPD) merge repeated values and depend only on
the multiset.  GEV uses Newton-Raphson with the analytic score and observed
information; GPD maximizes its 1-D profile likelihood in theta = k / sigma.
Every fitter returns through one finishing step, ``_finish``, which computes
the log-likelihood and BIC; for GEV and GPD it also requires a finite
log-likelihood whose central-finite-difference gradient at the solution has
norm <= 1e-4 * max(1, |LL|), and raises the one certificate failure otherwise.
"""

from __future__ import annotations

import logging
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize  # noqa: F401  (perfbench/tracing.py wraps dwell.minimize)
from scipy.special import log_ndtr, ndtr

from .errors import (
    AllFitsFailedError,
    DegenerateDataError,
    EmptyInputError,
    FitDidNotConvergeError,
    MinimumDwellWarning,
    NonPositiveDurationError,
    TooFewObservationsError,
)

logger = logging.getLogger(__name__)

EXPONENTIAL = "Exponential"
GEV = "GeneralizedExtremeValue"
GPD = "GeneralizedPareto"
INVERSE_GAUSSIAN = "InverseGaussian"

#: The families select_family tries, in canonical tag order (used for tie-breaking).
FAMILIES = (EXPONENTIAL, GEV, GPD, INVERSE_GAUSSIAN)

PARAM_NAMES = {
    EXPONENTIAL: ("mu",),
    GEV: ("k", "sigma", "mu"),
    GPD: ("k", "sigma"),
    INVERSE_GAUSSIAN: ("mu", "lambda"),
}

#: Positions, in PARAM_NAMES order, of the parameters each family needs positive.
_POSITIVE = {EXPONENTIAL: (0,), GEV: (1,), GPD: (1,), INVERSE_GAUSSIAN: (0, 1)}

# Shape magnitudes below this are evaluated with the k -> 0 limit form.
_SHAPE_EPS = 1e-13
# Minimum observations for the numerically fitted families (GEV, GPD).
_MIN_NUMERIC_OBS = 8
# Stationarity certificate tolerance.
_GRAD_TOL = 1e-4
# A GEV solution that fails the certificate with its finite support end this
# close (relative) to the extreme observation on that side ended at an edge.
_EDGE_TOL = 1e-4
# Newton, step-halving and root-bracketing iteration cap; relative Newton
# decrement after which Newton stops, and relative width at which a root
# bracket stops.
_NEWTON_ITER = 100
_DECREMENT_TOL = 1e-12
_BRACKET_TOL = 1e-12
# GPD profile grid in u = log1p(theta * max(x)), log-spaced on both sides of 0.
# Within |u| < 1e-2 the profile's slope is theta^2 times a near-linear function
# of theta, so it changes sign at most once there and one cell spans it.
_GPD_GRID = np.geomspace(1e-2, 20.0, 24)
_GPD_GRID = np.concatenate([-_GPD_GRID[::-1], _GPD_GRID])
# Attempts sample_dwell makes per draw before it returns the minimum.
_ATTEMPTS = 1000
_EULER_GAMMA = 0.5772156649015329
# exp(-exp(t)) is exactly 0.0 for t at or above this; math.exp overflows beyond it.
_EXP_TOP = 709.0


class _ReadOnlyDict(dict):
    """A dict that refuses every change, so JSON writers still take it as a
    dict: dwell parameters, model maps and metadata, comparison rows."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("this mapping is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):  # pickle and copy would otherwise set items one by one
        return _ReadOnlyDict, (dict(self),)


def _read_only(value):
    """A deep read-only copy of JSON-like data: every mapping becomes a
    read-only dict and every list or tuple a tuple."""
    if isinstance(value, Mapping):
        return _ReadOnlyDict({key: _read_only(item) for key, item in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_read_only(item) for item in value)
    return value


@dataclass(frozen=True)
class DwellFit:
    """A fitted (or analytically specified) dwell-time distribution.

    ``params`` is stored read-only once its names and ranges are checked.
    """

    family: str
    params: Mapping[str, float]
    n_obs: int = 0
    log_likelihood: float | None = None
    bic: float | None = None
    fallback = False  # a class attribute, not a field: perfbench/tracing.py counts it

    def __post_init__(self) -> None:
        family, params = self.family, dict(self.params)
        names = PARAM_NAMES.get(family)
        if names is None:
            raise ValueError(f"unknown dwell family {family!r}")
        if params.keys() != set(names):
            raise ValueError(f"{family} expects parameters {sorted(names)}, got {sorted(params)}")
        positive = [names[i] for i in _POSITIVE[family]]
        if not all(params[name] > 0 for name in positive):
            raise ValueError(f"{family} {' and '.join(positive)} must be positive")
        if not all(math.isfinite(v) for v in params.values()):
            raise ValueError(f"{family} parameters must be finite: {params}")
        object.__setattr__(self, "params", _read_only(params))

    @property
    def n_params(self) -> int:
        return len(PARAM_NAMES[self.family])


# --- densities, CDFs, quantiles ---------------------------------------------


def log_pdf(fit: DwellFit, xs) -> np.ndarray:
    """Natural-log density at each of xs (seconds); -inf outside the support."""
    theta = [fit.params[name] for name in PARAM_NAMES[fit.family]]
    return _log_density(fit.family, theta, np.asarray(xs, dtype=float))


def cdf(fit: DwellFit, x: float) -> float:
    """Cumulative distribution function at x."""
    family, params = fit.family, fit.params
    if family == EXPONENTIAL:
        if x <= 0:
            return 0.0
        return -math.expm1(-x / params["mu"])
    if family == GEV:
        k, sigma, mu = params["k"], params["sigma"], params["mu"]
        z = (x - mu) / sigma
        if abs(k) < _SHAPE_EPS:
            t = -z
        else:
            w = 1.0 + k * z
            if w <= 0.0:
                return 0.0 if k > 0 else 1.0
            t = -math.log(w) / k
        return math.exp(-math.exp(min(t, _EXP_TOP)))
    if family == GPD:
        k, sigma = params["k"], params["sigma"]
        if x <= 0:
            return 0.0
        z = x / sigma
        if abs(k) < _SHAPE_EPS:
            return -math.expm1(-z)
        w = 1.0 + k * z
        if w <= 0.0:  # above the upper endpoint when k < 0
            return 1.0
        return -math.expm1(-math.log(w) / k)
    # InverseGaussian
    mu, lam = params["mu"], params["lambda"]
    if x <= 0:
        return 0.0
    s = math.sqrt(lam / x)
    a = s * (x / mu - 1.0)
    b = s * (x / mu + 1.0)
    return float(ndtr(a) + math.exp(2.0 * lam / mu + log_ndtr(-b)))


def quantile(fit: DwellFit, u):
    """Inverse CDF at u in (0, 1), a float level or an array of them, in
    closed form for Exponential, GEV and GPD; TypeError for InverseGaussian,
    which has none."""
    u = np.asarray(u, dtype=float)
    if not ((u > 0.0) & (u < 1.0)).all():
        raise ValueError(f"quantile levels must be in (0, 1), got {u}")
    family, params = fit.family, fit.params
    if family == EXPONENTIAL:
        return -params["mu"] * np.log1p(-u)
    if family == GEV:
        k, sigma, mu = params["k"], params["sigma"], params["mu"]
        g = np.log(-np.log(u))  # ln(-ln u)
        if abs(k) < _SHAPE_EPS:
            return mu - sigma * g
        return mu + sigma * np.expm1(-k * g) / k
    if family == GPD:
        k, sigma = params["k"], params["sigma"]
        if abs(k) < _SHAPE_EPS:
            return -sigma * np.log1p(-u)
        return sigma * np.expm1(-k * np.log1p(-u)) / k
    raise TypeError(f"{family} has no closed-form quantile")


# --- per-value log-densities (densities, fits and certificates) -------------
# Each kernel returns log f at every value, -inf outside the family's support;
# _log_density alone evaluates it and _loglik alone sums it over a dwell table.


def _exp_logpdf(mu: float, xs: np.ndarray) -> np.ndarray:
    return np.where(xs >= 0.0, -math.log(mu) - xs / mu, -np.inf)


def _gev_logpdf(k: float, sigma: float, mu: float, xs: np.ndarray) -> np.ndarray:
    z = (xs - mu) / sigma
    if abs(k) < _SHAPE_EPS:
        return -math.log(sigma) - z - np.exp(-z)
    w = 1.0 + k * z
    inside = w > 0.0
    lw = np.log(np.where(inside, w, 1.0))
    return np.where(inside, -math.log(sigma) - (1.0 + 1.0 / k) * lw - np.exp(-lw / k), -np.inf)


def _gpd_logpdf(k: float, sigma: float, xs: np.ndarray) -> np.ndarray:
    z = xs / sigma
    if abs(k) < _SHAPE_EPS:
        return np.where(xs >= 0.0, -math.log(sigma) - z, -np.inf)
    w = 1.0 + k * z
    inside = (xs >= 0.0) & (w > 0.0)
    lw = np.log(np.where(inside, w, 1.0))
    return np.where(inside, -math.log(sigma) - (1.0 + 1.0 / k) * lw, -np.inf)


def _ig_logpdf(mu: float, lam: float, xs: np.ndarray) -> np.ndarray:
    inside = xs > 0.0
    x = np.where(inside, xs, 1.0)
    val = (0.5 * (math.log(lam) - math.log(2.0 * math.pi) - 3.0 * np.log(x))
           - lam * ((x - mu) ** 2 / x) / (2.0 * mu * mu))
    return np.where(inside, val, -np.inf)


#: Per-value log-densities in natural parameters, ordered as PARAM_NAMES[family],
#: followed by the values.
_KERNELS = {
    EXPONENTIAL: _exp_logpdf,
    GEV: _gev_logpdf,
    GPD: _gpd_logpdf,
    INVERSE_GAUSSIAN: _ig_logpdf,
}


def _log_density(family: str, theta, xs: np.ndarray) -> np.ndarray:
    """The family's log-density at parameters theta at each of xs."""
    # exp overflows where the density underflows; log f is -inf there
    with np.errstate(over="ignore"):
        return _KERNELS[family](*theta, xs)


def _loglik(family: str, theta, xs: np.ndarray, counts: np.ndarray) -> float:
    """Log-likelihood of distinct values xs seen counts times, at parameters
    theta; -inf where a parameter of _POSITIVE is not positive, or for a
    non-finite sum."""
    if not all(theta[i] > 0 for i in _POSITIVE[family]):
        return -math.inf
    val = float(counts @ _log_density(family, theta, xs))
    return val if math.isfinite(val) else -math.inf


def bic(log_likelihood: float, n_params: int, n_obs: int) -> float:
    """Bayesian Information Criterion: n_params * ln(n_obs) - 2 * LL (lower wins)."""
    if n_obs < 1:
        raise ValueError("n_obs must be at least 1")
    if n_params < 0:
        raise ValueError("n_params must be non-negative")
    return n_params * math.log(n_obs) - 2.0 * log_likelihood


# --- finishing a fit: log-likelihood, BIC, stationarity certificate ----------


def _fd_gradient_norm(
    family: str, theta: np.ndarray, xs: np.ndarray, counts: np.ndarray
) -> float:
    """Central finite-difference gradient norm of the log-likelihood."""
    grad = np.zeros(len(theta))
    for i in range(len(theta)):
        h = 1e-5 * max(1.0, abs(theta[i]))
        for _ in range(4):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            lp, lm = _loglik(family, tp, xs, counts), _loglik(family, tm, xs, counts)
            if math.isfinite(lp) and math.isfinite(lm):
                grad[i] = (lp - lm) / (2.0 * h)
                break
            h *= 0.1  # step crossed a support boundary; shrink
        else:
            return math.inf
    return float(np.linalg.norm(grad))


def _finish(family: str, theta, xs: np.ndarray, counts: np.ndarray) -> DwellFit:
    """The fit of family at parameters theta to values xs seen counts times,
    with its log-likelihood and BIC.

    Every fitter returns through here.  A numerical fit (GEV, GPD) is accepted
    only with a finite log-likelihood whose central-finite-difference gradient
    norm is at most _GRAD_TOL * max(1, |LL|); FitDidNotConvergeError otherwise.
    """
    theta = np.asarray(theta, dtype=float)
    ll = _loglik(family, theta, xs, counts)
    if family in (GEV, GPD) and not (
        math.isfinite(ll)
        and _fd_gradient_norm(family, theta, xs, counts) <= _GRAD_TOL * max(1.0, abs(ll))
    ):
        raise FitDidNotConvergeError(f"{family} fit failed its stationarity certificate")
    n = int(counts.sum())
    return DwellFit(family, dict(zip(PARAM_NAMES[family], theta.tolist())), n, ll,
                    bic(ll, len(theta), n))


# --- closed-form fits --------------------------------------------------------


def _as_sample(xs, counts, minimum: float = 0.0) -> tuple[np.ndarray, np.ndarray, int]:
    """Float values above minimum, their int64 counts (default 1) and total."""
    arr = np.asarray(xs, dtype=float).ravel()
    if arr.size == 0:
        raise EmptyInputError("no durations supplied")
    if np.any(arr <= minimum):
        raise NonPositiveDurationError(
            f"durations must exceed {minimum}; min was {arr.min()}"
        )
    weights = np.ones(arr.size, dtype=np.int64) if counts is None else np.asarray(counts)
    if weights.shape != arr.shape or weights.dtype.kind not in "iu" or np.any(weights < 1):
        raise ValueError("counts must be positive integers, one per duration value")
    return arr, weights.astype(np.int64), int(weights.sum())


def fit_exponential(xs, counts=None) -> DwellFit:
    """Closed-form exponential MLE: mu-hat = mean(x), weighted by the counts."""
    arr, counts, n = _as_sample(xs, counts)
    mu = float((counts * arr).sum() / n)
    return _finish(EXPONENTIAL, (mu,), arr, counts)


def fit_inverse_gaussian(xs, counts=None) -> DwellFit:
    """Closed-form inverse-Gaussian MLE: mu = mean, lambda = n / sum(1/x - 1/mu)."""
    arr, counts, n = _as_sample(xs, counts)
    if n < 2:
        raise TooFewObservationsError("inverse-Gaussian fit needs at least 2 observations")
    mu = float((counts * arr).sum() / n)
    denom = float((counts / arr).sum() - n / mu)
    if denom <= 0.0 or not math.isfinite(denom):
        raise DegenerateDataError("all observations equal; lambda is undefined")
    return _finish(INVERSE_GAUSSIAN, (mu, n / denom), arr, counts)


# --- numerical fits ----------------------------------------------------------


def _distinct_sample(
    label: str, xs, counts, minimum: float = 0.0
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Distinct values with their merged counts, and the sample mean and
    variance (ddof=1), of a sample for a numerical fit.

    Everything is computed from the sorted distinct values, so the result does
    not depend on the order of the observations.
    """
    arr, counts, n = _as_sample(xs, counts, minimum)
    if n < _MIN_NUMERIC_OBS:
        raise TooFewObservationsError(
            f"{label} fit needs at least {_MIN_NUMERIC_OBS} observations, got {n}"
        )
    values, which = np.unique(arr, return_inverse=True)
    if len(values) < 2:
        raise FitDidNotConvergeError("observations carry no spread")
    counts = np.bincount(which, weights=counts).astype(np.int64)
    mean = float((counts * values).sum() / n)
    var = float((counts * (values - mean) ** 2).sum() / (n - 1))
    return values, counts, mean, var


def _gev_derivatives(
    k: float, sigma: float, mu: float, xs: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Score and Hessian of the GEV log-likelihood in (k, sigma, mu).

    Per observation the log-likelihood is -log sigma + phi(k, z) with
    z = (x - mu) / sigma, phi = -(1 + 1/k) log w - s, w = 1 + k z and
    s = w^(-1/k); the chain rule through z gives the sigma and mu terms.
    """
    z = (xs - mu) / sigma
    w = 1.0 + k * z
    log_w = np.log(w)
    s = np.exp(-log_w / k)
    a = z / (k * w)
    r = log_w / (k * k) - a  # d(log s)/dk
    phi_z = (s - 1.0 - k) / w
    phi_zz = (1.0 + k) * (k - s) / (w * w)
    phi_kz = (s * r - 1.0 - z * phi_z) / w
    t = np.stack([
        (1.0 - s) * r - k * a,  # phi_k
        -1.0 - z * phi_z,
        -phi_z,
        -2.0 * r * (1.0 - s) / k + k * a * a * (1.0 + k - s) - s * r * r,  # phi_kk
        -z * phi_kz,
        -phi_kz,
        1.0 + z * (z * phi_zz + 2.0 * phi_z),
        z * phi_zz + phi_z,
        phi_zz,
    ]) @ counts
    score = np.array([t[0], t[1] / sigma, t[2] / sigma])
    s1, s2 = sigma, sigma * sigma
    hess = np.array([
        [t[3], t[4] / s1, t[5] / s1],
        [t[4] / s1, t[6] / s2, t[7] / s2],
        [t[5] / s1, t[7] / s2, t[8] / s2],
    ])
    return score, hess


def _newton_step(info: np.ndarray, score: np.ndarray) -> np.ndarray | None:
    """Solve (info + lam D) step = score, with D = diag(|info|).

    lam is 0 when the observed information is positive definite and is
    otherwise raised tenfold from 1e-3 until the shifted matrix is
    (Levenberg-Marquardt).  None if info is not finite, has a zero diagonal,
    or no shift makes it positive definite.
    """
    d = np.sqrt(np.abs(np.diag(info)))
    if not (np.all(np.isfinite(info)) and np.all(d > 0.0)):
        return None
    scaled = info / np.outer(d, d)
    lam = 0.0
    for _ in range(_NEWTON_ITER):
        shifted = scaled + lam * np.eye(len(d))
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            lam = max(1e-3, 10.0 * lam)
            continue
        return np.linalg.solve(shifted, score / d) / d
    return None


def _gev_newton(values: np.ndarray, counts: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Newton-Raphson ascent of the GEV log-likelihood from theta = (k, sigma, mu).

    A step that leaves the support or lowers the log-likelihood is halved.
    Stops after a step whose Newton decrement (score . step, twice the
    predicted gain) was at most _DECREMENT_TOL relative to the log-likelihood,
    so the step itself lands at the maximum to rounding, or when no halving
    keeps the log-likelihood from falling; returns theta.
    """
    ll = _loglik(GEV, theta, values, counts)
    if not math.isfinite(ll):
        return theta
    for _ in range(_NEWTON_ITER):
        score, hess = _gev_derivatives(*theta, values, counts)
        step = _newton_step(-hess, score)
        if step is None:
            break
        decrement = float(score @ step)
        for _ in range(_NEWTON_ITER):
            trial = theta + step
            ll_trial = _loglik(GEV, trial, values, counts)
            if ll_trial >= ll:
                break
            step = 0.5 * step
        else:
            break
        theta, ll = trial, ll_trial
        if decrement <= _DECREMENT_TOL * max(1.0, abs(ll)):
            break
    return theta


def fit_gev(xs, counts=None) -> DwellFit:
    """MLE of the generalized extreme value family.

    Newton-Raphson with the analytic score and observed information (Hosking
    1985, AS 215) from the Gumbel method-of-moments start with k = 0.1.  A
    solution that fails the finite-difference stationarity certificate raises
    FitDidNotConvergeError.  Its message names the edge when the support's
    finite end mu - sigma/k meets the extreme observation on that side: for
    k < -1 the likelihood is unbounded as the upper end closes on max x, and
    Newton stops there rather than at an interior maximum.
    """
    values, counts, m, v = _distinct_sample("GEV", xs, counts, minimum=-math.inf)
    s = math.sqrt(v)
    sigma0 = s * math.sqrt(6.0) / math.pi
    mu0 = m - _EULER_GAMMA * sigma0
    theta = _gev_newton(values, counts, np.array([0.1, sigma0, mu0]))
    try:
        return _finish(GEV, theta, values, counts)
    except FitDidNotConvergeError:
        k, sigma, mu = theta.tolist()
        end = mu - sigma / k if abs(k) >= _SHAPE_EPS else math.nan  # the finite support end
        side, extreme, x = ("upper", "largest", values[-1]) if k < 0 else (
            "lower", "smallest", values[0])
        if abs(end - x) <= _EDGE_TOL * max(1.0, abs(x)):
            raise FitDidNotConvergeError(
                f"{GEV} fit ended at an edge of the likelihood: the support's {side} end "
                f"mu - sigma/k = {end:.6g} meets the {extreme} observation (k = {k:.6g})"
            ) from None
        raise


def _gpd_profile_slope(theta: float, values: np.ndarray, weights: np.ndarray) -> float:
    """A function with the sign of the GPD profile log-likelihood's slope.

    For weights summing to one, k(theta) = sum w log1p(theta x) is the shape
    that maximizes the likelihood at fixed theta = k / sigma, and
    h(theta) = (1 + k) sum w / (1 + theta x) - 1 (Grimshaw 1993) has the
    sign of the profile's slope.  h is evaluated as k - (1 + k) B with
    B = sum w theta x / (1 + theta x), which keeps its relative precision
    down to |theta x| of about 1e-10, where h ~ theta^2.
    """
    y = theta * values
    k = float(np.log1p(y) @ weights)
    return k - (1.0 + k) * float((y / (1.0 + y)) @ weights)


def _bracketed_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """A root of f between a and b, where fa = f(a) and fb = f(b) differ in sign.

    Regula falsi with the Illinois rule: when the same end is kept twice its
    value is halved, so the bracket closes from both sides superlinearly.
    """
    side = 0
    for _ in range(_NEWTON_ITER):
        c = (a * fb - b * fa) / (fb - fa)
        if abs(b - a) <= _BRACKET_TOL * abs(c):
            break
        fc = f(c)
        if fc == 0.0:
            break
        if (fc > 0.0) == (fb > 0.0):
            b, fb = c, fc
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            a, fa = c, fc
            if side == 1:
                fb *= 0.5
            side = 1
    return c


def fit_gpd(xs, counts=None) -> DwellFit:
    """MLE of the generalized Pareto family (location fixed at 0).

    Maximizes the 1-D profile log-likelihood in theta = k / sigma (Grimshaw
    1993), with k = k(theta) and sigma = k / theta.  The sign of its slope is
    scanned on a fixed log-spaced theta grid on both sides of 0, from just
    above the support bound -1/max(x); each change from rising to falling
    brackets a local maximum, which regula falsi refines; of those with
    k > -1 the highest is kept.  The likelihood is unbounded for k < -1, and
    its supremum over k > -1 may lie at the edge k -> -1 (the uniform on
    [0, max x], with log-likelihood -n log max x).  Such a sample has no interior MLE and
    raises FitDidNotConvergeError, as does a solution that fails the
    stationarity certificate.
    """
    values, counts, _, _ = _distinct_sample("GPD", xs, counts)
    n = int(counts.sum())
    weights = counts / n
    grid = np.expm1(_GPD_GRID) / values[-1]
    h = np.array([_gpd_profile_slope(t, values, weights) for t in grid])
    if h[-1] > 0.0:
        raise FitDidNotConvergeError("GPD profile likelihood still rises at the top of its grid")
    best = None
    # wherever k(theta) <= -1, 1 + k <= 0 and theta < 0 make h <= k < 0, so a
    # bracket never starts there and its root has k = B / (1 - B) > -1; the
    # check on the refined shape only guards rounding
    for i in np.flatnonzero((h[:-1] > 0.0) & (h[1:] <= 0.0)):
        theta = _bracketed_root(
            lambda t: _gpd_profile_slope(t, values, weights), grid[i], grid[i + 1], h[i], h[i + 1]
        )
        shape = float(np.log1p(theta * values) @ weights)
        if not shape > -1.0:
            continue
        params = np.array([shape, shape / theta])
        ll = _loglik(GPD, params, values, counts)
        if best is None or ll > best[1]:
            best = (params, ll)
    if best is None or not best[1] > -n * math.log(values[-1]):
        raise FitDidNotConvergeError(
            "GPD likelihood has no interior maximum: its supremum over k > -1 lies "
            "at the k > -1 edge (k -> -1, the uniform on [0, max x])"
        )
    return _finish(GPD, best[0], values, counts)


_FITTERS = {
    EXPONENTIAL: fit_exponential,
    GEV: fit_gev,
    GPD: fit_gpd,
    INVERSE_GAUSSIAN: fit_inverse_gaussian,
}

_SKIPPABLE = (
    EmptyInputError,
    NonPositiveDurationError,
    DegenerateDataError,
    TooFewObservationsError,
    FitDidNotConvergeError,
)


def fit_all_families(xs, counts=None) -> tuple[dict[str, DwellFit], dict[str, str]]:
    """Fit every family in FAMILIES, returning (fits, skip reasons)."""
    fits: dict[str, DwellFit] = {}
    skipped: dict[str, str] = {}
    for family in FAMILIES:
        try:
            fits[family] = _FITTERS[family](xs, counts)
        except _SKIPPABLE as exc:
            skipped[family] = f"{type(exc).__name__}: {exc}"
            logger.debug("skipping %s: %s", family, skipped[family])
    return fits, skipped


def select_family(xs, counts=None) -> DwellFit:
    """Fit every family in FAMILIES and return the fit with minimal BIC.

    Families whose preconditions fail (or whose fit does not converge) are
    skipped; AllFitsFailedError if every one is.  Ties break toward fewer
    parameters, then canonical tag order.
    """
    fits, skipped = fit_all_families(xs, counts)
    if not fits:
        raise AllFitsFailedError(f"no candidate family could be fitted: {skipped}")
    return min(
        fits.values(),
        key=lambda f: (f.bic, f.n_params, FAMILIES.index(f.family)),
    )


# --- sampling ----------------------------------------------------------------


def _sample_inverse_gaussian(mu: float, lam: float, rng, n: int) -> np.ndarray:
    # transformation with root selection (chi-square of a standard normal)
    y = rng.standard_normal(n) ** 2
    x = mu + (mu * mu * y) / (2.0 * lam) - (mu / (2.0 * lam)) * np.sqrt(
        4.0 * mu * lam * y + (mu * y) ** 2
    )
    with np.errstate(divide="ignore", invalid="ignore"):  # x <= 0 is rejected later
        return np.where(rng.random(n) <= mu / (mu + x), x, mu * mu / x)


def _draw(fit: DwellFit, rng, n: int) -> np.ndarray:
    """n unchecked dwell draws: the transformation method for InverseGaussian,
    the module-level ``quantile`` of n uniforms for the other families."""
    if fit.family == INVERSE_GAUSSIAN:
        return _sample_inverse_gaussian(fit.params["mu"], fit.params["lambda"], rng, n)
    # random() lies in [0, 1) on a grid of spacing 2**-53; a quarter of that
    # spacing moves every level off 0 and rounds away near 1, so each lies in
    # quantile's open interval (0, 1)
    return quantile(fit, rng.random(n) + 2.0**-55)


def _round_size(need: int, kept: float) -> int:
    """Raw draws for a round that should keep ``need`` of them when a share
    ``kept`` of draws is kept: the mean plus about four standard deviations,
    at most ``_ATTEMPTS`` per draw and at most max(need, 2**16) at once."""
    want = (need + 4.0 * math.sqrt(need * (1.0 - kept))) / kept if kept > 0.0 else math.inf
    return math.ceil(min(want, _ATTEMPTS * need, max(need, 1 << 16)))


def sample_dwell(fit: DwellFit, rng, min_seconds: float = 0.0, *, size: int) -> np.ndarray:
    """Draw an array of ``size`` dwell times (seconds) from a fitted distribution.

    Inverse-CDF sampling for the closed-form families; the transformation
    method for InverseGaussian.  A raw draw that is non-positive, NaN or
    below ``min_seconds`` (one sample period, during simulation) is rejected
    and the next one tried, in draw order; a draw that meets 1000 straight
    rejections is set to the minimum instead, with a warning.  Raw draws come
    in rounds sized from the fit's share of kept draws, so one round
    usually yields all ``size`` draws.
    """
    floor = min_seconds if min_seconds > 0.0 else 1e-12
    kept = 1.0 - cdf(fit, max(min_seconds, 0.0))  # share of raw draws kept
    out = np.empty(size)
    have = misses = hit = 0  # misses: the draw in progress's rejections so far
    while have < size:
        need = size - have
        m = _round_size(need, kept)
        x = _draw(fit, rng, m)
        keep = x >= min_seconds if min_seconds > 0.0 else x > 0.0  # NaN fails both
        got = x[keep]
        if misses + m - got.size < _ATTEMPTS:  # too few rejections for any draw to hit the bound
            misses = int(keep[::-1].argmax()) if got.size else misses + m
            got = got[:need]
        else:  # walk the round in draw order
            idx, last = [], -1 - misses
            for i in np.flatnonzero(keep).tolist() + [m]:  # each kept draw, then the round's end
                lost, misses = divmod(i - last - 1, _ATTEMPTS)
                idx += [m] * lost + [i]  # index m: a draw set to the minimum
                last = i
            idx = idx[:-1][:need]
            hit += idx.count(m)
            got = np.append(x, floor)[idx]
        out[have:have + got.size] = got
        have += got.size
    if hit:
        warnings.warn(
            f"dwell sampling for {fit.family} hit the rejection bound on "
            f"{hit} of {size} draws; returning minimum {floor} s",
            MinimumDwellWarning,
            stacklevel=2,
        )
    return out
