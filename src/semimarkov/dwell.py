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

Log densities return -inf outside the support rather than truncating.
Each family's log-density is written once, as a vectorized log-likelihood
kernel over distinct values and their counts, ``kernel(*theta, values,
counts)``; the same kernel gives ``log_pdf`` (one value, count one), the
fitted log-likelihoods and the stationarity certificate.  Every fitter takes
values with optional counts, ``fit(xs, counts=None)`` (None: each value once),
such as a cohort's dwell table from ``sequences.durations_by_state`` --
durations lie on a sampling grid, so there are far fewer values than
observations.  The closed forms (Exponential, InverseGaussian) are weighted
sums.  The numerical fits (GEV, GPD) merge repeated values, depend only on the
multiset, use a derivative-free simplex search and are accepted only if the
central-finite-difference gradient of the log-likelihood at the solution has
norm <= 1e-4 * max(1, |LL|).
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize
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

#: Default candidate families, in canonical tag order (used for tie-breaking).
FAMILIES = (EXPONENTIAL, GEV, GPD, INVERSE_GAUSSIAN)

PARAM_NAMES = {
    EXPONENTIAL: ("mu",),
    GEV: ("k", "sigma", "mu"),
    GPD: ("k", "sigma"),
    INVERSE_GAUSSIAN: ("mu", "lambda"),
}
_PARAM_KEYS = {family: frozenset(names) for family, names in PARAM_NAMES.items()}

# Shape magnitudes below this are evaluated with the k -> 0 limit form.
_SHAPE_EPS = 1e-13
# Minimum observations for the numerically fitted families (GEV, GPD).
_MIN_NUMERIC_OBS = 8
# Simplex search budget and the stationarity certificate tolerance.
_MAX_ITER = 2000
_PARAM_TOL = 1e-8
_GRAD_TOL = 1e-4
_EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class DwellFit:
    """A fitted (or analytically specified) dwell-time distribution.

    ``truncation_s`` shifts the support: the fit models ``truncation_s + X``
    where X follows the stated family.  It is nonzero only for left-truncated
    exponential tail fits.  ``fallback`` marks fits produced by the
    exponential-only downgrade path after every candidate family failed.
    """

    family: str
    params: dict[str, float]
    n_obs: int = 0
    log_likelihood: float | None = None
    bic: float | None = None
    truncation_s: float = 0.0
    fallback: bool = False

    def __post_init__(self) -> None:
        _validate_params(self.family, self.params)
        if not all(math.isfinite(v) for v in self.params.values()):
            raise ValueError(f"{self.family} parameters must be finite: {self.params}")
        if not (math.isfinite(self.truncation_s) and self.truncation_s >= 0.0):
            raise ValueError(
                f"truncation_s must be finite and non-negative, got {self.truncation_s!r}"
            )

    @property
    def n_params(self) -> int:
        return len(PARAM_NAMES[self.family])


def _validate_params(family: str, params: dict[str, float]) -> None:
    expected = _PARAM_KEYS.get(family)
    if expected is None:
        raise ValueError(f"unknown dwell family {family!r}")
    if params.keys() != expected:
        raise ValueError(
            f"{family} expects parameters {sorted(expected)}, got {sorted(params)}"
        )
    if family == EXPONENTIAL and not params["mu"] > 0:
        raise ValueError("Exponential mu must be positive")
    if family in (GEV, GPD) and not params["sigma"] > 0:
        raise ValueError(f"{family} sigma must be positive")
    if family == INVERSE_GAUSSIAN:
        if not params["mu"] > 0 or not params["lambda"] > 0:
            raise ValueError("InverseGaussian mu and lambda must be positive")


# --- densities, CDFs, quantiles ---------------------------------------------


def log_pdf(family: str, params: dict[str, float], x: float) -> float:
    """Natural-log density at x (seconds).  Returns -inf outside the support."""
    _validate_params(family, params)
    # the lower end of the support; the kernels check the parameter-dependent ends
    if x < 0 and family in (EXPONENTIAL, GPD) or x <= 0 and family == INVERSE_GAUSSIAN:
        return -math.inf
    theta = [params[name] for name in PARAM_NAMES[family]]
    return _KERNELS[family](*theta, np.array([x], dtype=float), np.ones(1))


def cdf(family: str, params: dict[str, float], x: float) -> float:
    """Cumulative distribution function at x."""
    _validate_params(family, params)
    if family == EXPONENTIAL:
        if x <= 0:
            return 0.0
        return -math.expm1(-x / params["mu"])
    if family == GEV:
        k, sigma, mu = params["k"], params["sigma"], params["mu"]
        z = (x - mu) / sigma
        if abs(k) < _SHAPE_EPS:
            return math.exp(-math.exp(-z))
        w = 1.0 + k * z
        if w <= 0.0:
            return 0.0 if k > 0 else 1.0
        return math.exp(-math.exp(-math.log(w) / k))
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


def quantile(family: str, params: dict[str, float], u: float) -> float:
    """Inverse CDF at u in (0, 1).

    Closed form for Exponential, GEV, and GPD; numerical inversion of the
    CDF for InverseGaussian.
    """
    _validate_params(family, params)
    if not 0.0 < u < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {u}")
    if family == EXPONENTIAL:
        return -params["mu"] * math.log1p(-u)
    if family == GEV:
        k, sigma, mu = params["k"], params["sigma"], params["mu"]
        g = math.log(-math.log(u))  # ln(-ln u)
        if abs(k) < _SHAPE_EPS:
            return mu - sigma * g
        return mu + sigma * math.expm1(-k * g) / k
    if family == GPD:
        k, sigma = params["k"], params["sigma"]
        if abs(k) < _SHAPE_EPS:
            return -sigma * math.log1p(-u)
        return sigma * math.expm1(-k * math.log1p(-u)) / k
    # InverseGaussian: strictly increasing CDF, bracket then root-find
    mu = params["mu"]
    lo, hi = mu * 1e-12, mu
    while cdf(family, params, hi) < u:
        hi *= 2.0
        if hi > mu * 1e18:  # pragma: no cover - unreachable for valid u
            raise ArithmeticError("failed to bracket InverseGaussian quantile")
    while cdf(family, params, lo) > u:
        lo *= 0.5
    return float(
        brentq(lambda x: cdf(family, params, x) - u, lo, hi, xtol=1e-300, rtol=8.9e-16,
               maxiter=200)
    )


def dwell_log_pdf(fit: DwellFit, x: float) -> float:
    """Log density of a DwellFit at x, honoring any left truncation shift."""
    return log_pdf(fit.family, fit.params, x - fit.truncation_s)


# --- vectorized log-likelihoods (densities, fits and certificates) ---------
# Each kernel sums counts[i] * log f(xs[i]); a per-observation sum passes
# counts of one.


def _exp_loglik(mu: float, xs: np.ndarray, counts: np.ndarray) -> float:
    return float(-counts.sum() * math.log(mu) - (counts * xs).sum() / mu)


def _gev_loglik(
    k: float, sigma: float, mu: float, xs: np.ndarray, counts: np.ndarray
) -> float:
    if sigma <= 0:
        return -math.inf
    z = (xs - mu) / sigma
    n = counts.sum()
    if abs(k) < _SHAPE_EPS:
        val = -n * math.log(sigma) - (counts * z).sum() - (counts * np.exp(-z)).sum()
        return float(val) if np.isfinite(val) else -math.inf
    w = 1.0 + k * z
    if w.min() <= 0.0:
        return -math.inf
    lw = np.log(w)
    val = (-n * math.log(sigma) - (1.0 + 1.0 / k) * (counts * lw).sum()
           - (counts * np.exp(-lw / k)).sum())
    return float(val) if np.isfinite(val) else -math.inf


def _gpd_loglik(k: float, sigma: float, xs: np.ndarray, counts: np.ndarray) -> float:
    if sigma <= 0:
        return -math.inf
    n = counts.sum()
    z = xs / sigma
    if abs(k) < _SHAPE_EPS:
        return float(-n * math.log(sigma) - (counts * z).sum())
    w = 1.0 + k * z
    if w.min() <= 0.0:
        return -math.inf
    val = -n * math.log(sigma) - (1.0 + 1.0 / k) * (counts * np.log(w)).sum()
    return float(val) if np.isfinite(val) else -math.inf


def _ig_loglik(mu: float, lam: float, xs: np.ndarray, counts: np.ndarray) -> float:
    n = counts.sum()
    val = 0.5 * (n * (math.log(lam) - math.log(2.0 * math.pi))
                 - 3.0 * (counts * np.log(xs)).sum())
    val -= (lam * (counts * ((xs - mu) ** 2 / xs)).sum()) / (2.0 * mu * mu)
    return float(val)


#: Log-likelihood kernels in natural parameters, ordered as PARAM_NAMES[family],
#: followed by (values, counts).
_KERNELS = {
    EXPONENTIAL: _exp_loglik,
    GEV: _gev_loglik,
    GPD: _gpd_loglik,
    INVERSE_GAUSSIAN: _ig_loglik,
}


def bic(log_likelihood: float, n_params: int, n_obs: int) -> float:
    """Bayesian Information Criterion: n_params * ln(n_obs) - 2 * LL (lower wins)."""
    if n_obs < 1:
        raise ValueError("n_obs must be at least 1")
    if n_params < 0:
        raise ValueError("n_params must be non-negative")
    return n_params * math.log(n_obs) - 2.0 * log_likelihood


# --- stationarity certificate ------------------------------------------------


def _fd_gradient_norm(
    family: str, theta: np.ndarray, xs: np.ndarray, counts: np.ndarray
) -> float:
    """Central finite-difference gradient norm of the log-likelihood."""
    kernel = _KERNELS[family]
    grad = np.zeros(len(theta))
    for i in range(len(theta)):
        h = 1e-5 * max(1.0, abs(theta[i]))
        for _ in range(4):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            lp, lm = kernel(*tp, xs, counts), kernel(*tm, xs, counts)
            if math.isfinite(lp) and math.isfinite(lm):
                grad[i] = (lp - lm) / (2.0 * h)
                break
            h *= 0.1  # step crossed a support boundary; shrink
        else:
            return math.inf
    return float(np.linalg.norm(grad))


def _certify(
    family: str, theta: np.ndarray, xs: np.ndarray, counts: np.ndarray, ll: float
) -> bool:
    return _fd_gradient_norm(family, theta, xs, counts) <= _GRAD_TOL * max(1.0, abs(ll))


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


def fit_exponential(xs, counts=None, truncation_s: float = 0.0) -> DwellFit:
    """Closed-form exponential MLE, optionally left-truncated at truncation_s.

    With truncation c, fits the shifted model c + Exponential(mu) to the
    observations above c: mu-hat = mean(x - c), weighted by the counts.
    """
    if truncation_s < 0:
        raise ValueError("truncation_s must be non-negative")
    arr, counts, n = _as_sample(xs, counts, minimum=truncation_s)
    shifted = arr - truncation_s
    mu = float((counts * shifted).sum() / n)
    ll = _exp_loglik(mu, shifted, counts)
    return DwellFit(
        family=EXPONENTIAL,
        params={"mu": mu},
        n_obs=n,
        log_likelihood=ll,
        bic=bic(ll, 1, n),
        truncation_s=truncation_s,
    )


def fit_inverse_gaussian(xs, counts=None) -> DwellFit:
    """Closed-form inverse-Gaussian MLE: mu = mean, lambda = n / sum(1/x - 1/mu)."""
    arr, counts, n = _as_sample(xs, counts)
    if n < 2:
        raise TooFewObservationsError("inverse-Gaussian fit needs at least 2 observations")
    mu = float((counts * arr).sum() / n)
    denom = float((counts / arr).sum() - n / mu)
    if denom <= 0.0 or not math.isfinite(denom):
        raise DegenerateDataError("all observations equal; lambda is undefined")
    lam = n / denom
    ll = _ig_loglik(mu, lam, arr, counts)
    return DwellFit(
        family=INVERSE_GAUSSIAN,
        params={"mu": mu, "lambda": lam},
        n_obs=n,
        log_likelihood=ll,
        bic=bic(ll, 2, n),
    )


# --- numerical fits ----------------------------------------------------------


def _simplex_fit(nll, x0: np.ndarray) -> np.ndarray:
    # nll returns inf outside the support; silence the resulting inf-inf
    # chatter inside the simplex bookkeeping
    with np.errstate(invalid="ignore"):
        res = minimize(
            nll,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": _MAX_ITER,
                "xatol": _PARAM_TOL,
                "fatol": 1e-9,
                "adaptive": True,
            },
        )
    return np.asarray(res.x, dtype=float)


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


def _certified_simplex_fit(
    family: str,
    values: np.ndarray,
    counts: np.ndarray,
    x0: np.ndarray,
    step: np.ndarray,
    natural,
) -> DwellFit:
    """Simplex MLE over search coordinates t, with natural(t) the parameters.

    The log-likelihood is summed over the distinct ``values`` weighted by
    their ``counts``.  The search runs on log sigma, so sigma stays positive.
    It starts from x0 and, if the stationarity certificate fails there, once
    more from x0 + step; the first certified solution is returned.
    """
    kernel = _KERNELS[family]

    def nll(t):
        val = kernel(*natural(t), values, counts)
        return -val if math.isfinite(val) else math.inf

    for t0 in (x0, x0 + step):
        theta = np.array(natural(_simplex_fit(nll, t0)))
        ll = kernel(*theta, values, counts)
        if math.isfinite(ll) and _certify(family, theta, values, counts, ll):
            n = int(counts.sum())
            return DwellFit(
                family=family,
                params=dict(zip(PARAM_NAMES[family], theta.tolist())),
                n_obs=n,
                log_likelihood=ll,
                bic=bic(ll, len(PARAM_NAMES[family]), n),
            )
    raise FitDidNotConvergeError(f"{family} fit failed its stationarity certificate")


def fit_gev(xs, counts=None) -> DwellFit:
    """MLE of the generalized extreme value family by simplex search.

    Initialized from Gumbel method-of-moments; the result is accepted only
    if the finite-difference stationarity certificate holds (one restart
    from a perturbed initialization before giving up).
    """
    values, counts, m, v = _distinct_sample("GEV", xs, counts, minimum=-math.inf)
    s = math.sqrt(v)
    sigma0 = s * math.sqrt(6.0) / math.pi
    mu0 = m - _EULER_GAMMA * sigma0
    return _certified_simplex_fit(
        GEV,
        values,
        counts,
        np.array([0.1, math.log(sigma0), mu0]),
        np.array([0.2, 0.1, 0.05 * s]),
        lambda t: (t[0], math.exp(t[1]), t[2]),
    )


def fit_gpd(xs, counts=None) -> DwellFit:
    """MLE of the generalized Pareto family (location fixed at 0).

    Initialized from the method of moments.  For k < 0 the support
    constraint sigma > -k * max(x) is enforced through the likelihood
    (out-of-support parameters score -inf).
    """
    values, counts, m, v = _distinct_sample("GPD", xs, counts)
    k0 = 0.5 * (1.0 - m * m / v)
    sigma0 = m * (1.0 - k0)
    return _certified_simplex_fit(
        GPD,
        values,
        counts,
        np.array([k0, math.log(sigma0)]),
        np.array([0.2, 0.1]),
        lambda t: (t[0], math.exp(t[1])),
    )


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


def fit_all_families(
    xs, counts=None, candidates=FAMILIES
) -> tuple[dict[str, DwellFit], dict[str, str]]:
    """Fit every candidate family, returning (fits, skip reasons)."""
    fits: dict[str, DwellFit] = {}
    skipped: dict[str, str] = {}
    for family in candidates:
        if family not in _FITTERS:
            raise ValueError(f"unknown dwell family {family!r}")
        try:
            fits[family] = _FITTERS[family](xs, counts)
        except _SKIPPABLE as exc:
            skipped[family] = f"{type(exc).__name__}: {exc}"
            logger.debug("skipping %s: %s", family, skipped[family])
    return fits, skipped


def select_family(xs, counts=None, candidates=FAMILIES) -> DwellFit:
    """Fit the candidates and return the fit with minimal BIC.

    Candidates whose preconditions fail (or whose fit does not converge) are
    skipped.  Ties break toward fewer parameters, then canonical tag order.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    fits, skipped = fit_all_families(xs, counts, candidates)
    if not fits:
        raise AllFitsFailedError(f"no candidate family could be fitted: {skipped}")
    return min(
        fits.values(),
        key=lambda f: (f.bic, f.n_params, FAMILIES.index(f.family)),
    )


# --- sampling ----------------------------------------------------------------


def _sample_inverse_gaussian(mu: float, lam: float, rng) -> float:
    # transformation with root selection (chi-square of a standard normal)
    nu = rng.standard_normal()
    y = nu * nu
    x = mu + (mu * mu * y) / (2.0 * lam) - (mu / (2.0 * lam)) * math.sqrt(
        4.0 * mu * lam * y + (mu * y) ** 2
    )
    if rng.random() <= mu / (mu + x):
        return x
    return mu * mu / x


def sample_dwell(fit: DwellFit, rng, min_seconds: float = 0.0) -> float:
    """Draw one dwell time (seconds) from a fitted distribution.

    Inverse-CDF sampling for the closed-form families; the transformation
    method for InverseGaussian.  Draws that are non-positive or below
    ``min_seconds`` (one sample period, during simulation) are rejected and
    redrawn; after 1000 attempts the minimum is returned with a warning.
    """
    attempts = 1000
    for _ in range(attempts):
        if fit.family == INVERSE_GAUSSIAN:
            x = _sample_inverse_gaussian(fit.params["mu"], fit.params["lambda"], rng)
        else:
            x = quantile(fit.family, fit.params, rng.random())
        x += fit.truncation_s
        if x > 0.0 and x >= min_seconds:
            return x
    floor = min_seconds if min_seconds > 0.0 else 1e-12
    warnings.warn(
        f"dwell sampling for {fit.family} hit the rejection bound; "
        f"returning minimum {floor} s",
        MinimumDwellWarning,
        stacklevel=2,
    )
    return floor
