import ast
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from semimarkov import dwell
from semimarkov.dwell import (
    EXPONENTIAL,
    FAMILIES,
    GEV,
    GPD,
    INVERSE_GAUSSIAN,
    PARAM_NAMES,
    DwellFit,
    bic,
    cdf,
    fit_all_families,
    fit_exponential,
    fit_gev,
    fit_gpd,
    fit_inverse_gaussian,
    log_pdf,
    quantile,
    sample_dwell,
    select_family,
)
from semimarkov.dwell import _KERNELS, _gev_derivatives, _gpd_profile_slope, _loglik
from semimarkov.errors import (
    AllFitsFailedError,
    DegenerateDataError,
    FitDidNotConvergeError,
    MinimumDwellWarning,
    NonPositiveDurationError,
    TooFewObservationsError,
)
from semimarkov.fitting import fit_multi_chain, fit_semi_markov
from semimarkov.io import load_sequences, read_manifest
from semimarkov.sequences import durations_by_state, encode_runs

DATA = Path(__file__).resolve().parent.parent / "data" / "synthetic"

# Parameter sets used as evaluation points throughout (values of the bundled
# reference models, which exercise both shape signs and all four families).
PARAM_SETS = [
    (EXPONENTIAL, {"mu": 2.51}),
    (EXPONENTIAL, {"mu": 2.94}),
    (GEV, {"k": 0.63, "sigma": 1.30, "mu": 1.85}),
    (GEV, {"k": 0.65, "sigma": 1.36, "mu": 1.81}),
    (GPD, {"k": -0.22, "sigma": 3.62}),
    (GPD, {"k": -0.07, "sigma": 2.07}),
    (INVERSE_GAUSSIAN, {"mu": 8.61, "lambda": 3.61}),
    (INVERSE_GAUSSIAN, {"mu": 7.83, "lambda": 3.41}),
]
# The families with a closed-form quantile.
CLOSED_FORM_SETS = [(family, params) for family, params in PARAM_SETS
                    if family != INVERSE_GAUSSIAN]


def scipy_frozen(family, params):
    """The corresponding scipy.stats distribution.

    Note the sign conventions: scipy's genextreme uses c = -k, genpareto
    uses c = +k, and invgauss is parameterized by mu/lambda with scale
    lambda.
    """
    if family == EXPONENTIAL:
        return stats.expon(scale=params["mu"])
    if family == GEV:
        return stats.genextreme(c=-params["k"], loc=params["mu"], scale=params["sigma"])
    if family == GPD:
        return stats.genpareto(c=params["k"], scale=params["sigma"])
    return stats.invgauss(params["mu"] / params["lambda"], scale=params["lambda"])


class FixedUniform:
    """Duck-typed stand-in for a Generator whose every uniform draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


# --- densities against the scipy oracle --------------------------------------


@pytest.mark.parametrize("family,params", PARAM_SETS)
def test_log_pdf_matches_scipy(family, params):
    dist = scipy_frozen(family, params)
    for x in (0.1, 0.5, 1.0, 2.0, 3.7, 8.0, 15.0):
        ours = log_pdf(DwellFit(family, params), x)
        ref = dist.logpdf(x)
        if math.isinf(ref):
            assert math.isinf(ours)
        else:
            assert ours == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("family,params", PARAM_SETS)
def test_cdf_matches_scipy(family, params):
    dist = scipy_frozen(family, params)
    for x in (0.05, 0.5, 1.0, 2.5, 5.0, 12.0, 40.0):
        assert cdf(DwellFit(family, params), x) == pytest.approx(dist.cdf(x), abs=1e-12)


@pytest.mark.parametrize("family,params", PARAM_SETS)
def test_out_of_support(family, params):
    assert log_pdf(DwellFit(family, params), -1.0) == -math.inf
    assert cdf(DwellFit(family, params), -1.0) == 0.0
    # x = 0 opens the Exponential and GPD supports; the inverse Gaussian's is x > 0
    if family == INVERSE_GAUSSIAN:
        assert log_pdf(DwellFit(family, params), 0.0) == -math.inf
    elif family in (EXPONENTIAL, GPD):
        assert math.isfinite(log_pdf(DwellFit(family, params), 0.0))


# (family, theta, points inside the support, points outside it)
KERNEL_SUPPORT_CASES = [
    (EXPONENTIAL, (2.51,), [0.0, 1e-300, 0.5, 3.0, 40.0], [-1.0, -1e-300]),
    # lower end mu - sigma/k = 1.75
    (GEV, (0.4, 1.3, 5.0), [1.75 + 1e-6, 2.0, 5.0, 30.0], [-1.0, 0.0, 1.75 - 1e-6]),
    # upper end mu - sigma/k = 6.1333...
    (GEV, (-0.3, 1.3, 1.8), [-1.0, 0.0, 3.0, 1.8 + 1.3 / 0.3 - 1e-6],
     [1.8 + 1.3 / 0.3 + 1e-6, 10.0]),
    (GEV, (1e-14, 1.5, 3.0), [-1.0, 0.0, 2.0, 6.0], []),
    (GPD, (0.3, 2.0), [0.0, 1.0, 50.0], [-1.0, -1e-300]),
    (GPD, (-0.5, 3.0), [0.0, 3.0, 6.0 - 1e-6], [-1.0, 6.0 + 1e-6, 8.0]),  # upper end 6
    (GPD, (1e-14, 2.0), [0.0, 1.0, 20.0], [-1.0]),
    (INVERSE_GAUSSIAN, (8.61, 3.61), [1e-3, 1.0, 20.0], [-1.0, 0.0]),
]


@pytest.mark.parametrize("family,theta,inside,outside", KERNEL_SUPPORT_CASES)
def test_kernel_covers_the_whole_support(family, theta, inside, outside):
    xs = np.array(inside + outside)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _KERNELS[family](*theta, xs)
    assert got.shape == xs.shape
    assert np.all(got[len(inside):] == -np.inf)
    ref = scipy_frozen(family, dict(zip(PARAM_NAMES[family], theta))).logpdf(inside)
    assert np.all(np.isfinite(ref))
    np.testing.assert_allclose(got[:len(inside)], ref, rtol=1e-12, atol=0)


def test_gpd_negative_shape_upper_endpoint():
    params = {"k": -0.22, "sigma": 3.62}
    top = -params["sigma"] / params["k"]  # 16.4545...
    assert log_pdf(DwellFit(GPD, params), top + 0.1) == -math.inf
    assert cdf(DwellFit(GPD, params), top + 0.1) == 1.0


def test_gev_gumbel_limit():
    # |k| below the shape epsilon must evaluate the k -> 0 limit, which is
    # the Gumbel distribution
    params = {"k": 1e-14, "sigma": 1.3, "mu": 1.85}
    gum = stats.gumbel_r(loc=1.85, scale=1.3)
    for x in (-1.0, 0.0, 2.0, 6.0):
        assert log_pdf(DwellFit(GEV, params), x) == pytest.approx(gum.logpdf(x), abs=1e-10)
        assert cdf(DwellFit(GEV, params), x) == pytest.approx(gum.cdf(x), abs=1e-12)
        u = 0.37
    assert quantile(DwellFit(GEV, params), u) == pytest.approx(gum.ppf(u), abs=1e-9)


@pytest.mark.parametrize("k", [0.0, 1e-10, 0.3, -0.3])
def test_gev_cdf_far_below_the_mode(k):
    # far enough below mu, exp(-t) overflows a double: the cdf is exactly 0
    params = {"k": k, "sigma": 0.01, "mu": 10.0}
    ref = scipy_frozen(GEV, params)
    for x in (9.9, 9.0, 0.5, -1e3, -1e100):
        with np.errstate(over="ignore"):  # scipy's exp(t) overflows to inf there
            want = ref.cdf(x)
        assert cdf(DwellFit(GEV, params), x) == pytest.approx(want, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("family,params", PARAM_SETS)
def test_density_integrates_to_one(family, params):
    # piecewise between quantile breakpoints: the GEV shapes here have tail
    # index < 2 and a single quad over the whole support stalls
    us = np.array([1e-12, 0.1, 0.5, 0.9, 0.99, 0.999, 1 - 1e-5, 1 - 1e-7, 1 - 1e-9])
    if family == INVERSE_GAUSSIAN:
        cuts = scipy_frozen(family, params).ppf(us)
    else:
        cuts = quantile(DwellFit(family, params), us)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        piece, _ = integrate.quad(
            lambda x: math.exp(log_pdf(DwellFit(family, params), x)), lo, hi, limit=200
        )
        total += piece
    assert total == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("family,params", CLOSED_FORM_SETS)
def test_quantile_cdf_roundtrip(family, params):
    for u in np.linspace(0.01, 0.99, 99):
        x = quantile(DwellFit(family, params), float(u))
        assert cdf(DwellFit(family, params), x) == pytest.approx(float(u), abs=1e-10)


def test_quantile_domain():
    with pytest.raises(ValueError):
        quantile(DwellFit(EXPONENTIAL, {"mu": 1.0}), 0.0)
    with pytest.raises(ValueError):
        quantile(DwellFit(EXPONENTIAL, {"mu": 1.0}), 1.0)


@pytest.mark.parametrize("family,params", PARAM_SETS)
def test_quantile_takes_an_array_of_levels(family, params):
    fit = DwellFit(family, params)
    u = np.linspace(0.01, 0.99, 99)
    if family == INVERSE_GAUSSIAN:  # no closed form; the sampler does not need one
        with pytest.raises(TypeError):
            quantile(fit, 0.5)
        with pytest.raises(TypeError):
            quantile(fit, u)
        return
    xs = quantile(fit, u)
    assert xs == pytest.approx([quantile(fit, float(v)) for v in u], rel=1e-12)
    with pytest.raises(ValueError):
        quantile(fit, np.array([0.5, 1.0]))


def test_param_validation():
    with pytest.raises(ValueError):
        log_pdf(DwellFit(EXPONENTIAL, {"mu": -1.0}), 1.0)
    with pytest.raises(ValueError):
        log_pdf(DwellFit(GEV, {"k": 0.1, "sigma": 1.0}), 1.0)  # missing mu
    with pytest.raises(ValueError):
        DwellFit(family="Weibull", params={})


@pytest.mark.parametrize(
    "family, params",
    [
        (EXPONENTIAL, {"mu": math.inf}),
        (GEV, {"k": math.nan, "sigma": 1.0, "mu": 0.0}),
        (GPD, {"k": 0.1, "sigma": math.inf}),
        (INVERSE_GAUSSIAN, {"mu": 1.0, "lambda": math.inf}),
    ],
)
def test_non_finite_params_rejected(family, params):
    with pytest.raises(ValueError):
        DwellFit(family=family, params=params)


@pytest.mark.parametrize(
    "family, params, message",
    [
        (EXPONENTIAL, {"mu": 0.0}, "Exponential mu must be positive"),
        (GEV, {"k": 0.1, "sigma": 0.0, "mu": 1.0}, f"{GEV} sigma must be positive"),
        (GPD, {"k": 0.1, "sigma": -2.0}, f"{GPD} sigma must be positive"),
        (INVERSE_GAUSSIAN, {"mu": 0.0, "lambda": 1.0},
         "InverseGaussian mu and lambda must be positive"),
        (INVERSE_GAUSSIAN, {"mu": 1.0, "lambda": -1.0},
         "InverseGaussian mu and lambda must be positive"),
    ],
)
def test_non_positive_scale_rejected(family, params, message):
    with pytest.raises(ValueError) as raised:
        DwellFit(family=family, params=params)
    assert str(raised.value) == message
    # the log-likelihood reads the same rule: -inf there rather than an error
    theta = [params[name] for name in PARAM_NAMES[family]]
    assert _loglik(family, theta, np.array([1.0, 2.0]), np.array([1, 1])) == -math.inf


def test_params_are_frozen_when_checked():
    source = {"mu": 2.5}
    fit = DwellFit(EXPONENTIAL, source)
    with pytest.raises(TypeError):
        fit.params["mu"] = -1.0
    source["mu"] = -1.0  # the fit holds its own copy of what it checked
    assert fit.params == {"mu": 2.5}
    assert str(fit.params) == "{'mu': 2.5}"  # prints as the dict it was given
    assert pickle.loads(pickle.dumps(fit)) == fit


def test_n_params_hand_values():
    # BIC counts one free parameter per name the family takes
    n_params = {family: len(PARAM_NAMES[family]) for family in FAMILIES}
    assert n_params == {EXPONENTIAL: 1, GEV: 3, GPD: 2, INVERSE_GAUSSIAN: 2}
    assert DwellFit(family=GPD, params={"k": 0.1, "sigma": 1.0}).n_params == 2


# --- closed-form fits ---------------------------------------------------------


def test_exponential_mle_is_sample_mean():
    xs = [0.5, 1.5, 2.0, 4.0, 9.3]
    fit = fit_exponential(xs)
    assert fit.params["mu"] == np.mean(xs)
    assert fit.n_obs == 5
    # log-likelihood matches the scipy oracle at the fitted parameters
    assert fit.log_likelihood == pytest.approx(
        stats.expon(scale=fit.params["mu"]).logpdf(xs).sum(), abs=1e-10
    )


def test_inverse_gaussian_closed_form():
    rng = np.random.default_rng(5)
    xs = stats.invgauss(8.61 / 3.61, scale=3.61).rvs(size=400, random_state=rng)
    fit = fit_inverse_gaussian(xs)
    mu = xs.mean()
    lam = len(xs) / np.sum(1.0 / xs - 1.0 / mu)
    assert fit.params["mu"] == pytest.approx(mu, rel=1e-12)
    assert fit.params["lambda"] == pytest.approx(lam, rel=1e-12)
    ref = stats.invgauss(mu / lam, scale=lam).logpdf(xs).sum()
    assert fit.log_likelihood == pytest.approx(ref, rel=1e-12)


def test_inverse_gaussian_degenerate():
    with pytest.raises(DegenerateDataError):
        fit_inverse_gaussian([3.0, 3.0, 3.0])


def test_positive_duration_guard():
    with pytest.raises(NonPositiveDurationError):
        fit_exponential([1.0, 0.0])
    with pytest.raises(NonPositiveDurationError):
        fit_inverse_gaussian([1.0, -2.0])


@pytest.mark.parametrize("family,params", PARAM_SETS[::2])
def test_log_pdf_sums_to_fitted_log_likelihood(family, params):
    # the public density and the fitted log-likelihood come from one kernel
    fitter = {
        EXPONENTIAL: fit_exponential,
        GEV: fit_gev,
        GPD: fit_gpd,
        INVERSE_GAUSSIAN: fit_inverse_gaussian,
    }[family]
    xs = scipy_frozen(family, params).rvs(size=500, random_state=np.random.default_rng(21))
    fit = fitter(xs)
    total = math.fsum(log_pdf(DwellFit(family, fit.params), float(x)) for x in xs)
    assert total == pytest.approx(fit.log_likelihood, rel=1e-9)


# --- numerical fits -----------------------------------------------------------


def _fd_grad(loglik, theta, h=1e-6):
    g = np.zeros(len(theta))
    for i in range(len(theta)):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        g[i] = (loglik(tp) - loglik(tm)) / (2 * h)
    return g


def test_gev_roundtrip_and_certificate():
    true = {"k": 0.63, "sigma": 1.30, "mu": 1.85}
    rng = np.random.default_rng(11)
    xs = scipy_frozen(GEV, true).rvs(size=4000, random_state=rng)
    fit = fit_gev(xs)
    for name in ("k", "sigma", "mu"):
        assert fit.params[name] == pytest.approx(true[name], rel=0.10)
    # independently recompute the stationarity certificate with the scipy
    # log-density
    def ll(theta):
        return stats.genextreme(c=-theta[0], loc=theta[2], scale=theta[1]).logpdf(xs).sum()

    theta = np.array([fit.params["k"], fit.params["sigma"], fit.params["mu"]])
    assert np.linalg.norm(_fd_grad(ll, theta)) <= 1e-4 * max(1.0, abs(fit.log_likelihood))


def test_gpd_roundtrip_and_certificate():
    true = {"k": -0.22, "sigma": 3.62}
    rng = np.random.default_rng(12)
    xs = scipy_frozen(GPD, true).rvs(size=4000, random_state=rng)
    fit = fit_gpd(xs)
    assert fit.params["k"] == pytest.approx(true["k"], rel=0.10)
    assert fit.params["sigma"] == pytest.approx(true["sigma"], rel=0.10)
    # the support constraint holds strictly at a negative fitted shape
    assert xs.max() < -fit.params["sigma"] / fit.params["k"]

    def ll(theta):
        return stats.genpareto(c=theta[0], scale=theta[1]).logpdf(xs).sum()

    theta = np.array([fit.params["k"], fit.params["sigma"]])
    assert np.linalg.norm(_fd_grad(ll, theta)) <= 1e-4 * max(1.0, abs(fit.log_likelihood))


# Durations on a 50 Hz grid: 3000 observations, at most 499 distinct values.
GRID_XS = np.random.default_rng(31).integers(1, 500, size=3000) / 50.0


@pytest.mark.parametrize(
    "family,theta",
    [
        (GEV, (0.4, 1.3, 1.8)),
        (GEV, (0.4, 1.3, 5.0)),  # lower end 1.75: some observations below
        (GEV, (-0.1, 1.5, 3.0)),
        (GEV, (-0.3, 1.3, 1.8)),  # upper end 6.13: some observations above
        (GEV, (1e-14, 1.5, 3.0)),  # |k| < 1e-13: the Gumbel limit
        (GPD, (0.3, 2.0)),
        (GPD, (-0.2, 3.6)),
        (GPD, (-0.5, 3.0)),  # upper end 6: some observations above
    ],
)
def test_weighted_kernel_equals_per_observation_sum(family, theta):
    values, counts = np.unique(GRID_XS, return_counts=True)
    assert len(values) < len(GRID_XS) / 5
    weighted = _loglik(family, theta, values, counts)
    params = dict(zip(PARAM_NAMES[family], theta))
    per_obs = math.fsum(log_pdf(DwellFit(family, params), float(x)) for x in GRID_XS)
    if math.isinf(per_obs):
        assert weighted == per_obs == -math.inf
    else:
        assert weighted == pytest.approx(per_obs, rel=1e-12)


@pytest.mark.parametrize(
    "fitter,family,params",
    [
        (fit_gev, GEV, {"k": 0.63, "sigma": 1.30, "mu": 1.85}),
        (fit_gpd, GPD, {"k": -0.22, "sigma": 3.62}),
    ],
)
def test_numeric_fit_does_not_depend_on_observation_order(fitter, family, params):
    rng = np.random.default_rng(13)
    xs = np.ceil(scipy_frozen(family, params).rvs(size=2000, random_state=rng) * 50.0) / 50.0
    fit = fitter(xs)
    assert fitter(xs[::-1]) == fit
    assert fitter(rng.permutation(xs)) == fit
    assert fitter(np.sort(xs).tolist()) == fit
    # the same multiset as a table, in any row order, repeated values merged
    values, counts = np.unique(xs, return_counts=True)
    assert fitter(values[::-1], counts[::-1]) == fit
    assert fitter(np.append(values, values[0]), np.append(counts, 3)) == fitter(
        np.append(xs, [values[0]] * 3)
    )


@pytest.mark.parametrize(
    "fitter,family,params",
    [
        (fit_exponential, EXPONENTIAL, {"mu": 2.51}),
        (fit_gev, GEV, {"k": 0.63, "sigma": 1.30, "mu": 1.85}),
        (fit_gpd, GPD, {"k": -0.22, "sigma": 3.62}),
        (fit_inverse_gaussian, INVERSE_GAUSSIAN, {"mu": 8.61, "lambda": 3.61}),
    ],
)
def test_fit_of_table_equals_fit_of_expanded_sample(fitter, family, params):
    # durations on a 50 Hz grid, passed as distinct values with counts
    draws = scipy_frozen(family, params).rvs(size=2000, random_state=np.random.default_rng(14))
    values, counts = np.unique(np.ceil(draws * 50.0) / 50.0, return_counts=True)
    assert len(values) < 1000
    table, expanded = fitter(values, counts), fitter(np.repeat(values, counts))
    assert table.n_obs == expanded.n_obs == 2000
    if family in (GEV, GPD):
        assert table == expanded
    else:
        for name in PARAM_NAMES[family]:
            assert table.params[name] == pytest.approx(expanded.params[name], rel=1e-12)
        assert table.log_likelihood == pytest.approx(expanded.log_likelihood, rel=1e-12)
        assert table.bic == pytest.approx(expanded.bic, rel=1e-12)


def test_counts_of_one_reproduce_the_plain_sample_exactly():
    xs = np.random.default_rng(15).lognormal(0.5, 0.6, size=300)
    ones = np.ones(len(xs), dtype=np.int64)
    assert fit_exponential(xs, ones) == fit_exponential(xs)
    assert fit_exponential(xs, ones).params["mu"] == np.mean(xs)
    assert fit_inverse_gaussian(xs, ones) == fit_inverse_gaussian(xs)


@pytest.mark.parametrize(
    "counts", [[1, 2], [1, 2, 0], [1, -2, 1], [1.0, 2.0, 1.0], [[1, 2, 1]]]
)
def test_bad_counts_rejected(counts):
    for fitter in (fit_exponential, fit_gev, fit_gpd, fit_inverse_gaussian):
        with pytest.raises(ValueError):
            fitter([1.0, 2.0, 3.0], counts)


# Seeded samples for the solver checks: both GEV shape signs, and GPD shapes
# that include the k ~ -0.2 and k ~ -0.3 samples on which a simplex from the
# method-of-moments start used to stall.
SOLVER_SAMPLES = [
    (GEV, {"k": 0.63, "sigma": 1.30, "mu": 1.85}, 300),
    (GEV, {"k": -0.25, "sigma": 1.5, "mu": 3.0}, 300),
    (GPD, {"k": 0.35, "sigma": 2.0}, 300),
    (GPD, {"k": -0.2, "sigma": 2.4}, 200),
    (GPD, {"k": -0.3, "sigma": 5.3}, 60),
]
FITTERS = {GEV: fit_gev, GPD: fit_gpd}


def _solver_sample(family, params, n, seed):
    draws = scipy_frozen(family, params).rvs(size=n, random_state=np.random.default_rng(seed))
    return np.round(draws, 2)  # durations on a grid repeat values, as dwell tables do


@pytest.mark.parametrize("i", range(len(SOLVER_SAMPLES)))
def test_numeric_fit_at_least_matches_scipy_fit(i):
    family, params, n = SOLVER_SAMPLES[i]
    xs = _solver_sample(family, params, n, seed=40 + i)
    fit = FITTERS[family](xs)
    if family == GEV:
        c, loc, scale = stats.genextreme.fit(xs)
        ref = stats.genextreme(c, loc=loc, scale=scale).logpdf(xs).sum()
    else:
        c, loc, scale = stats.genpareto.fit(xs, floc=0)
        ref = stats.genpareto(c, loc=loc, scale=scale).logpdf(xs).sum()
    assert fit.log_likelihood >= ref - 1e-9 * abs(ref)


@pytest.mark.parametrize("i", range(len(SOLVER_SAMPLES)))
def test_nelder_mead_polish_does_not_raise_the_fit(i):
    family, params, n = SOLVER_SAMPLES[i]
    xs = _solver_sample(family, params, n, seed=40 + i)
    fit = FITTERS[family](xs)
    values, counts = np.unique(xs, return_counts=True)

    def nll(theta):
        ll = _loglik(family, theta, values, counts)
        return -ll if math.isfinite(ll) else math.inf

    start = [fit.params[name] for name in PARAM_NAMES[family]]
    with np.errstate(invalid="ignore"):
        res = optimize.minimize(nll, start, method="Nelder-Mead",
                                options={"xatol": 1e-13, "fatol": 1e-13, "maxiter": 3000})
    assert -res.fun - fit.log_likelihood <= 1e-9 * abs(fit.log_likelihood)


@pytest.mark.parametrize("theta", [(0.63, 1.3, 1.85), (-0.1, 1.5, 3.0), (0.02, 2.0, 2.5)])
def test_gev_score_and_hessian_match_finite_differences(theta):
    values, counts = np.unique(GRID_XS, return_counts=True)
    score, hess = _gev_derivatives(*theta, values, counts)

    def grad(t):
        return _fd_grad(lambda u: _loglik(GEV, u, values, counts), np.array(t), h=1e-5)

    np.testing.assert_allclose(score, grad(theta), rtol=1e-6, atol=1e-6)
    fd_hess = np.array([(grad(np.add(theta, e)) - grad(np.subtract(theta, e))) / 2e-4
                        for e in 1e-4 * np.eye(3)])
    np.testing.assert_allclose(hess, fd_hess, rtol=1e-4, atol=1e-3)


def test_gev_solution_failing_the_certificate_is_reported(monkeypatch):
    xs = _solver_sample(*SOLVER_SAMPLES[0], seed=40)
    # a Newton solver that stops at its start fails the certificate there
    monkeypatch.setattr(dwell, "_gev_newton", lambda values, counts, theta: theta)
    with pytest.raises(FitDidNotConvergeError) as raised:
        fit_gev(xs)
    assert str(raised.value) == f"{GEV} fit failed its stationarity certificate"


def test_gpd_solution_failing_the_certificate_is_reported(monkeypatch):
    xs = _solver_sample(*SOLVER_SAMPLES[2], seed=42)
    # a profile root moved 1% off the stationary point fails the certificate
    root = dwell._bracketed_root
    monkeypatch.setattr(dwell, "_bracketed_root", lambda *args: 1.01 * root(*args))
    with pytest.raises(FitDidNotConvergeError) as raised:
        fit_gpd(xs)
    assert str(raised.value) == f"{GPD} fit failed its stationarity certificate"


def test_gev_edge_of_an_unbounded_likelihood_is_reported():
    # for k < -1 the GEV likelihood is unbounded as the upper end mu - sigma/k
    # closes on max x; Newton ends at k = -1 with that end at 5.5, where the
    # certificate's finite differences leave the support
    values = [0.5, 1.0, 3.0, 4.0, 4.5, 5.0, 5.5]
    counts = [1, 1, 1, 2, 2, 1, 2]
    with pytest.raises(FitDidNotConvergeError,
                       match="edge.*upper end mu - sigma/k = 5.5 meets the largest observation"):
        fit_gev(values, counts)


def test_gpd_supremum_at_the_shape_edge_is_reported():
    # first-half PAU dwell table of the bundled success cohort (n = 27): the
    # profile likelihood rises monotonically toward k -> -1, so the sample has
    # no interior MLE
    values = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0,
              7.5, 8.5, 9.0]
    counts = [1, 1, 3, 5, 1, 1, 2, 1, 2, 2, 1, 1, 1, 1, 1, 1, 2]
    assert sum(counts) == 27
    with pytest.raises(FitDidNotConvergeError, match="k > -1 edge"):
        fit_gpd(values, counts)


@given(
    st.lists(st.floats(0.01, 100.0), min_size=2, max_size=30, unique=True),
    st.lists(st.integers(1, 20), min_size=30, max_size=30),
    st.floats(-20.0, -1e-3),
)
def test_gpd_profile_falls_wherever_the_shape_is_at_most_minus_one(values, counts, u):
    # 1 + k <= 0 and theta < 0 make the slope function at most k, so the GPD
    # profile grid never brackets a maximum from a point with k <= -1
    values = np.sort(values)
    weights = np.array(counts[: len(values)]) / sum(counts[: len(values)])
    theta = math.expm1(u) / values[-1]
    if float(np.log1p(theta * values) @ weights) <= -1.0:
        assert _gpd_profile_slope(theta, values, weights) < 0.0


@pytest.mark.parametrize("label", ["success", "failure"])
def test_bundled_cohorts_fit_without_the_simplex(monkeypatch, label):
    def no_simplex(*args, **kwargs):
        raise AssertionError("simplex search called")

    monkeypatch.setattr(dwell, "minimize", no_simplex)
    manifest = read_manifest(DATA / f"{label}_manifest.json")
    seqs = load_sequences(manifest)
    model = fit_semi_markov(seqs, manifest.alphabet)
    assert {f.family for f in model.dwell.values()} & {GEV, GPD}
    # every state's GEV and GPD fit converges, whichever family BIC selects
    for values, counts in durations_by_state([encode_runs(s) for s in seqs]).values():
        fits, skipped = fit_all_families(values, counts)
        assert {GEV, GPD} <= fits.keys(), skipped
    assert len(fit_multi_chain(seqs, 2, manifest.alphabet).segments) == 2


# Per state of the bundled cohorts: the family BIC selects, and every fitted
# family's parameters (in PARAM_NAMES order), log-likelihood and BIC; a family
# missing from a state's entry is skipped there.  A change to any dwell
# estimator moves these values.
BUNDLED_FITS = {
    ('success', 'PAU'): (INVERSE_GAUSSIAN, {
        EXPONENTIAL: ((3.490566037735849,), -119.25338731088874, 242.4770665353296),
        GEV: ((0.38956655770325427, 1.4253839622145543, 1.9837490842158938),
            -114.07625552649898, 240.06338679365433),
        GPD: ((-0.1975186669953792, 4.165492810233327), -118.15374394065947, 244.24807170842317),
        INVERSE_GAUSSIAN: ((3.490566037735849, 4.160716566942754),
            -113.00945690538805, 233.95949763788033),
    }),
    ('success', 'ASB'): (GEV, {
        EXPONENTIAL: ((5.03515625,), -334.90490348283197, 674.6618372295835),
        GEV: ((0.6135646082556279, 1.5127552034073988, 2.033367297021278),
            -300.6360437099473, 615.8281782116534),
        GPD: ((0.25316383293903183, 3.6082849588218324), -324.65874070252517, 659.0215419328896),
        INVERSE_GAUSSIAN: ((5.03515625, 3.6094355424862403),
            -306.73537553241556, 623.1748115926704),
    }),
    ('success', 'MVT'): (INVERSE_GAUSSIAN, {
        EXPONENTIAL: ((2.737704918032787,), -122.43431684285005, 248.9795075498734),
        GEV: ((0.29963968972900024, 1.0543615788677256, 1.7889419707662115),
            -109.82688639193326, 231.98639437638644),
        GPD: ((-0.5166375731115179, 4.069534614899425), -115.1003555488624, 238.42245882607142),
        INVERSE_GAUSSIAN: ((2.737704918032787, 5.688828657176474),
            -107.88398932170772, 223.98972637176206),
    }),
    ('success', 'SYB'): (INVERSE_GAUSSIAN, {
        EXPONENTIAL: ((8.020833333333334,), -591.7521260889398, 1188.7617475499073),
        GEV: ((0.8095634349348637, 2.2561618471307767, 2.556207180454965),
            -546.2536673243568, 1108.279820764797),
        GPD: ((0.34046134263783495, 5.045544221983259), -568.1216379187803, 1146.758266581616),
        INVERSE_GAUSSIAN: ((8.020833333333334, 3.8090119718478896),
            -548.2562985937088, 1107.0275879314731),
    }),
    ('success', 'UNK'): (INVERSE_GAUSSIAN, {
        EXPONENTIAL: ((2.633522727272727,), -346.4247406343254, 698.019965263689),
        GEV: ((0.29707453937270895, 1.1224034413874189, 1.6088039740216198),
            -327.73133028171924, 670.974112548553),
        GPD: ((-0.3420174858761736, 3.516551539241263), -337.12154910462874, 684.5840661993337),
        INVERSE_GAUSSIAN: ((2.633522727272727, 3.5749510643389018),
            -323.4020729808076, 657.1451139516914),
    }),
    ('failure', 'PAU'): (INVERSE_GAUSSIAN, {
        EXPONENTIAL: ((4.258426966292135,), -217.9520853461755, 440.39280706208314),
        GEV: ((0.3236454683242825, 1.822676527964866, 2.5142753707484005),
            -210.25331180490474, 433.9725327190059),
        GPD: ((-0.2653537017050605, 5.365065359253251), -214.8953822578371, 438.7680372551385),
        INVERSE_GAUSSIAN: ((4.258426966292135, 4.93039068163966),
            -209.794213539265, 428.5656998179943),
    }),
    ('failure', 'ASB'): (GEV, {
        EXPONENTIAL: ((6.00763358778626,), -365.88705120332895, 736.6492997298591),
        GEV: ((0.7634042581641474, 1.5936565941596772, 1.9404002006406422),
            -325.2783192533342, 665.1822304762718),
        GPD: ((0.35795573286908133, 3.620321507312631), -346.4319325308486, 702.6142597080996),
        INVERSE_GAUSSIAN: ((6.00763358778626, 3.0433052802072487),
            -330.61783920324444, 670.9860730528912),
    }),
    ('failure', 'MVT'): (INVERSE_GAUSSIAN, {
        EXPONENTIAL: ((3.8515625,), -150.30265024787667, 304.764183579113),
        GEV: ((0.3782391564741185, 1.6836801581953484, 2.1446200325163325),
            -147.86982722290796, 308.2163036958949),
        GPD: ((-0.20496996821880534, 4.618350215659729), -148.80432492308938, 305.92641601289813),
        INVERSE_GAUSSIAN: ((3.8515625, 3.742840750854029), -146.23799697855506, 300.7937601238295),
    }),
    ('failure', 'SYB'): (INVERSE_GAUSSIAN, {
        EXPONENTIAL: ((6.925714285714286,), -513.6672087235055, 1032.4992034209345),
        GEV: ((0.7786450164841, 2.2204341079419345, 2.4780862621595814),
            -491.49271409104045, 998.4797861038514),
        GPD: ((0.25752611920810575, 5.135825977475563), -506.4091903730047, 1023.1479526938565),
        INVERSE_GAUSSIAN: ((6.925714285714286, 3.7393612022507554),
            -488.5347428930234, 987.3990577338939),
    }),
    ('failure', 'UNK'): (INVERSE_GAUSSIAN, {
        EXPONENTIAL: ((2.3322981366459627,), -297.34351110137595, 599.7684265677364),
        GEV: ((0.30898735853407494, 0.9820677353924439, 1.4172058508536787),
            -279.24565313564415, 573.7355193662416),
        GPD: ((-0.2347317278905753, 2.8475208380392494), -291.68643803585405, 593.535684801677),
        INVERSE_GAUSSIAN: ((2.3322981366459627, 3.2340719869271575),
            -274.6188678132403, 559.4005443564495),
    }),
}


@pytest.mark.parametrize("label", ["success", "failure"])
def test_bundled_cohort_dwell_fits_are_pinned(label):
    manifest = read_manifest(DATA / f"{label}_manifest.json")
    table = durations_by_state([encode_runs(s) for s in load_sequences(manifest)])
    names = [manifest.alphabet.name(state) for state in table]
    assert sorted(names) == sorted(name for lab, name in BUNDLED_FITS if lab == label)
    for name, (values, counts) in zip(names, table.values()):
        selected, pinned = BUNDLED_FITS[label, name]
        fits, skipped = fit_all_families(values, counts)
        assert select_family(values, counts).family == selected, name
        assert fits.keys() == pinned.keys(), (name, skipped)
        assert skipped.keys() == set(FAMILIES) - pinned.keys(), name
        for family, (params, ll, bic_value) in pinned.items():
            fit = fits[family]
            got = [*(fit.params[p] for p in PARAM_NAMES[family]), fit.log_likelihood, fit.bic]
            np.testing.assert_allclose(got, [*params, ll, bic_value], rtol=1e-9,
                                       err_msg=f"{label} {name} {family}")


def test_min_observations():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    with pytest.raises(TooFewObservationsError):
        fit_gev(xs)
    with pytest.raises(TooFewObservationsError):
        fit_gpd(xs)


def test_no_spread():
    with pytest.raises(FitDidNotConvergeError):
        fit_gev([2.0] * 20)
    with pytest.raises(FitDidNotConvergeError):
        fit_gpd([2.0] * 20)


# --- BIC and family selection --------------------------------------------------


def test_bic_hand_values():
    assert bic(-150.0, 1, 100) == pytest.approx(math.log(100) + 300.0, abs=1e-12)
    assert bic(0.0, 0, 1) == 0.0
    assert bic(-50.0, 3, 100) - bic(-50.0, 1, 100) == pytest.approx(
        2 * math.log(100), abs=1e-12
    )


def test_bic_needs_an_observation():
    with pytest.raises(ValueError, match="n_obs must be at least 1"):
        bic(-1.0, 1, 0)


def test_bic_monotone_in_params():
    vals = [bic(-120.0, p, 50) for p in range(1, 5)]
    assert vals == sorted(vals) and len(set(vals)) == 4


def test_select_family_on_exponential_data():
    rng = np.random.default_rng(100)
    xs = rng.exponential(2.51, size=1000)
    assert select_family(xs).family == EXPONENTIAL


def test_select_family_skips_small_samples():
    xs = [0.6, 1.0, 1.7, 2.0, 3.3, 5.0]  # n=6: below the GEV/GPD minimum
    fits, skipped = fit_all_families(xs)
    assert set(skipped) == {GEV, GPD}
    assert set(fits) == {EXPONENTIAL, INVERSE_GAUSSIAN}
    assert select_family(xs).family in fits


def test_select_family_all_fail():
    # a zero duration rules out the three positive families; GEV needs 8 values
    with pytest.raises(AllFitsFailedError):
        select_family([0.0, 1.0, 2.0])


def test_select_family_prefers_fewer_params_on_tie():
    # construct a literal tie by monkeying the comparison inputs: two
    # identical BICs can only really arise in degenerate cases, so check the
    # key ordering directly instead
    a = DwellFit(EXPONENTIAL, {"mu": 1.0}, n_obs=10, log_likelihood=-5.0, bic=14.0)
    b = DwellFit(GPD, {"k": 0.1, "sigma": 1.0}, n_obs=10, log_likelihood=-5.0, bic=14.0)
    chosen = min([b, a], key=lambda f: (f.bic, f.n_params, FAMILIES.index(f.family)))
    assert chosen.family == EXPONENTIAL


# --- sampling -------------------------------------------------------------------


def test_sample_exponential_fixed_draw():
    fit = DwellFit(EXPONENTIAL, {"mu": 2.0})
    x = sample_dwell(fit, FixedUniform(0.5), size=1)
    assert x.tolist() == pytest.approx([-2.0 * math.log(0.5)], abs=1e-12)


def test_sample_draws_an_array_of_the_size_asked():
    fit = DwellFit(EXPONENTIAL, {"mu": 2.0})
    with pytest.raises(TypeError):
        sample_dwell(fit, np.random.default_rng(1))
    with pytest.raises(TypeError):  # size is a keyword
        sample_dwell(fit, np.random.default_rng(1), 0.0, 5)
    assert sample_dwell(fit, np.random.default_rng(1), size=5).shape == (5,)


def test_sample_takes_a_uniform_of_zero():
    # random() can return exactly 0, which lies outside quantile's (0, 1)
    x = sample_dwell(DwellFit(EXPONENTIAL, {"mu": 2.0}), FixedUniform(0.0), size=1)
    assert 0.0 < x[0] < 1e-15


def test_sample_determinism():
    fit = DwellFit(GEV, {"k": 0.63, "sigma": 1.30, "mu": 1.85})
    a = [sample_dwell(fit, np.random.default_rng(77), size=1).tolist() for _ in range(3)]
    b = [sample_dwell(fit, np.random.default_rng(77), size=1).tolist() for _ in range(3)]
    assert a == b


def test_sample_exponential_mean():
    fit = DwellFit(EXPONENTIAL, {"mu": 2.94})
    rng = np.random.default_rng(8)
    xs = sample_dwell(fit, rng, size=100_000)
    assert np.mean(xs) == pytest.approx(2.94, rel=0.02)


def test_inverse_gaussian_sampler_distribution():
    fit = DwellFit(INVERSE_GAUSSIAN, {"mu": 8.61, "lambda": 3.61})
    rng = np.random.default_rng(9)
    xs = sample_dwell(fit, rng, size=20_000)
    ref = stats.invgauss(8.61 / 3.61, scale=3.61)
    stat, p = stats.kstest(xs, ref.cdf)
    assert p > 0.01, f"KS stat {stat}, p {p}"


@pytest.mark.parametrize("family,params", PARAM_SETS)
def test_sampling_respects_minimum(family, params):
    fit = DwellFit(family, params)
    rng = np.random.default_rng(10)
    xs = sample_dwell(fit, rng, min_seconds=0.5, size=300)
    assert xs.min() >= 0.5


def test_rejection_bound_warns():
    fit = DwellFit(EXPONENTIAL, {"mu": 1e-6})
    rng = np.random.default_rng(3)
    with pytest.warns(MinimumDwellWarning):
        x = sample_dwell(fit, rng, min_seconds=1.0, size=1)
    assert x.tolist() == [1.0]


class ScriptedUniform:
    """Duck-typed stand-in for a Generator whose k-th uniform draw is 0.9
    for k in kept or k >= kept_from, and 0.1 otherwise."""

    def __init__(self, kept, kept_from):
        self.kept, self.kept_from, self.drawn = kept, kept_from, 0

    def random(self, size):
        k = np.arange(self.drawn, self.drawn + size)
        self.drawn += size
        return np.where(np.isin(k, self.kept) | (k >= self.kept_from), 0.9, 0.1)


def test_rejection_bound_counts_each_draw_in_order():
    # Exponential(1) keeps a draw of at least 1 s for u = 0.9, not for 0.1.
    # The first draw is kept at its 1000th attempt, the second meets 1000
    # straight rejections and is set to the minimum, the third is kept at
    # its first attempt
    fit = DwellFit(EXPONENTIAL, {"mu": 1.0})
    kept = -math.log(0.1)
    with pytest.warns(MinimumDwellWarning, match="on 1 of 3 draws"):
        xs = sample_dwell(fit, ScriptedUniform([999], 2000), min_seconds=1.0, size=3)
    assert xs.tolist() == pytest.approx([kept, 1.0, kept], abs=1e-12)


def test_sized_draws_keep_the_minimum():
    fit = DwellFit(EXPONENTIAL, {"mu": 1.0})
    xs = sample_dwell(fit, np.random.default_rng(4), min_seconds=0.7, size=5000)
    assert xs.shape == (5000,) and xs.min() >= 0.7
    # memoryless: the kept draws are 0.7 s plus an Exponential(1)
    assert stats.kstest(xs - 0.7, stats.expon().cdf).pvalue > 0.001


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_quantile_monotone(u1, u2):
    lo, hi = sorted((u1, u2))
    for family, params in PARAM_SETS[:4]:
        assert quantile(DwellFit(family, params), lo) <= quantile(DwellFit(family, params), hi)


def test_scipy_optimize_is_only_dwells_uncalled_minimize():
    # the closed-form quantiles and the transformation sampler need no solver;
    # dwell.minimize is kept, uncalled, only as a name a tracer can wrap
    src = Path(dwell.__file__).parent
    imports, calls = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                names = [alias.name for alias in node.names]
                if node.module.startswith("scipy.optimize") or "optimize" in names:
                    imports.append((path.name, node.module, names))
            elif isinstance(node, ast.Import):
                imports += [(path.name, alias.name, []) for alias in node.names
                            if alias.name.startswith("scipy.optimize")]
            elif isinstance(node, ast.Call):  # minimize(...) or a module's .minimize(...)
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "minimize":
                    calls.append((path.name, node.lineno))
    assert imports == [("dwell.py", "scipy.optimize", ["minimize"])]
    assert calls == []
