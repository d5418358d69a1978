import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cfglmm import (
    BERNOULLI,
    CollinearityError,
    Dataset,
    FitConfig,
    GAUSSIAN,
    POISSON,
    ValidationError,
    deviance,
    fit_glm,
    get_family,
    wls_beta,
    working_state,
)
from cfglmm import families
from cfglmm.evaluate import trial_seed
from cfglmm.families import add_intercept
from cfglmm.simulate import SimScenario, gen_poisson, generate


def _scalar_loop_deviance(tag, y, mu):
    """Independent per-element oracle for the three unit deviances."""
    total = 0.0
    for yi, mi in zip(y, mu):
        if tag == "gaussian":
            total += (yi - mi) ** 2
        elif tag == "poisson":
            term = yi * math.log(yi / mi) if yi > 0 else 0.0
            total += 2.0 * (term - (yi - mi))
        else:
            total += -2.0 * (
                (yi * math.log(mi) if yi > 0 else 0.0)
                + ((1 - yi) * math.log(1 - mi) if yi < 1 else 0.0)
            )
    return total


class TestDeviance:
    def test_poisson_saturated_is_zero(self):
        # y=0 terms contribute 2*mu at the clamp floor, hence the 1e-9 slack
        y = np.array([0.0, 1.0, 5.0, 2.0])
        assert deviance(POISSON, y, y.clip(1e-10)) == pytest.approx(0.0, abs=1e-9)

    def test_poisson_hand_value(self):
        # single term, y=2 mu=1: 2*(2 ln 2 - 1)
        assert deviance(POISSON, [2.0], [1.0]) == pytest.approx(0.772589, abs=1e-6)

    def test_bernoulli_hand_value(self):
        # single term, y=1 mu=0.5: 2 ln 2
        assert deviance(BERNOULLI, [1.0], [0.5]) == pytest.approx(1.386294, abs=1e-6)

    @pytest.mark.parametrize("tag", ["gaussian", "poisson", "bernoulli"])
    def test_matches_scalar_oracle(self, tag, rng):
        n = 60
        if tag == "poisson":
            y = rng.poisson(3.0, n).astype(float)
            mu = rng.uniform(0.2, 6.0, n)
        elif tag == "bernoulli":
            y = rng.integers(0, 2, n).astype(float)
            mu = rng.uniform(0.05, 0.95, n)
        else:
            y = rng.normal(size=n)
            mu = rng.normal(size=n)
        family = get_family(tag)
        got = deviance(family, y, mu)
        want = _scalar_loop_deviance(tag, y, mu)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("tag", ["gaussian", "poisson", "bernoulli"])
    def test_nonnegative_and_zero_iff_saturated(self, tag, rng):
        family = get_family(tag)
        if tag == "poisson":
            y = rng.poisson(2.0, 30).astype(float)
            mu = y + rng.uniform(0.05, 1.0, 30)
        elif tag == "bernoulli":
            y = rng.integers(0, 2, 30).astype(float)
            mu = np.clip(np.abs(y - 0.3), 0.05, 0.95)
        else:
            y = rng.normal(size=30)
            mu = y + rng.uniform(0.01, 1.0, 30)
        assert deviance(family, y, mu) > 0
        saturated = np.clip(y, *family.mu_range) if family.mu_range else y
        assert deviance(family, y, saturated) <= deviance(family, y, mu)


class TestWorkingState:
    def test_gaussian_exact(self, rng):
        y = rng.normal(size=20)
        mu_lin = rng.normal(size=20)
        ws = working_state(GAUSSIAN, y, mu_lin)
        assert np.array_equal(ws.eta_hat, y)
        assert np.all(ws.weights == 1.0)

    def test_poisson_hand_values(self):
        ws = working_state(POISSON, np.array([0.0]), np.array([0.0]))
        assert ws.mu[0] == pytest.approx(1.0)
        assert ws.weights[0] == pytest.approx(1.0)
        assert ws.eta_hat[0] == pytest.approx(-1.0)

    def test_bernoulli_hand_values(self):
        ws = working_state(BERNOULLI, np.array([1.0]), np.array([0.0]))
        assert ws.mu[0] == pytest.approx(0.5)
        assert ws.weights[0] == pytest.approx(0.25)
        assert ws.eta_hat[0] == pytest.approx(2.0)

    def test_weights_positive_after_clamping(self):
        ws = working_state(POISSON, np.array([1.0, 0.0]), np.array([-800.0, 800.0]))
        assert np.all(ws.weights > 0)
        assert np.all(np.isfinite(ws.eta_hat))


class TestAddIntercept:
    def test_one_dimensional_covariate_is_one_column(self, rng):
        x = rng.normal(size=7)
        design = add_intercept(x)
        assert design.shape == (7, 2)
        np.testing.assert_array_equal(design, add_intercept(x[:, None]))
        np.testing.assert_array_equal(design[:, 0], 1.0)


class TestWlsBeta:
    def test_intercept_only_weighted_mean(self):
        design = np.ones((3, 1))
        beta = wls_beta(design, [1.0, 2.0, 3.0], np.ones(3))
        assert beta[0] == pytest.approx(2.0)

    def test_exact_linear_data(self, rng):
        x = rng.normal(size=(40, 2))
        design = add_intercept(x)
        truth = np.array([0.7, -1.2, 2.5])
        target = design @ truth
        beta = wls_beta(design, target, rng.uniform(0.5, 2.0, 40))
        np.testing.assert_allclose(beta, truth, atol=1e-10)

    def test_matches_dense_qr_oracle(self, rng):
        x = rng.normal(size=(50, 2))
        design = add_intercept(x)
        target = rng.normal(size=50)
        w = rng.uniform(0.1, 3.0, 50)
        beta = wls_beta(design, target, w)
        sw = np.sqrt(w)
        oracle, *_ = np.linalg.lstsq(design * sw[:, None], target * sw, rcond=None)
        np.testing.assert_allclose(beta, oracle, atol=1e-9)

    def test_collinear_raises(self):
        x = np.ones((10, 1))
        design = np.column_stack([np.ones(10), x, x])  # duplicated columns, zero variance
        design[:, 2] = design[:, 1]
        with pytest.raises(CollinearityError, match="collinear"):
            # exactly singular and trace-free ridge cannot save rank-1 target here
            wls_beta(design * 0.0, np.zeros(10), np.ones(10))


class TestFitGlm:
    def test_gaussian_equals_ols(self, rng):
        x = rng.normal(size=(80, 2))
        y = 1.0 + x @ [0.5, -2.0] + rng.normal(size=80)
        d = Dataset(rng.random((80, 2)), y, x, "gaussian")
        fit = fit_glm(d)
        design = add_intercept(x)
        ols, *_ = np.linalg.lstsq(design, y, rcond=None)
        np.testing.assert_allclose(fit.beta, ols, atol=1e-9)
        assert fit.converged

    def test_poisson_intercept_only_log_mean(self, rng):
        y = rng.poisson(3.7, 500).astype(float)
        d = Dataset(rng.random((500, 2)), y, np.empty((500, 0)), "poisson")
        fit = fit_glm(d)
        assert fit.beta[0] == pytest.approx(math.log(y.mean()), abs=1e-8)

    def test_poisson_recovers_known_beta(self):
        # latent field suppressed; estimate should land within ~3 SE of truth
        scenario = SimScenario(family="poisson", beta0=0.5, n_train=5000, n_test=0, field_noise_sd=0.0)
        sim = gen_poisson(scenario, seed=99)
        fit = fit_glm(sim.train)
        truth = scenario.coefficients()
        design = add_intercept(sim.train.covariates)
        mu = np.exp(design @ fit.beta)
        fisher = design.T @ (design * mu[:, None])
        se = np.sqrt(np.diag(np.linalg.inv(fisher)))
        np.testing.assert_array_less(np.abs(fit.beta - truth), 3.0 * se)

    def test_offset_respected(self, rng):
        x = rng.normal(size=(300, 1))
        off = rng.uniform(-1.0, 1.0, 300)
        mu = np.exp(0.2 + 0.8 * x[:, 0] + off)
        y = rng.poisson(mu).astype(float)
        d = Dataset(rng.random((300, 2)), y, x, "poisson", offset=off)
        fit = fit_glm(d)
        assert fit.beta[0] == pytest.approx(0.2, abs=0.3)
        assert fit.beta[1] == pytest.approx(0.8, abs=0.3)

    def test_fixed_point_stability(self, rng):
        x = rng.normal(size=(200, 2))
        y = rng.poisson(np.exp(0.3 + x @ [0.5, -0.2])).astype(float)
        d = Dataset(rng.random((200, 2)), y, x, "poisson")
        fit = fit_glm(d)
        # one more IRLS step from the optimum must not move beta
        ws = working_state(POISSON, y, add_intercept(x) @ fit.beta)
        again = wls_beta(add_intercept(x), ws.eta_hat, ws.weights)
        np.testing.assert_allclose(again, fit.beta, atol=1e-7)

    def test_deviance_trace_monotone(self, rng):
        x = rng.normal(size=(400, 2))
        y = rng.poisson(np.exp(0.1 + x @ [1.0, -0.4])).astype(float)
        d = Dataset(rng.random((400, 2)), y, x, "poisson")
        fit = fit_glm(d)
        trace = np.asarray(fit.deviance_trace)
        assert np.all(np.diff(trace) <= 1e-9)

    @pytest.mark.parametrize(
        "family,seed,calls", [("poisson", 7, 6), ("bernoulli", 8, 5)], ids=["poisson", "bernoulli"]
    )
    def test_one_deviance_per_candidate(self, family, seed, calls, monkeypatch, overshoot=None):
        """Each candidate's deviance is computed once: one call per iteration
        plus one per step halving, never twice in a row for the same
        candidate. ``overshoot``: the second IRLS step is taken that many
        times over."""
        d = generate(SimScenario(family=family, n_train=5000, n_test=0), trial_seed(seed, 0)).train
        args, steps = [], []

        def spy(fam, y, mu):
            args.append(mu.copy())
            return deviance(fam, y, mu)

        def solve(*a):
            beta = real_solve(*a)
            if overshoot is not None and len(steps) == 1:
                beta = steps[0] + overshoot * (beta - steps[0])
            steps.append(beta)
            return beta

        real_solve = families.wls_beta
        monkeypatch.setattr(families, "deviance", spy)
        monkeypatch.setattr(families, "wls_beta", solve)
        fit_glm(d)
        assert len(args) == calls
        assert not any(np.array_equal(a, b) for a, b in zip(args, args[1:]))

    def test_one_deviance_per_halving(self, monkeypatch):
        """The second step of the Poisson fit above taken four times over
        raises the deviance (10012 against 7760), so it is halved once, to
        twice the step (7507); seven iterations follow, with one call more."""
        self.test_one_deviance_per_candidate("poisson", 7, 7 + 1, monkeypatch, overshoot=4.0)

    def test_bernoulli_separated_does_not_blow_up(self):
        # perfectly separated toy data; step halving must keep it finite
        x = np.linspace(-1, 1, 40)[:, None]
        y = (x[:, 0] > 0).astype(float)
        d = Dataset(np.random.default_rng(0).random((40, 2)), y, x, "bernoulli")
        fit = fit_glm(d)
        assert np.all(np.isfinite(fit.beta))
        assert np.isfinite(fit.deviance)

    def test_negative_poisson_response_rejected(self, rng):
        y = rng.poisson(2.0, 50).astype(float)
        y[7] = -1.0
        with pytest.raises(ValidationError, match="nonnegative"):
            fit_glm(Dataset(rng.random((50, 2)), y, rng.normal(size=(50, 1)), "poisson"))

    def test_nan_response_rejected(self, rng):
        y = rng.poisson(2.0, 50).astype(float)
        y[3] = math.nan
        with pytest.raises(ValidationError, match="non-finite response"):
            fit_glm(Dataset(rng.random((50, 2)), y, rng.normal(size=(50, 1)), "poisson"))

    def test_short_covariates_rejected(self, rng):
        y = rng.poisson(2.0, 50).astype(float)
        with pytest.raises(ValidationError, match="40 covariate rows vs 50"):
            fit_glm(Dataset(rng.random((50, 2)), y, rng.normal(size=(40, 1)), "poisson"))


@given(
    mu_lin=hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=30),
        elements=st.floats(min_value=-20, max_value=20),
    ),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_working_state_finite_everywhere(mu_lin, seed):
    y = np.random.default_rng(seed).poisson(1.0, len(mu_lin)).astype(float)
    ws = working_state(POISSON, y, mu_lin)
    assert np.all(np.isfinite(ws.eta_hat))
    assert np.all(ws.weights > 0)
