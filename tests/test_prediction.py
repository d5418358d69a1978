import collections
import itertools
import math
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from oracles import gaussian_spatial_dataset, ref_band_values, ref_predict

from cfglmm import (
    Dataset,
    FitConfig,
    GAUSSIAN,
    POISSON,
    BERNOULLI,
    coefficient_of_variation,
    decompose,
    fit_cf,
    fit_glm,
    predict,
)
from cfglmm import experts, geometry
from cfglmm.data import ValidationError
from cfglmm.experts import ScaleLayer, evaluate_stack
from cfglmm.families import add_intercept
from cfglmm.learner import CfModel
from cfglmm.simulate import SimScenario, gen_poisson


def _worker_pool(n: int) -> ThreadPoolExecutor:
    """A pool of ``n`` workers made like the library's, left unpinned."""
    return ThreadPoolExecutor(n, "cfglmm-chunk", initializer=geometry._pin_worker, initargs=([], itertools.count()))


def _bare_model(family, beta, layers=(), n_cov=None):
    return CfModel(
        beta=np.asarray(beta, dtype=float),
        layers=tuple(layers),
        family=family,
        loss_trace=(),
        config=FitConfig(),
        initial_deviance=1.0,
        validation_deviance=1.0,
        n_sites=0,
        n_covariates=len(beta) - 1 if n_cov is None else n_cov,
    )


def _toy_layer(bandwidth, centers, mu, sigma2):
    return ScaleLayer(
        bandwidth=bandwidth,
        centers=np.asarray(centers, dtype=float),
        mu=np.asarray(mu, dtype=float),
        sigma2=np.asarray(sigma2, dtype=float),
        tau2=1.0,
    )


@pytest.fixture(scope="module")
def poisson_model():
    sim = gen_poisson(SimScenario(beta0=0.5, n_train=500, n_test=200), seed=5)
    model = fit_cf(sim.train, FitConfig(rng_seed=5))
    return model, sim


class TestPredict:
    def test_zero_layers_equals_glm(self, rng):
        x = rng.normal(size=(200, 2))
        mu = np.exp(0.3 + x @ [0.8, -0.3])
        y = rng.poisson(mu).astype(float)
        d = Dataset(rng.random((200, 2)), y, x, "poisson")
        glm = fit_glm(d)
        model = _bare_model(POISSON, glm.beta)
        pred = predict(model, d.sites, x)
        np.testing.assert_allclose(pred.mu, np.exp(np.column_stack([np.ones(200), x]) @ glm.beta))
        assert np.all(pred.var_z == 0.0)
        assert np.all(pred.z_total == 0.0)

    def test_training_site_prediction_matches_cache(self):
        d, _ = gaussian_spatial_dataset(300, seed=12)
        model = fit_cf(d, FitConfig(rng_seed=12))
        pred = predict(model, d.sites, d.covariates, d.offset)
        np.testing.assert_array_equal(pred.z_total, model.train_fitted.z)
        np.testing.assert_array_equal(pred.var_z, model.train_fitted.var)

    def test_var_z_is_sum_of_layer_variances(self, poisson_model):
        model, sim = poisson_model
        sites = sim.test.sites[:50]
        pred = predict(model, sites, sim.test.covariates[:50])
        from cfglmm.experts import evaluate_layer

        total = np.zeros(len(sites))
        for layer in model.layers:
            total += evaluate_layer(layer, sites).variance
        np.testing.assert_allclose(pred.var_z, total, rtol=1e-12)

    def test_column_mismatch_raises(self, poisson_model):
        model, sim = poisson_model
        with pytest.raises(ValidationError, match="covariate column mismatch: model expects 2, got 1"):
            predict(model, sim.test.sites, sim.test.covariates[:, :1])

    def test_covariate_row_mismatch_raises(self, poisson_model):
        """A plain ``ValueError`` before covariates were checked where they are coerced."""
        model, sim = poisson_model
        with pytest.raises(ValidationError, match="length mismatch: 2 covariate rows vs 3 sites"):
            predict(model, sim.test.sites[:3], sim.test.covariates[:2])

    def test_offset_shifts_linear_predictor(self, poisson_model):
        model, sim = poisson_model
        sites = sim.test.sites[:20]
        x = sim.test.covariates[:20]
        base = predict(model, sites, x)
        shifted = predict(model, sites, x, offset=np.full(20, 0.7))
        np.testing.assert_allclose(shifted.mu_lin, base.mu_lin + 0.7, rtol=1e-12)

    def test_offset_length_mismatch_raises(self, poisson_model):
        model, sim = poisson_model
        with pytest.raises(ValidationError, match="length mismatch: 1 offset values vs 3 sites"):
            predict(model, sim.test.sites[:3], sim.test.covariates[:3], offset=[0.5])

    @pytest.mark.parametrize(
        "field,message", [("sites", "non-finite coordinate"), ("covariates", "non-finite covariate"),
                          ("offset", "non-finite offset")]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, poisson_model, field, message, bad):
        model, sim = poisson_model
        args = {"sites": sim.test.sites[:3].copy(), "covariates": sim.test.covariates[:3].copy(),
                "offset": np.zeros(3)}
        args[field][1] = bad
        with pytest.raises(ValidationError, match=message):
            predict(model, **args)

    def test_three_d_covariates_raise(self, poisson_model):
        model, sim = poisson_model
        with pytest.raises(ValidationError, match="1-D or 2-D"):
            predict(model, sim.test.sites, sim.test.covariates[:, :, None])

    def test_zero_sites(self, poisson_model):
        model, _ = poisson_model
        pred = predict(model, np.empty((0, 2)), np.empty((0, 2)))
        for field in FIELDS:
            assert getattr(pred, field).shape == (0,), field

    @pytest.mark.filterwarnings("error")
    def test_gaussian_zero_mean(self, rng):
        """An all-zero Gaussian response fits beta = 0 and no layer; its
        predictions have cov NaN (zero variance), and inf under a layer whose
        means are all zero."""
        d = Dataset(rng.random((100, 2)), np.zeros(100), np.empty((100, 0)), "gaussian")
        model = fit_cf(d, FitConfig(rng_seed=1))
        assert model.beta.tolist() == [0.0] and not model.layers
        pred = predict(model, d.sites[:10], np.empty((10, 0)))
        assert (pred.mu == 0.0).all() and np.isnan(pred.cov).all()
        layer = _toy_layer(0.5, [[0.2, 0.3], [0.7, 0.6]], [0.0, 0.0], [0.5, 2.0])
        pred = predict(_bare_model(GAUSSIAN, [0.0], [layer], n_cov=0), d.sites[:10], np.empty((10, 0)))
        assert (pred.mu == 0.0).all() and (pred.var_z > 0.0).all()
        assert (pred.cov == math.inf).all()

    def test_deterministic(self, poisson_model):
        model, sim = poisson_model
        a = predict(model, sim.test.sites, sim.test.covariates)
        b = predict(model, sim.test.sites, sim.test.covariates)
        np.testing.assert_array_equal(a.mu, b.mu)


FIELDS = ("mu_lin", "mu", "z_total", "var_z", "cov")


def _stack_model(rng, sizes=(3, 10, 40, 120, 400, 25), n_cov=2, active_share=0.9):
    """Poisson model whose layers differ in size, the last one not the smallest,
    so largest-first submission differs from layer order. Each layer keeps
    about ``active_share`` of the ``k`` experts drawn for it, the first always."""
    layers = []
    h = 0.8
    for k in sizes:
        keep = rng.random(k) < active_share
        keep[0] = True
        centers, mu, sigma2 = rng.random((k, 2)), rng.normal(size=k), rng.uniform(0.05, 2.0, k)
        layers.append(ScaleLayer(bandwidth=h, centers=centers[keep], mu=mu[keep], sigma2=sigma2[keep], tau2=1.0))
        h *= 0.6
    return _bare_model(POISSON, 0.3 * rng.normal(size=n_cov + 1), layers)


def _query(rng, n, n_cov=2):
    return rng.random((n, 2)), rng.normal(size=(n, n_cov)), rng.normal(size=n)


def _assert_predictions_equal(got, want):
    for f in FIELDS:
        np.testing.assert_array_equal(getattr(got, f), getattr(want, f), err_msg=f)


def _pool_budget_sites(model):
    """Largest query batch whose layers ``evaluate_stack`` evaluates in one group."""
    return experts._RESULTS_DOUBLES // (2 * len(model.layers))


def _set_budget_to(monkeypatch, model, n_sites):
    """Make ``n_sites`` the exact group edge: ``_RESULTS_DOUBLES`` holds the
    results of every layer at ``n_sites`` sites. Row blocks of as many kernel
    entries cut the larger layers into several blocks each."""
    budget = 2 * n_sites * len(model.layers)
    monkeypatch.setattr(experts, "_RESULTS_DOUBLES", budget)
    monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", budget)


def _blocks(model, n_sites):
    """Every (layer size, block) of a direct ``evaluate_layer`` call per layer,
    largest first, ties in layer and row order."""
    items = [
        (l.n_active, b) for l in model.layers for b in geometry._chunks(n_sites, geometry._BLOCK_DOUBLES // l.n_active)
    ]
    return sorted(items, key=lambda item: -item[0] * (item[1].stop - item[1].start))


class _Spy:
    """Wraps ``evaluate_stack``'s kernel blocks. Records each group of layers
    (their sizes), the kernel count of each block run and, per block run and
    per layer of a shared block, its layer's size, its rows, the thread that
    ran it and whether it ran in that thread's own buffers; tracks the layers
    with blocks in flight. A layer is known by its size, ``n_active``."""

    def __init__(self, real, delay=0.0, fail_on=None, error=None, slow_on=None, slow_delay=0.0):
        self.real, self.delay, self.fail_on, self.error = real, delay, fail_on, error
        self.slow_on, self.slow_delay = slow_on, slow_delay
        self.real_block = geometry._kernel_block
        self.lock = threading.Lock()
        self.in_flight = collections.Counter()
        self.peak_layers = 0
        self.groups, self.shared, self.runs, self.own = [], [], [], []

    def clear(self):
        self.peak_layers = 0
        for records in (self.groups, self.shared, self.runs, self.own):
            records.clear()

    def taken(self) -> dict[str, list[int]]:
        """Per thread, the sizes (rows times columns) of its blocks in the order it ran them."""
        out = {}
        for cols, sl, name in self.runs:
            out.setdefault(name, []).append(cols * (sl.stop - sl.start))
        return out

    def __call__(self, kernels):
        self.groups.append([len(anchors) for _, anchors, *_ in kernels])
        return self.real(kernels)

    def block(self, group, sl, d, k):
        cols = len(group[0][1])
        with self.lock:
            self.shared.append(len(group))
            for _ in group:
                self.runs.append((cols, sl, threading.current_thread().name))
                self.own.append(
                    np.shares_memory(k, geometry._THREAD.buf) and (d is k or np.shares_memory(d, geometry._THREAD.dist))
                )
            self.in_flight[cols] += 1
            self.peak_layers = max(self.peak_layers, sum(1 for v in self.in_flight.values() if v))
        try:
            slow = self.slow_on is not None and cols == self.slow_on.n_active
            time.sleep(self.slow_delay if slow else self.delay)
            if self.fail_on is not None and cols == self.fail_on.n_active:
                raise self.error
            self.real_block(group, sl, d, k)
        finally:
            with self.lock:
                self.in_flight[cols] -= 1


@pytest.fixture
def spy(monkeypatch):
    def install(**kw):
        s = _Spy(experts._map_kernel_blocks, **kw)
        monkeypatch.setattr(experts, "_map_kernel_blocks", s)
        monkeypatch.setattr(geometry, "_kernel_block", s.block)
        return s

    return install


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` replaces the pool by one of ``n`` workers, made like it."""
    pools = []

    def make(n):
        pool = _worker_pool(n)
        pools.append(pool)
        monkeypatch.setattr(geometry, "POOL_WORKERS", n)
        monkeypatch.setattr(geometry, "_POOL", pool)

    yield make
    for pool in pools:
        pool.shutdown(wait=True)


@pytest.fixture
def eight_workers(workers):
    """Eight pool workers on this machine's cores, switching threads every 1 µs."""
    workers(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestEvaluateStack:
    """``evaluate_stack`` and the ``predict`` / ``decompose`` built on it equal
    the serial layer loops bit for bit, on the pool and off it."""

    def test_bitwise_under_eight_workers(self, rng, eight_workers):
        model = _stack_model(rng)
        n_max = _pool_budget_sites(model)
        for n in (1, 256, n_max, n_max + 1):
            sites, x, off = _query(rng, n)
            sites[0] = (50.0, 50.0)  # far site: capped variance, infinite CoV
            for _ in range(3):
                _assert_predictions_equal(predict(model, sites, x, off), ref_predict(model, sites, x, off))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    got = decompose(model, sites, (0.5, 0.2, 0.05))
                np.testing.assert_array_equal(got.band_values, ref_band_values(model, sites, (0.5, 0.2, 0.05)))
            stack = evaluate_stack(model.layers, sites)
            for layer, ev in zip(model.layers, stack, strict=True):
                want = experts.evaluate_layer(layer, sites)
                np.testing.assert_array_equal(ev.mean, want.mean)
                np.testing.assert_array_equal(ev.variance, want.variance)

    def test_bitwise_fitted_model(self, poisson_model, eight_workers):
        model, sim = poisson_model
        assert len(model.layers) >= 5 and len({l.n_active for l in model.layers}) >= 5
        t = sim.test
        for sl in (slice(0, 256), slice(None)):
            _assert_predictions_equal(
                predict(model, t.sites[sl], t.covariates[sl], t.offset[sl]),
                ref_predict(model, t.sites[sl], t.covariates[sl], t.offset[sl]),
            )
            np.testing.assert_array_equal(
                decompose(model, t.sites[sl], (0.5, 0.2)).band_values, ref_band_values(model, t.sites[sl], (0.5, 0.2))
            )

    def test_equal_centers_run_blocks_of_direct_calls(self, rng, spy, workers, monkeypatch):
        """Three layers on copies of one set of centers share their blocks;
        each layer still runs the blocks of a direct call, in the running
        thread's own buffers, and predict has the bits of the serial loop."""
        workers(2)
        model = _stack_model(rng, sizes=(40, 10, 40, 25, 40), active_share=1.0)
        cen = model.layers[0].centers
        layers = [replace(l, centers=cen.copy()) if l.n_active == 40 else l for l in model.layers]
        model = replace(model, layers=tuple(layers))
        _set_budget_to(monkeypatch, model, 256)
        sites, x, off = _query(rng, 256)
        sites[0] = (50.0, 50.0)  # far site: the underflow fix-up
        want = ref_predict(model, sites, x, off)
        s = spy()
        _assert_predictions_equal(predict(model, sites, x, off), want)
        blocks = _blocks(model, 256)
        assert sorted((c, b.start, b.stop) for c, b, _ in s.runs) == sorted((c, b.start, b.stop) for c, b in blocks)
        n_shared = sum(c == 40 for c, _ in blocks) // 3
        assert sorted(s.shared) == [1] * (len(blocks) - 3 * n_shared) + [3] * n_shared
        assert all(s.own)

    def test_within_budget_layers_run_on_pool(self, rng, spy, workers, monkeypatch):
        workers(2)
        model = _stack_model(rng)
        _set_budget_to(monkeypatch, model, 256)
        sites, x, off = _query(rng, 256)
        want = ref_predict(model, sites, x, off)
        s = spy(delay=0.002)
        _assert_predictions_equal(predict(model, sites, x, off), want)
        assert s.groups == [[l.n_active for l in model.layers]]  # one group, one queue
        assert sorted((c, b.start, b.stop) for c, b, _ in s.runs) == sorted(
            (c, b.start, b.stop) for c, b in _blocks(model, 256)
        )
        assert len(s.runs) > 2 * len(model.layers)  # layers of several blocks
        assert all(name.startswith("cfglmm-chunk") for *_, name in s.runs), s.runs
        assert len({name for *_, name in s.runs}) == 2
        assert all(s.own)  # each block in the buffer of the thread that took it

    def test_over_budget_one_layer_at_a_time(self, rng, spy, workers, monkeypatch):
        workers(2)
        model = _stack_model(rng)
        monkeypatch.setattr(experts, "_RESULTS_DOUBLES", 2 * 257)  # one layer's results at 257 sites
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 2 * 257)  # several blocks per layer
        sites, x, off = _query(rng, 257)
        want = ref_predict(model, sites, x, off)
        s = spy(delay=0.001)
        _assert_predictions_equal(predict(model, sites, x, off), want)
        assert s.groups == [[l.n_active] for l in model.layers]
        assert s.peak_layers == 1
        assert len({name for *_, name in s.runs}) == 2  # a layer's blocks on both workers

    def test_over_budget_holds_one_layer_at_a_time(self, rng, spy, workers, monkeypatch):
        workers(2)
        model = _stack_model(rng)
        sizes = [l.n_active for l in model.layers]
        assert len(set(sizes)) == len(sizes)
        sites = rng.random((257, 2))
        s = spy()
        for budget, per_group in ((2 * 257, 1), (2 * 257 * 2 + 1, 2), (2 * 256 * len(sizes), len(sizes) - 1)):
            monkeypatch.setattr(experts, "_RESULTS_DOUBLES", budget)
            want = [experts.evaluate_layer(layer, sites) for layer in model.layers]
            s.clear()
            stack = evaluate_stack(model.layers, sites)
            assert s.groups == []
            for k, (ev, w) in enumerate(zip(stack, want, strict=True)):
                assert len(s.groups) == k // per_group + 1  # its group is evaluated when reached, not before
                np.testing.assert_array_equal(ev.mean, w.mean)
                np.testing.assert_array_equal(ev.variance, w.variance)
            assert [c for g in s.groups for c in g] == sizes
            assert all(len(g) == 1 or 2 * 257 * len(g) <= budget for g in s.groups)
            assert max(map(len, s.groups)) == per_group

    def test_layers_overlap_on_several_workers(self, rng, spy, eight_workers):
        model = _stack_model(rng)
        s = spy(delay=0.05)
        list(evaluate_stack(model.layers, rng.random((16, 2))))
        assert s.peak_layers >= 2

    def test_one_worker_runs_largest_first_on_caller(self, rng, spy, workers, monkeypatch):
        workers(1)
        model = _stack_model(rng)
        _set_budget_to(monkeypatch, model, 256)
        s = spy()
        list(evaluate_stack(model.layers, rng.random((256, 2))))
        assert [(c, b) for c, b, _ in s.runs] == _blocks(model, 256)
        assert {name for *_, name in s.runs} == {threading.current_thread().name}

    def test_each_worker_takes_layers_largest_first(self, rng, spy, workers, monkeypatch):
        workers(2)
        model = _stack_model(rng, sizes=(10, 40, 5, 50, 20, 30), active_share=1.0)
        _set_budget_to(monkeypatch, model, 256)
        sites = rng.random((256, 2))
        want = [experts.evaluate_layer(layer, sites) for layer in model.layers]
        s = spy(delay=0.005)
        stack = list(evaluate_stack(model.layers, sites))
        taken = s.taken()
        assert len(taken) == 2
        assert sorted(size for sizes in taken.values() for size in sizes) == sorted(
            c * (b.stop - b.start) for c, b in _blocks(model, 256)
        )
        assert all(sizes == sorted(sizes, reverse=True) for sizes in taken.values()), taken
        assert len(s.groups) == 1 and s.peak_layers >= 2  # blocks of different layers overlap
        # ...and the results come back in layer order
        for ev, w in zip(stack, want, strict=True):
            np.testing.assert_array_equal(ev.mean, w.mean)

    def test_slow_worker_takes_fewer_layers(self, rng, spy, workers):
        workers(2)
        model = _stack_model(rng, sizes=(10, 40, 5, 50, 20, 30), active_share=1.0)
        largest = model.layers[3]
        sites = rng.random((16, 2))  # one block per layer
        want = [experts.evaluate_layer(layer, sites) for layer in model.layers]
        s = spy(delay=0.01, slow_on=largest, slow_delay=0.5)
        stack = list(evaluate_stack(model.layers, sites))
        taken = {}
        for cols, _, name in s.runs:
            taken.setdefault(name, []).append(cols)
        # fixed shares would give the slow worker 50, 20 and 10
        assert sorted(taken.values()) == [[40, 30, 20, 10, 5], [50]]
        for ev, w in zip(stack, want, strict=True):
            np.testing.assert_array_equal(ev.mean, w.mean)

    @pytest.mark.parametrize("several_groups", [False, True], ids=["one_group", "several_groups"])
    def test_layer_error_reaches_caller(self, rng, spy, several_groups, monkeypatch):
        model = _stack_model(rng)
        _set_budget_to(monkeypatch, model, 256)
        error = RuntimeError("layer failed")
        s = spy(fail_on=model.layers[-1], error=error)  # in the last group
        sites, x, _ = _query(rng, 256 + int(several_groups))
        with pytest.raises(RuntimeError) as info:
            predict(model, sites, x)
        assert info.value is error
        assert len(s.groups) == 1 + int(several_groups)
        with pytest.raises(RuntimeError) as info:
            decompose(model, sites, (0.5,))
        assert info.value is error

    def test_zero_layers(self, rng):
        assert list(evaluate_stack((), rng.random((256, 2)))) == []
        assert list(evaluate_stack([], np.empty((0, 2)))) == []
        x = rng.normal(size=(200, 2))
        y = rng.poisson(np.exp(0.3 + x @ [0.8, -0.3])).astype(float)
        glm = fit_glm(Dataset(rng.random((200, 2)), y, x, "poisson"))
        model = _bare_model(POISSON, glm.beta)
        sites, off = rng.random((200, 2)), rng.normal(size=200)
        pred = predict(model, sites, x, off)
        eta = add_intercept(x) @ glm.beta + off
        np.testing.assert_array_equal(pred.mu_lin, eta)
        np.testing.assert_array_equal(pred.mu, POISSON.clamp_mu(POISSON.inv_link(eta)))
        _assert_predictions_equal(pred, ref_predict(model, sites, x, off))


class TestCoefficientOfVariation:
    @pytest.mark.filterwarnings("error")
    def test_log_link_diverges_to_inf_silently(self):
        assert coefficient_of_variation(1e300, 2.0, POISSON) == math.inf
        assert coefficient_of_variation(710.0, 2.0, POISSON) == math.inf
        got = coefficient_of_variation(np.array([0.5, 709.0, 1e300]), np.ones(3), POISSON)
        np.testing.assert_array_equal(got, [math.sqrt(math.expm1(0.5)), math.sqrt(math.expm1(709.0)), math.inf])

    @pytest.mark.filterwarnings("error")
    def test_far_site_cov_is_inf(self, poisson_model):
        model, sim = poisson_model
        assert model.layers
        sites = np.vstack([sim.test.sites[:20], [[50.0, 50.0]]])
        pred = predict(model, sites, np.zeros((21, model.n_covariates)))
        assert pred.var_z[-1] >= 1e300 and pred.cov[-1] == math.inf
        assert np.isfinite(pred.mu).all()
        # finite sites: the plain lognormal form, bit for bit
        np.testing.assert_array_equal(pred.cov[:-1], np.sqrt(np.expm1(pred.var_z[:-1])))

    def test_zero_variance_gives_zero_for_every_link(self):
        for family in (GAUSSIAN, POISSON, BERNOULLI):
            assert coefficient_of_variation(0.0, 0.4, family) == 0.0

    def test_log_link_lognormal_form(self):
        assert coefficient_of_variation(1.0, 5.0, POISSON) == pytest.approx(
            math.sqrt(math.e - 1.0)
        )

    def test_log_link_independent_of_mean(self):
        a = coefficient_of_variation(0.3, 1.0, POISSON)
        b = coefficient_of_variation(0.3, 100.0, POISSON)
        assert a == b

    def test_identity_link(self):
        assert coefficient_of_variation(0.25, -2.0, GAUSSIAN) == pytest.approx(0.25)

    @pytest.mark.filterwarnings("error")
    def test_identity_link_zero_mean_is_inf_or_nan_silently(self):
        """sd / |mu| with numpy's division results: inf where only mu is 0, NaN where var is 0 too."""
        assert coefficient_of_variation(0.5, 0.0, GAUSSIAN) == math.inf
        assert coefficient_of_variation(0.25, -0.0, GAUSSIAN) == math.inf
        assert math.isnan(coefficient_of_variation(0.0, 0.0, GAUSSIAN))
        got = coefficient_of_variation(np.array([0.25, 0.5, 0.0]), np.array([-2.0, 0.0, 0.0]), GAUSSIAN)
        np.testing.assert_array_equal(got, [0.25, math.inf, math.nan])

    def test_logit_delta_method(self):
        assert coefficient_of_variation(0.04, 0.25, BERNOULLI) == pytest.approx(0.2 * 0.75)

    @pytest.mark.parametrize("family", [GAUSSIAN, POISSON, BERNOULLI])
    def test_monotone_in_variance(self, family):
        mu = 0.3
        values = [coefficient_of_variation(v, mu, family) for v in (0.0, 0.1, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestDecompose:
    def test_single_band_is_total(self, poisson_model):
        model, sim = poisson_model
        sites = sim.test.sites[:40]
        bands = decompose(model, sites, ())
        pred = predict(model, sites, sim.test.covariates[:40])
        np.testing.assert_allclose(bands.band_values[:, 0], pred.z_total, rtol=1e-12)

    def test_paper_thresholds_three_layers_three_bands(self):
        layers = [
            _toy_layer(3.0, [[0.0, 0.0]], [1.0], [0.5]),
            _toy_layer(0.8, [[0.5, 0.5]], [2.0], [0.5]),
            _toy_layer(0.3, [[1.0, 1.0]], [3.0], [0.5]),
        ]
        model = _bare_model(GAUSSIAN, [0.0], layers, n_cov=0)
        bands = decompose(model, [[0.2, 0.2]], (1.9, 0.5))
        assert bands.n_bands == 3
        # one layer per band: each band value equals that layer alone
        from cfglmm.experts import evaluate_layer

        for b, layer in enumerate(layers):
            ev = evaluate_layer(layer, [[0.2, 0.2]])
            assert bands.band_values[0, b] == pytest.approx(ev.mean[0], rel=1e-12)

    def test_band_edge_assignment_half_open(self):
        layers = [_toy_layer(1.9, [[0.0, 0.0]], [1.0], [0.5])]
        model = _bare_model(GAUSSIAN, [0.0], layers, n_cov=0)
        with pytest.warns(UserWarning):
            bands = decompose(model, [[0.0, 0.0]], (1.9, 0.5))
        assert bands.band_values[0, 0] != 0.0  # h == upper edge falls in the coarse band
        assert bands.band_values[0, 1] == 0.0

    def test_band_sums_reconstruct_total(self, poisson_model, rng):
        model, sim = poisson_model
        sites = rng.random((200, 2))
        edges = (0.5, 0.2, 0.05)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bands = decompose(model, sites, edges)
        pred = predict(model, sites, np.zeros((200, model.n_covariates)))
        np.testing.assert_allclose(bands.band_values.sum(axis=1), pred.z_total, atol=1e-12)

    def test_zero_sites(self, poisson_model):
        """No rows and NaN spreads, with no numpy warning; the empty-band
        warnings stay."""
        model, _ = poisson_model
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bands = decompose(model, np.empty((0, 2)), (0.5, 0.1))
        assert bands.band_values.shape == (0, 3)
        assert bands.band_sds.shape == (3,) and np.isnan(bands.band_sds).all()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert all("no accepted layer" in str(w.message) for w in caught)

    def test_empty_band_warns(self, poisson_model):
        model, sim = poisson_model
        with pytest.warns(UserWarning, match="no accepted layer"):
            decompose(model, sim.test.sites[:5], (1e6,))

    def test_non_descending_edges_error(self, poisson_model):
        model, _ = poisson_model
        with pytest.raises(ValueError, match="descending"):
            decompose(model, [[0.0, 0.0]], (0.5, 1.9))

    @pytest.mark.parametrize("edges", [(np.nan,), (1.9, np.nan), (0.0,)])
    def test_non_positive_edges_error(self, poisson_model, edges):
        model, _ = poisson_model
        with pytest.raises(ValueError, match="positive"):
            decompose(model, [[0.0, 0.0]], edges)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_site_raises(self, poisson_model, bad):
        model, sim = poisson_model
        sites = sim.test.sites[:3].copy()
        sites[1, 0] = bad
        with pytest.raises(ValidationError, match="non-finite coordinate"):
            decompose(model, sites, (0.5, 0.2))

    def test_band_sds_are_site_sds(self, poisson_model, rng):
        model, _ = poisson_model
        sites = rng.random((100, 2))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bands = decompose(model, sites, (0.5,))
        np.testing.assert_allclose(bands.band_sds, bands.band_values.std(axis=0), rtol=1e-12)


class TestGaussianCoverage:
    def test_intervals_are_valid_for_latent_surface(self):
        # Summing per-layer product-of-experts variances across scales counts
        # overlapping residual spread repeatedly, so the intervals are
        # conservative rather than tightly calibrated; they must at least be
        # valid (>= nominal coverage) for the noise-free latent mean.
        d, z = gaussian_spatial_dataset(2000, seed=21, noise_sd=0.5)
        model = fit_cf(d, FitConfig(rng_seed=21))
        pred = predict(model, d.sites, d.covariates)
        latent = 1.0 + d.covariates @ [2.0, -0.5] + z
        half = 1.96 * np.sqrt(pred.var_z)
        covered = np.abs(latent - pred.mu) <= half
        assert covered.mean() >= 0.90
        # the fit itself must be accurate; conservatism must come from the
        # variance, not from a poor mean surface
        assert np.sqrt(np.mean((latent - pred.mu) ** 2)) < 0.3 * latent.std()
