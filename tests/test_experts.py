import itertools
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import grid_poe_moments, ref_evaluate_layer, ref_fit_layer, tile_in_own_buffers

from cfglmm import (
    FitConfig,
    LayerUnfittableError,
    ValidationError,
    evaluate_layer,
    fit_layer,
    layer_basis_expansion,
)
from cfglmm import experts, geometry
from cfglmm.experts import SIGMA2_FLOOR, ScaleLayer


def _worker_pool(n: int) -> ThreadPoolExecutor:
    """A pool of ``n`` workers made like the library's, left unpinned."""
    return ThreadPoolExecutor(n, "cfglmm-chunk", initializer=geometry._pin_worker, initargs=([], itertools.count()))


def _layer(centers, mu, sigma2, bandwidth):
    return ScaleLayer(
        bandwidth=bandwidth,
        centers=np.asarray(centers, dtype=float),
        mu=np.asarray(mu, dtype=float),
        sigma2=np.asarray(sigma2, dtype=float),
        tau2=1.0,
    )


class TestFitLayer:
    def test_constant_targets_single_center(self):
        """Raw mean 3.3 and floored variance and ``tau2``, so ``mu = 3.3 *
        sum(k^2) / (sum(k^2) + 1)``."""
        sites = np.array([[0.1, 0.1], [0.4, 0.9], [0.8, 0.2]])
        layer = fit_layer([3.3, 3.3, 3.3], np.ones(3), sites, [[0.5, 0.5]], 1.0, FitConfig())
        sum_k2 = np.exp(-2.0 * np.hypot(*(sites - 0.5).T)).sum()
        assert layer.sigma2[0] == SIGMA2_FLOOR
        assert layer.tau2 == SIGMA2_FLOOR
        assert layer.mu[0] == pytest.approx(3.3 * sum_k2 / (sum_k2 + 1.0), rel=1e-14)

    def test_two_coincident_sites_sample_moments(self):
        """Raw mean 1 and variance 1 from two sites at the center (``sum(k^2) =
        2``); one expert floors ``tau2``."""
        sites = np.array([[0.5, 0.5], [0.5, 0.5]])
        layer = fit_layer([0.0, 2.0], np.ones(2), sites, [[0.5, 0.5]], 2.0, FitConfig())
        assert layer.sigma2[0] == pytest.approx(1.0)
        assert layer.tau2 == SIGMA2_FLOOR
        assert layer.mu[0] == pytest.approx(1.0 * SIGMA2_FLOOR / (SIGMA2_FLOOR + 1.0 / 2.0), rel=1e-12)

    def test_shrinkage_matches_scalar_oracle(self, rng):
        """Independent per-center recomputation of the shrunken means, 12 dp."""
        sites = rng.random((25, 2))
        targets = rng.normal(size=25)
        weights = rng.uniform(0.2, 2.0, 25)
        h = 0.6
        centers = np.array([[0.2, 0.3], [0.8, 0.7]])
        layer = fit_layer(targets, weights, sites, centers, h, FitConfig())

        raw_means, raw_vars, sum_k2 = [], [], []
        for c in centers:
            m_num = m_den = k2 = 0.0
            for s, t, w in zip(sites, targets, weights):
                kern = math.exp(-math.hypot(s[0] - c[0], s[1] - c[1]) / h)
                p = w * kern * kern
                m_num += p * t
                m_den += p
                k2 += kern * kern
            m = m_num / m_den
            v = sum(
                w * math.exp(-math.hypot(s[0] - c[0], s[1] - c[1]) / h) ** 2 * (t - m) ** 2
                for s, t, w in zip(sites, targets, weights)
            ) / m_den
            raw_means.append(m)
            raw_vars.append(max(v, SIGMA2_FLOOR))
            sum_k2.append(k2)
        tau2 = max(np.var(raw_means), SIGMA2_FLOOR)
        assert layer.tau2 == pytest.approx(tau2, rel=1e-12)
        for j in range(2):
            shrunk = raw_means[j] * tau2 / (tau2 + raw_vars[j] / sum_k2[j])
            assert layer.mu[j] == pytest.approx(shrunk, abs=1e-12, rel=1e-12)

    def test_all_inactive_raises(self):
        sites = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(LayerUnfittableError, match="unfittable"):
            fit_layer([1.0, 2.0, 3.0], np.zeros(3), sites, [[0.5, 0.5]], 1.0, FitConfig())

    def test_negligible_weight_center_inactive(self):
        """A center whose weight underflows gets no expert."""
        sites = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
        centers = np.array([[0.05, 0.05], [500.0, 500.0]])
        layer = fit_layer([1.0, 2.0, 3.0], np.ones(3), sites, centers, 0.5, FitConfig())
        np.testing.assert_array_equal(layer.centers, [[0.05, 0.05]])
        assert len(layer.mu) == len(layer.sigma2) == layer.n_active == 1

    def test_min_effective_weight_keeps_heavy_centers_in_order(self):
        """Above some centers' weight, ``min_effective_weight`` leaves exactly
        the oracle's centers with enough weight, in placement order, and each
        kept expert has the oracle's values."""
        targets, weights, sites, centers, h = _fit_inputs(21, 400, 60)
        k2 = np.exp(-2.0 * np.hypot(*(centers[:, None, :] - sites[None, :, :]).transpose(2, 0, 1)) / h)
        weight = k2 @ weights
        cfg = FitConfig(min_effective_weight=float(np.median(weight)))
        heavy = centers[weight >= cfg.min_effective_weight]
        assert 0 < len(heavy) < len(centers) - 1  # drops more than the far center
        got = fit_layer(targets, weights, sites, centers, h, cfg)
        want = ref_fit_layer(targets, weights, sites, centers, h, cfg)
        np.testing.assert_array_equal(got.centers, heavy)
        _assert_layers_close(got, want, targets)

    def test_zero_min_effective_weight_drops_weightless_centers(self):
        """``min_effective_weight=0`` admits a center whose kernel weights all
        underflow; it used to get a NaN ``sigma2`` that made ``tau2`` and every
        evaluation NaN."""
        sites = np.random.default_rng(4).random((50, 2))
        targets = np.random.default_rng(5).normal(size=50)
        centers = [[0.5, 0.5], [50.0, 50.0]]
        layer = fit_layer(targets, np.ones(50), sites, centers, 0.05, FitConfig(min_effective_weight=0.0))
        np.testing.assert_array_equal(layer.centers, [[0.5, 0.5]])
        assert np.isfinite(layer.tau2)
        default = fit_layer(targets, np.ones(50), sites, centers, 0.05, FitConfig())
        _assert_evaluations_equal(evaluate_layer(layer, sites), evaluate_layer(default, sites))

    def test_permutation_invariance(self, rng):
        sites = rng.random((40, 2))
        targets = rng.normal(size=40)
        weights = rng.uniform(0.1, 3.0, 40)
        perm = rng.permutation(40)
        centers = rng.random((3, 2))
        a = fit_layer(targets, weights, sites, centers, 0.4, FitConfig())
        b = fit_layer(targets[perm], weights[perm], sites[perm], centers, 0.4, FitConfig())
        np.testing.assert_allclose(a.mu, b.mu, rtol=1e-10)
        np.testing.assert_allclose(a.sigma2, b.sigma2, rtol=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("arg", ["target", "site weight", "site", "center"])
    def test_non_finite_input_rejected(self, arg, bad):
        """A NaN target used to zero every mean, a NaN weight to raise
        ``LayerUnfittableError``, and an inf site to drop out of the fit."""
        targets, weights, sites, centers, h = _fit_inputs(3, 50, 4)
        {"target": targets, "site weight": weights, "site": sites, "center": centers}[arg].flat[7] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            fit_layer(targets, weights, sites, centers, h, FitConfig())

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
    def test_nonpositive_bandwidth_rejected(self, bandwidth):
        targets, weights, sites, centers, _ = _fit_inputs(3, 50, 4)
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            fit_layer(targets, weights, sites, centers, bandwidth, FitConfig())

    def test_weight_scaling_invariance(self, rng):
        sites = rng.random((30, 2))
        targets = rng.normal(size=30)
        weights = rng.uniform(0.5, 2.0, 30)
        centers = rng.random((2, 2))
        a = fit_layer(targets, weights, sites, centers, 0.5, FitConfig())
        b = fit_layer(targets, 4.0 * weights, sites, centers, 0.5, FitConfig())
        np.testing.assert_allclose(a.mu, b.mu, rtol=1e-12)
        np.testing.assert_allclose(a.sigma2, b.sigma2, rtol=1e-12)
        assert a.tau2 == pytest.approx(b.tau2, rel=1e-12)


class TestScaleLayerChecks:
    """A layer is copied, checked and made read-only when it is built."""

    GOOD = dict(bandwidth=0.5, centers=[[0.0, 0.0], [1.0, 1.0]], mu=[1.0, 2.0], sigma2=[0.5, 1.0], tau2=1.0)

    @pytest.mark.parametrize(
        "fault,message",
        [
            (dict(sigma2=[0.0, 1.0]), "sigma2, bandwidth and tau2 must be finite and positive"),
            (dict(sigma2=[-1.0, 1.0]), "sigma2, bandwidth and tau2 must be finite and positive"),
            (dict(sigma2=[math.inf, 1.0]), "non-finite sigma2"),
            (dict(mu=[math.nan, 1.0]), "non-finite mu"),
            (dict(mu=[1.0]), "length mismatch: 1 mu values vs 2 centers"),
            (dict(sigma2=[1.0, 1.0, 1.0]), "length mismatch: 3 sigma2 values vs 2 centers"),
            (dict(bandwidth=-1.0), "bandwidth"),
            (dict(bandwidth=math.nan), "bandwidth"),
            (dict(bandwidth=math.inf), "bandwidth"),
            (dict(centers=[[math.nan, 0.0], [1.0, 1.0]]), "non-finite coordinate"),
            (dict(centers=[0.0, 0.0, 1.0, 1.0]), r"\(n, 2\) array"),
            (dict(centers=np.empty((0, 2)), mu=[], sigma2=[]), "layer has no expert"),
            (dict(tau2=0.0), "tau2"),
            (dict(tau2=-1.0), "tau2"),
            (dict(tau2=math.nan), "tau2"),
        ],
        ids=[
            "sigma2-zero", "sigma2-negative", "sigma2-inf", "mu-nan", "mu-short", "sigma2-long",
            "bandwidth-negative", "bandwidth-nan", "bandwidth-inf", "center-nan", "centers-flat", "empty",
            "tau2-zero", "tau2-negative", "tau2-nan",
        ],
    )
    def test_invalid_layer_rejected_when_built(self, fault, message):
        """Each of these used to build, and most evaluated to NaN, zero
        variance, a broadcast mean or a kernel growing with distance."""
        with pytest.raises(ValidationError, match=message):
            ScaleLayer(**{**self.GOOD, **fault})

    def test_inputs_are_copied_and_read_only(self):
        arrays = {name: np.array(self.GOOD[name], dtype=float) for name in ("centers", "mu", "sigma2")}
        layer = ScaleLayer(**{**self.GOOD, **arrays})
        before = evaluate_layer(layer, [[0.5, 0.5], [0.0, 0.0]])
        for name, array in arrays.items():
            array[0] = -7.0
            stored = getattr(layer, name)
            assert not stored.flags.writeable and not np.shares_memory(stored, array), name
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = -1.0
        _assert_evaluations_equal(evaluate_layer(layer, [[0.5, 0.5], [0.0, 0.0]]), before)

    def test_fitted_layer_is_read_only(self):
        targets, weights, sites, centers, h = _fit_inputs(3, 50, 4)
        layer = fit_layer(targets, weights, sites, centers, h, FitConfig())
        assert not any(getattr(layer, name).flags.writeable for name in ("centers", "mu", "sigma2"))


def _fit_inputs(seed: int, n_pts: int, n_centers: int, wide: bool = False):
    """Working-target inputs ``(targets, weights, sites, centers, bandwidth)``
    with some zero site weights and, given more than one center, one far-off
    center at (50, 50) that gets no expert. ``wide``:
    site weights log-uniform over 1e-3 to 1e3, as working weights spread."""
    rng = np.random.default_rng(seed)
    sites = rng.random((n_pts, 2))
    targets = rng.normal(size=n_pts)
    weights = 10.0 ** rng.uniform(-3.0, 3.0, n_pts) if wide else rng.uniform(0.0, 2.0, n_pts)
    weights[rng.random(n_pts) < 0.2] = 0.0
    cen = rng.random((n_centers, 2))
    if n_centers > 1:
        cen[-1] = (50.0, 50.0)
    return targets, weights, sites, cen, 0.05


def _assert_layers_equal(got: ScaleLayer, want: ScaleLayer):
    for field in ("centers", "mu", "sigma2"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)
    assert got.tau2 == want.tau2
    assert got.bandwidth == want.bandwidth
    assert (got.centers != 50.0).all()  # the far-off center got no expert


def _assert_layers_close(got: ScaleLayer, want: ScaleLayer, targets):
    """The tolerance of ``fit_layer`` against the serial chunk loop: ``mu``
    within ``rtol=1e-12, atol=1e-12 * max|t|``, ``sigma2`` and ``tau2``
    within ``rtol=1e-12``, ``centers`` identical.

    It holds where every kept center averages over many sites, as in these
    inputs (bandwidth 0.05 over 2500 unit-square sites), with site weights
    spread over 1e-3 to 1e3 or even 1e-6 to 1e6 (``sigma2`` within 5e-14).
    Where a few sites dominate a center (bandwidth 0.01 over 3000 sites) the
    ``m2 - m*m`` cancellation in both loops takes ``sigma2`` up to 4e-12 from
    the oracle at 1e-3 to 1e3 weights, and 4e-11 at 1e-6 to 1e6."""
    atol = 1e-12 * np.abs(targets).max()
    np.testing.assert_allclose(got.mu, want.mu, rtol=1e-12, atol=atol)
    np.testing.assert_allclose(got.sigma2, want.sigma2, rtol=1e-12, atol=0.0)
    assert got.tau2 == pytest.approx(want.tau2, rel=1e-12, abs=0.0)
    np.testing.assert_array_equal(got.centers, want.centers)
    assert got.bandwidth == want.bandwidth
    assert (got.centers != 50.0).all()  # the far-off center got no expert


def _on_one_worker(monkeypatch, fn, *args):
    """``fn(*args)`` with every kernel block run on the calling thread."""
    with monkeypatch.context() as m:
        m.setattr(geometry, "POOL_WORKERS", 1)
        return fn(*args)


class TestFitLayerBitwise:
    """The pooled ``fit_layer`` has the bits of a run on one worker, and is
    within the stated tolerance of the serial chunk loop."""

    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 5])
    @pytest.mark.parametrize("last", [1, 36], ids=["remainder1", "remainder_width-1"])
    def test_short_last_chunk(self, n_chunks, last, monkeypatch):
        n_pts, width = 300, 37
        chunk_doubles = width * n_pts
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", chunk_doubles)  # blocks of the oracle's chunks
        args = _fit_inputs(n_chunks, n_pts, (n_chunks - 1) * width + last)
        got = fit_layer(*args, FitConfig())
        _assert_layers_equal(got, _on_one_worker(monkeypatch, fit_layer, *args, FitConfig()))
        _assert_layers_close(got, ref_fit_layer(*args, FitConfig(), chunk_doubles=chunk_doubles), args[0])

    def test_default_chunk_width(self):
        # 2500 sites: the oracle takes 1600 centers per chunk, so three chunks, the last of 1
        for wide in (False, True):
            args = _fit_inputs(7, 2500, 3201, wide)
            _assert_layers_close(fit_layer(*args, FitConfig()), ref_fit_layer(*args, FitConfig()), args[0])

    def test_more_workers_than_cores(self, monkeypatch):
        """Eight workers, one buffer each, and a short switch interval: a
        buffer shared by two blocks in flight, or a lost block, breaks equality."""
        n_pts, width = 2000, 16
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", width * n_pts)
        args = _fit_inputs(11, n_pts, 40 * width + 1)
        want = _on_one_worker(monkeypatch, fit_layer, *args, FitConfig())
        _assert_layers_close(want, ref_fit_layer(*args, FitConfig()), args[0])
        monkeypatch.setattr(geometry, "POOL_WORKERS", 8)
        pool = _worker_pool(8)
        monkeypatch.setattr(geometry, "_POOL", pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                _assert_layers_equal(fit_layer(*args, FitConfig()), want)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=True)


class TestEvaluateLayer:
    def test_single_expert_at_center(self):
        layer = _layer([[0.5, 0.5]], [2.5], [0.7], bandwidth=1.0)
        ev = evaluate_layer(layer, [[0.5, 0.5]])
        assert ev.mean[0] == pytest.approx(2.5)
        assert ev.variance[0] == pytest.approx(0.7)

    def test_two_symmetric_experts(self):
        # equal mu and sigma2, equidistant: mean mu, variance sigma2/(2 w)
        layer = _layer([[0.0, 0.0], [1.0, 0.0]], [1.8, 1.8], [0.5, 0.5], bandwidth=0.8)
        ev = evaluate_layer(layer, [[0.5, 0.0]])
        w = math.exp(-0.5 / 0.8)
        assert ev.mean[0] == pytest.approx(1.8)
        assert ev.variance[0] == pytest.approx(0.5 / (2 * w))

    def test_three_experts_match_grid_oracle(self, rng):
        layer = _layer(
            rng.random((3, 2)), rng.normal(size=3), rng.uniform(0.2, 2.0, 3), bandwidth=0.7
        )
        site = rng.random(2)
        ev = evaluate_layer(layer, [site])
        dists = np.hypot(*(site - layer.centers).T)
        weights = np.exp(-dists / layer.bandwidth)
        mean, var = grid_poe_moments(layer.mu, layer.sigma2, weights)
        assert ev.mean[0] == pytest.approx(mean, rel=1e-9, abs=1e-9)
        assert ev.variance[0] == pytest.approx(var, rel=1e-9)

    def test_mean_bounded_by_expert_means(self, rng):
        for _ in range(20):
            k = rng.integers(2, 6)
            layer = _layer(
                rng.random((k, 2)), rng.normal(size=k), rng.uniform(0.1, 3.0, k), bandwidth=0.5
            )
            ev = evaluate_layer(layer, rng.random((10, 2)))
            assert (ev.mean >= layer.mu.min() - 1e-12).all()
            assert (ev.mean <= layer.mu.max() + 1e-12).all()

    def test_variance_never_exceeds_single_expert(self, rng):
        k = 4
        layer = _layer(rng.random((k, 2)), rng.normal(size=k), rng.uniform(0.1, 2.0, k), 0.5)
        sites = rng.random((20, 2))
        ev = evaluate_layer(layer, sites)
        for i, s in enumerate(sites):
            d = np.hypot(*(s - layer.centers).T)
            w = np.exp(-d / layer.bandwidth)
            assert ev.variance[i] <= (layer.sigma2 / w).min() * (1 + 1e-12)

    def test_inactive_experts_ignored(self):
        """A center without enough weight leaves no trace in the layer: its fit
        evaluates bit for bit like the fit without that center."""
        sites = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
        fit = [
            fit_layer([1.0, 2.0, 3.0], np.ones(3), sites, cen, 0.5, FitConfig())
            for cen in ([[0.05, 0.05], [500.0, 500.0]], [[0.05, 0.05]])
        ]
        query = [[0.0, 0.0], [0.3, 0.2], [500.0, 500.0]]
        _assert_evaluations_equal(evaluate_layer(fit[0], query), evaluate_layer(fit[1], query))

    def test_layer_without_expert_rejected(self):
        """An empty layer cannot be built, so no evaluation meets one."""
        with pytest.raises(ValidationError, match="layer has no expert"):
            _layer(np.empty((0, 2)), [], [], bandwidth=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("entry", ["evaluate_layer", "evaluate_stack", "layer_basis_expansion"])
    def test_non_finite_site_rejected(self, entry, bad):
        """Such a site used to get a NaN mean."""
        layer = _layer([[0.0, 0.0], [1.0, 0.0]], [1.0, 2.0], [0.5, 0.5], bandwidth=0.8)
        call = {
            "evaluate_layer": evaluate_layer,
            "evaluate_stack": lambda layer, sites: list(experts.evaluate_stack([layer], sites)),
            "layer_basis_expansion": layer_basis_expansion,
        }[entry]
        with pytest.raises(ValidationError, match="non-finite"):
            call(layer, [[0.5, 0.5], [bad, 0.0]])

    def test_far_site_underflow_guarded(self):
        layer = _layer([[0.0, 0.0]], [3.0], [1.0], bandwidth=1e-3)
        ev = evaluate_layer(layer, [[100.0, 100.0]])  # exp(-141421/1e-3) underflows
        assert np.isfinite(ev.variance[0])
        assert ev.variance[0] > 0
        assert ev.mean[0] == pytest.approx(3.0)


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """The row blocks of a ``rows`` by ``cols`` kernel: ``_BLOCK_DOUBLES // cols``
    rows each (at least one), the last block shorter (see ``test_block_rule``)."""
    return geometry._chunks(rows, geometry._BLOCK_DOUBLES // max(cols, 1))


def _record_blocks(monkeypatch) -> list[tuple[int, slice, str, bool]]:
    """Record every kernel block run, one record per kernel of a shared block:
    (columns, block, thread that ran the block, whether the block was built
    in the running thread's own buffers). Each run must be one row block
    against all of its group's anchors."""
    calls = []
    real = geometry._tile_run

    def spy(group, pairs, sums):
        (sl, cols), = pairs
        assert cols == slice(0, len(group[0][1]))
        real(group, pairs, sums)
        own = tile_in_own_buffers(group, sl)
        for kernel in group:
            calls.append((len(kernel[1]), sl, threading.current_thread().name, own))

    monkeypatch.setattr(geometry, "_tile_run", spy)
    return calls


def _eval_inputs(seed: int, n_sites: int, n_experts: int, wide: bool = False):
    """A layer of ``n_experts - 1`` experts (drawn for ``n_experts``, the
    middle one dropped), and query sites whose last row is a far-away "dead"
    site where every kernel weight underflows. ``wide``: expert variances
    log-uniform over 1e-4 to 1e4."""
    rng = np.random.default_rng(seed)
    cen, mu = rng.random((n_experts, 2)), rng.normal(size=n_experts)
    sigma2 = 10.0 ** rng.uniform(-4.0, 4.0, n_experts) if wide else rng.uniform(0.1, 2.0, n_experts)
    layer = _layer(*(np.delete(a, n_experts // 2, axis=0) for a in (cen, mu, sigma2)), 0.05)
    sites = rng.random((n_sites, 2))
    sites[-1] = (50.0, 50.0)
    return layer, sites


def _shared_layers(seed: int, n_experts: int = 300) -> list[ScaleLayer]:
    """Layers on copies of one set of centers at four bandwidths: the first
    three in a row, so they share one distance pass under three kernel scales,
    then a layer on other centers, the fourth, which follows it and so gets a
    pass of its own (only consecutive layers are grouped), and last one on the
    same centers less one, which differ, so it is not shared."""
    rng = np.random.default_rng(seed)
    cen = rng.random((n_experts, 2))

    def make(h, centers=cen):
        k = len(centers)
        return _layer(centers.copy(), rng.normal(size=k), rng.uniform(0.1, 2.0, k), h)

    layers = [make(0.3), make(0.15), make(0.05), make(0.2, rng.random((n_experts, 2))), make(0.02)]
    layers.append(make(0.1, np.delete(cen, 3, axis=0)))
    return layers


def _assert_evaluations_equal(got, want):
    np.testing.assert_array_equal(got.mean, want.mean)
    np.testing.assert_array_equal(got.variance, want.variance)


def _assert_evaluations_close(got, want, layer):
    """The tolerance of ``evaluate_layer`` against the serial chunk loop: mean
    within ``rtol=1e-12, atol=1e-12 * max|mu|``, variance within
    ``rtol=1e-12``."""
    atol = 1e-12 * np.abs(layer.mu).max()
    np.testing.assert_allclose(got.mean, want.mean, rtol=1e-12, atol=atol)
    np.testing.assert_allclose(got.variance, want.variance, rtol=1e-12, atol=0.0)


class TestEvaluateLayerBitwise:
    """The pooled ``evaluate_layer`` has the bits of a run on one worker, and
    is within the stated tolerance of the serial chunk loop."""

    @pytest.mark.parametrize("n_chunks,last", [(1, 37), (2, 37), (2, 1), (5, 1), (6, 20)])
    def test_chunks_match_serial(self, n_chunks, last, monkeypatch):
        n_experts, width = 300, 37
        layer, sites = _eval_inputs(n_chunks, (n_chunks - 1) * width + last, n_experts)
        chunk_doubles = width * (n_experts - 1)  # one expert dropped
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 8 * (n_experts - 1))  # 8-row blocks
        calls = _record_blocks(monkeypatch)
        got = evaluate_layer(layer, sites)
        assert sorted((c[1] for c in calls), key=lambda b: b.start) == geometry._chunks(len(sites), 8)
        _assert_evaluations_equal(got, _on_one_worker(monkeypatch, evaluate_layer, layer, sites))
        _assert_evaluations_close(got, ref_evaluate_layer(layer, sites, chunk_doubles=chunk_doubles), layer)
        assert np.isfinite(got.variance[-1]) and got.mean[-1] != 0.0  # the dead site

    def test_more_workers_than_cores(self, monkeypatch):
        """Eight workers, one buffer each, and a short switch interval: a
        buffer shared by two blocks in flight, or a lost block, breaks equality."""
        n_experts, width = 400, 16
        layer, sites = _eval_inputs(11, 40 * width + 3, n_experts)
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 4 * (n_experts - 1))
        want = _on_one_worker(monkeypatch, evaluate_layer, layer, sites)
        _assert_evaluations_close(want, ref_evaluate_layer(layer, sites, chunk_doubles=width * (n_experts - 1)), layer)
        monkeypatch.setattr(geometry, "POOL_WORKERS", 8)
        pool = _worker_pool(8)
        monkeypatch.setattr(geometry, "_POOL", pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                _assert_evaluations_equal(evaluate_layer(layer, sites), want)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=True)

    def test_stack_runs_the_blocks_of_direct_calls(self, monkeypatch):
        """``evaluate_stack`` runs exactly the row blocks of a direct call of
        each layer, all from one queue, each in the buffer of the thread that
        took it, on the pool's workers when there are several."""
        rng = np.random.default_rng(5)
        layers = [_layer(rng.random((k, 2)), rng.normal(size=k), rng.uniform(0.1, 2.0, k), 0.3) for k in (40, 7, 25, 1)]
        n_sites = 4 * geometry._BLOCK_DOUBLES // 40
        assert len(_row_blocks(n_sites, 40)) > 1  # a layer has several blocks to run
        calls = _record_blocks(monkeypatch)
        for n in (1, 256, n_sites):
            calls.clear()
            sites = rng.random((n, 2))
            stack = list(experts.evaluate_stack(layers, sites))
            assert sorted((c[0], c[1].start, c[1].stop) for c in calls) == sorted(
                (k, b.start, b.stop) for k in (1, 7, 25, 40) for b in _row_blocks(n, k)
            )
            assert all(own for *_, own in calls), calls
            if geometry.POOL_WORKERS > 1 and len(calls) > 1:
                assert all(runner.startswith("cfglmm-chunk") for _, _, runner, _ in calls), calls
            for layer, ev in zip(layers, stack, strict=True):
                _assert_evaluations_equal(ev, evaluate_layer(layer, sites))

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_equal_centers_share_one_distance_pass(self, workers, monkeypatch):
        """Consecutive layers with equal centers share one distance pass per row
        block, and each still has the bits of a direct call, the far site's
        underflow fix-up included; every layer's blocks are those of a direct
        call, each in the running thread's own buffers."""
        layers = _shared_layers(3)
        cols = [layer.n_active for layer in layers]
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 16 * 300)  # 16-row blocks
        sites = np.random.default_rng(4).random((150, 2))
        sites[-1] = (50.0, 50.0)
        want = [evaluate_layer(layer, sites) for layer in layers]
        monkeypatch.setattr(geometry, "POOL_WORKERS", workers)
        pool = _worker_pool(workers)
        monkeypatch.setattr(geometry, "_POOL", pool)
        passes = []
        real = geometry.pairwise_distances

        def count(a, b, out=None):
            passes.append((len(a), len(b)))
            return real(a, b, out=out)

        monkeypatch.setattr(geometry, "pairwise_distances", count)
        calls = _record_blocks(monkeypatch)
        try:
            stack = list(experts.evaluate_stack(layers, sites))
        finally:
            pool.shutdown(wait=True)
        # four groups: the three consecutive layers on one set of centers, the
        # layer on others, the fourth layer on the first centers, the layer on
        # those centers less one
        blocks = {c: _row_blocks(len(sites), c) for c in (300, 299)}
        assert sorted(passes) == sorted((b.stop - b.start, c) for c in (300, 300, 300, 299) for b in blocks[c])
        assert sorted((c[0], c[1].start) for c in calls) == sorted((k, b.start) for k in cols for b in blocks[k])
        assert all(own for *_, own in calls), calls
        for ev, w in zip(stack, want, strict=True):
            _assert_evaluations_equal(ev, w)
            assert np.isfinite(ev.variance[-1]) and ev.mean[-1] != 0.0  # the dead site
        assert stack[2].variance[-1] == experts._VARIANCE_CAP  # its underflow fix-up ran

    def test_stack_under_two_blas_threads(self):
        """In a child process with two BLAS threads: a kernel's blocks may run
        on either of two pool workers, and every row still has the bits of a
        call that runs all its blocks on the main thread. This covers
        ``evaluate_stack`` against ``evaluate_layer`` (layers with equal
        centers on 1, 2 and 8 workers too), the pooled ``fit_layer`` and the
        simulator's ``_smooth``, alone and with its bandwidth groups in one
        pass."""
        code = (
            "import numpy as np\n"
            "from test_experts import (\n"
            "    _layer, _assert_evaluations_equal, _assert_layers_equal, _fit_inputs, _shared_layers, _worker_pool)\n"
            "from cfglmm import FitConfig, evaluate_layer, evaluate_stack, fit_layer, geometry, simulate\n"
            "rng = np.random.default_rng(9)\n"
            "sizes = (3, 40, 1500, 1, 700, 25)\n"
            "layers = [_layer(rng.random((k, 2)), rng.normal(size=k), rng.uniform(0.1, 2.0, k), 0.3) for k in sizes]\n"
            "geometry._POOL = _worker_pool(2)\n"
            "for n in (256, 4096):\n"
            "    sites = rng.random((n, 2))\n"
            "    sites[0] = (50.0, 50.0)\n"
            "    geometry.POOL_WORKERS = 1  # one task: the caller runs every block\n"
            "    want = [evaluate_layer(layer, sites) for layer in layers]\n"
            "    geometry.POOL_WORKERS = 2\n"
            "    for ev, w in zip(evaluate_stack(layers, sites), want, strict=True):\n"
            "        _assert_evaluations_equal(ev, w)\n"
            "shared = _shared_layers(4, 1500)\n"
            "for n in (256, 2000):\n"
            "    sites = rng.random((n, 2))\n"
            "    sites[0] = (50.0, 50.0)\n"
            "    geometry.POOL_WORKERS = 1\n"
            "    want = [evaluate_layer(layer, sites) for layer in shared]\n"
            "    for workers in (1, 2, 8):\n"
            "        geometry._POOL = _worker_pool(workers)\n"
            "        geometry.POOL_WORKERS = workers\n"
            "        for ev, w in zip(evaluate_stack(shared, sites), want, strict=True):\n"
            "            _assert_evaluations_equal(ev, w)\n"
            "geometry._POOL = _worker_pool(2)\n"
            "for n_centers, n_pts in ((3750, 3750), (700, 2000), (5, 300)):\n"
            "    args = _fit_inputs(n_centers, n_pts, n_centers)\n"
            "    geometry.POOL_WORKERS = 1\n"
            "    want = fit_layer(*args, FitConfig())\n"
            "    geometry.POOL_WORKERS = 2\n"
            "    _assert_layers_equal(fit_layer(*args, FitConfig()), want)\n"
            "anchors, query = rng.random((2000, 2)), rng.random((3000, 2))\n"
            "for noise in (rng.normal(size=2000), rng.normal(size=(2000, 3))):\n"
            "    geometry.POOL_WORKERS = 1\n"
            "    want = simulate._smooth(query, anchors, [(0.02, noise)])\n"
            "    geometry.POOL_WORKERS = 2\n"
            "    np.testing.assert_array_equal(simulate._smooth(query, anchors, [(0.02, noise)])[0], want[0])\n"
            "groups = [(0.02, rng.normal(size=(2000, 2))), (0.3, rng.normal(size=(2000, 1)))]\n"
            "geometry.POOL_WORKERS = 1\n"
            "want = [simulate._smooth(query, anchors, [g])[0] for g in groups]\n"
            "geometry.POOL_WORKERS = 2\n"
            "for got, w in zip(simulate._smooth(query, anchors, groups), want, strict=True):\n"
            "    np.testing.assert_array_equal(got, w)\n"
        )
        paths = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(experts.__file__))]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(paths)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300)


# (rows per chunk of the serial oracle, chunk count, last chunk's rows) at
# 8-row blocks: blocks that end 0-3 rows before a chunk boundary, that cross
# one, a last chunk shorter than a block, and one-row chunks.
BLOCK_CASES = {
    "tail0": (36, 3, 36),
    "tail1": (37, 3, 33),
    "tail2": (38, 2, 38),
    "tail3": (39, 3, 7),
    "merged_short_block": (41, 2, 41),
    "short_last_chunk": (40, 3, 2),
    "one_row_chunks": (1, 9, 1),
}


class TestKernelBlocks:
    """Row blocks of about ``_BLOCK_DOUBLES`` entries, cut from the kernel's
    shape alone: the passes have the bits of one worker and stay within the
    stated tolerance of the serial chunk loop, whatever its chunks."""

    @pytest.mark.parametrize("rows,cols,block", [
        (0, 10, 40), (1, 10, 40), (10, 10, 40), (100, 10, 80), (97, 10, 80),
        (50, 10, 80), (50, 1000, 1000), (12_345, 3750, 65_536), (9, 0, 40),
    ])
    def test_block_rule(self, rows, cols, block, monkeypatch):
        """Consecutive blocks of ``block // cols`` rows (at least one) cover
        the rows; only the last may be shorter; each gets a buffer of its
        shape and fills its rows of the product."""
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", block)
        blocks = []
        real, real_distances = geometry._tile_run, geometry.pairwise_distances

        def record(group, pairs, sums):
            (sl, anchors), = pairs
            assert anchors == slice(0, cols)
            blocks.append(sl)
            real(group, pairs, sums)
            assert tile_in_own_buffers(group, sl)

        def in_place(a, b, out):  # a lone kernel's distances go into its block's buffer
            assert out.shape == (len(a), cols) and (out.size == 0 or np.shares_memory(out, geometry._THREAD.buf))
            return real_distances(a, b, out=out)

        monkeypatch.setattr(geometry, "_tile_run", record)
        monkeypatch.setattr(geometry, "pairwise_distances", in_place)
        out = np.full((rows, 1), -1.0)
        geometry._map_kernel_blocks([(np.zeros((rows, 2)), np.zeros((cols, 2)), -1.0, np.ones((cols, 1)), out)])
        assert (out == cols).all()  # zero distances: each row sums ``cols`` ones
        blocks.sort(key=lambda b: b.start)
        assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
        assert (blocks[0].start, blocks[-1].stop) == (0, rows) if rows else blocks == []
        step = max(1, block // max(cols, 1))
        assert all(b.stop - b.start == step for b in blocks[:-1])
        assert all(0 < b.stop - b.start <= step for b in blocks[-1:])

    @pytest.mark.parametrize("case", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
    def test_fit_layer_matches_chunk_loop(self, case, monkeypatch):
        width, n_chunks, last = case
        n_pts = 300
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 8 * n_pts)
        args = _fit_inputs(width + n_chunks, n_pts, (n_chunks - 1) * width + last)
        calls = _record_blocks(monkeypatch)
        got = fit_layer(*args, FitConfig())
        assert sorted((c[1] for c in calls), key=lambda b: b.start) == geometry._chunks(len(args[3]), 8)
        _assert_layers_equal(got, _on_one_worker(monkeypatch, fit_layer, *args, FitConfig()))
        _assert_layers_close(got, ref_fit_layer(*args, FitConfig(), chunk_doubles=width * n_pts), args[0])

    @pytest.mark.parametrize("case", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
    def test_evaluate_layer_matches_chunk_loop(self, case, monkeypatch):
        width, n_chunks, last = case
        n_experts = 301  # 300 kept
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 8 * (n_experts - 1))
        layer, sites = _eval_inputs(width + n_chunks, (n_chunks - 1) * width + last, n_experts)
        got = evaluate_layer(layer, sites)
        _assert_evaluations_equal(got, _on_one_worker(monkeypatch, evaluate_layer, layer, sites))
        want = ref_evaluate_layer(layer, sites, chunk_doubles=width * (n_experts - 1))
        _assert_evaluations_close(got, want, layer)
        assert np.isfinite(got.variance[-1]) and got.mean[-1] != 0.0  # the dead site

    @pytest.mark.parametrize("n_sites,n_experts,wide", [
        pytest.param(2000, 3750, False, id="2000-3750"),
        pytest.param(50_001, 7, False, id="50001-7"),
        pytest.param(3, 5000, False, id="3-5000"),
        pytest.param(9001, 1066, False, id="9001-1066"),
        pytest.param(2000, 3750, True, id="wide"),
    ])
    def test_default_sizes_match_chunk_loop(self, n_sites, n_experts, wide):
        """At the default constants, the oracle's chunks and the blocks both
        of the default sizes; ``wide`` spreads the expert variances over
        eight decades."""
        layer, sites = _eval_inputs(n_sites, n_sites, n_experts, wide)
        _assert_evaluations_close(evaluate_layer(layer, sites), ref_evaluate_layer(layer, sites), layer)

    def test_more_workers_than_cores(self, monkeypatch):
        """Eight workers with a 1 µs switch interval, across every case above."""
        monkeypatch.setattr(geometry, "POOL_WORKERS", 8)
        pool = _worker_pool(8)
        monkeypatch.setattr(geometry, "_POOL", pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for case in BLOCK_CASES.values():
                self.test_fit_layer_matches_chunk_loop(case, monkeypatch)
                self.test_evaluate_layer_matches_chunk_loop(case, monkeypatch)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=True)


class TestBasisExpansion:
    def test_single_expert_product_is_mu(self):
        layer = _layer([[0.2, 0.2]], [4.0], [0.9], bandwidth=1.0)
        basis, coeffs = layer_basis_expansion(layer, [[0.2, 0.2]])
        assert basis.shape == (1, 1)
        assert basis[0] @ coeffs == pytest.approx(4.0)

    def test_reconstructs_evaluate_mean(self, rng):
        k = 5
        layer = _layer(rng.random((k, 2)), rng.normal(size=k), rng.uniform(0.2, 2.0, k), 0.6)
        sites = rng.random((50, 2))
        basis, coeffs = layer_basis_expansion(layer, sites)
        ev = evaluate_layer(layer, sites)
        np.testing.assert_allclose(basis @ coeffs, ev.mean, rtol=1e-12, atol=1e-12)

    def test_pair_count_equals_expert_count(self, rng):
        layer = _layer(rng.random((7, 2)), rng.normal(size=7), rng.uniform(0.2, 1.0, 7), 0.5)
        basis, coeffs = layer_basis_expansion(layer, rng.random((3, 2)))
        assert basis.shape == (3, 7)
        assert coeffs.shape == (7,)


@settings(max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=6),
)
def test_poe_oracle_property(seed, k):
    """evaluate_layer against the quadrature oracle across random layers."""
    rng = np.random.default_rng(seed)
    layer = _layer(
        rng.random((k, 2)) * 2.0,
        rng.normal(scale=2.0, size=k),
        rng.uniform(0.1, 3.0, k),
        bandwidth=float(rng.uniform(0.2, 2.0)),
    )
    site = rng.random(2) * 2.0
    ev = evaluate_layer(layer, [site])
    d = np.hypot(*(site - layer.centers).T)
    w = np.exp(-d / layer.bandwidth)
    mean, var = grid_poe_moments(layer.mu, layer.sigma2, w)
    assert ev.mean[0] == pytest.approx(mean, rel=1e-9, abs=1e-9)
    assert ev.variance[0] == pytest.approx(var, rel=1e-9)


def _capped_inputs(seed: int, n_pts: int, duplicates: int = 0):
    """Working-target inputs ``(targets, weights, sites, centers, bandwidth)``
    whose centers are what a capped scale places, the distinct sites sorted by
    x and then y; the sites in random order, the last ``duplicates`` of them
    copies of earlier ones, and some site weights zero."""
    rng = np.random.default_rng(seed)
    sites = rng.random((n_pts, 2))
    if duplicates:
        sites[-duplicates:] = sites[:duplicates]
    targets = rng.normal(size=n_pts)
    weights = rng.uniform(0.0, 2.0, n_pts)
    weights[rng.random(n_pts) < 0.2] = 0.0
    return targets, weights, sites, np.unique(sites, axis=0), 0.2


def _symmetric_calls(monkeypatch) -> list[bool]:
    """Record, per ``fit_layer`` kernel, whether its query is its anchors."""
    calls = []
    real = experts._map_kernel_blocks

    def spy(kernels):
        calls.extend(k[0] is k[1] for k in kernels)
        real(kernels)

    monkeypatch.setattr(experts, "_map_kernel_blocks", spy)
    return calls


class TestSymmetricFit:
    """``fit_layer`` on the distinct sites runs the kernel of the centers on
    themselves in tile pairs: within ``rtol=1e-12`` of the serial chunk loop,
    with the same bits on any number of workers."""

    @pytest.mark.parametrize("n_pts", [40, 64, 300])
    def test_within_tolerance_of_reference(self, n_pts, monkeypatch):
        """64-row tiles: one short tile, one full tile, four and a remainder."""
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 64 * 64)
        calls = _symmetric_calls(monkeypatch)
        args = _capped_inputs(n_pts, n_pts)
        got = fit_layer(*args, FitConfig())
        assert calls == [True]
        _assert_layers_close(got, ref_fit_layer(*args, FitConfig()), args[0])

    def test_default_tiles(self):
        """3000 sites in 512-row tiles, the last of 440: 21 tile pairs in seven runs."""
        args = _capped_inputs(8, 3000)
        _assert_layers_close(fit_layer(*args, FitConfig()), ref_fit_layer(*args, FitConfig()), args[0])

    @pytest.mark.parametrize(
        "case,symmetric",
        [("distinct", True), ("duplicates", False), ("subset", False), ("unsorted", False), ("other_centers", False)],
    )
    def test_symmetric_exactly_on_the_distinct_sites(self, case, symmetric, monkeypatch):
        """The tile pairs run when the centers are the distinct sites, sorted;
        not for sites with duplicates, a subset of them, the same centers in
        another order, or other centers of the same count. Either way the
        layer is within tolerance of the serial chunk loop."""
        targets, weights, sites, centers, h = _capped_inputs(4, 200, duplicates=20 if case == "duplicates" else 0)
        centers = {
            "subset": centers[1:],
            "unsorted": centers[::-1],
            "other_centers": centers + 1e-9,
        }.get(case, centers)
        calls = _symmetric_calls(monkeypatch)
        got = fit_layer(targets, weights, sites, centers, h, FitConfig())
        assert calls == [symmetric]
        _assert_layers_close(got, ref_fit_layer(targets, weights, sites, centers, h, FitConfig()), targets)

    def test_same_bits_on_any_number_of_workers(self, monkeypatch):
        """16-row tiles of 400 sites, 325 tile pairs in eight runs: one worker,
        then 2 and 8 with a 1 µs switch interval."""
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 16 * 16)
        args = _capped_inputs(12, 400)
        want = _on_one_worker(monkeypatch, fit_layer, *args, FitConfig())
        _assert_layers_close(want, ref_fit_layer(*args, FitConfig()), args[0])
        for workers in (2, 8):
            monkeypatch.setattr(geometry, "POOL_WORKERS", workers)
            pool = _worker_pool(workers)
            monkeypatch.setattr(geometry, "_POOL", pool)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(3):
                    _assert_layers_equal(fit_layer(*args, FitConfig()), want)
            finally:
                sys.setswitchinterval(interval)
                pool.shutdown(wait=True)
