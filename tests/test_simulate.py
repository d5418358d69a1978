import csv
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from oracles import ref_smooth
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from cfglmm import SimScenario, gen_binomial, gen_poisson, generate, geometry, simulate
from cfglmm.cli import main
from cfglmm.simulate import _S_FIELD, _rng, knn_bandwidth


def _latent(seed, **scenario):
    return generate(SimScenario(**scenario), seed)


class TestSmoothedField:
    def test_zero_noise_gives_zero_field(self):
        sim = _latent(1, n_train=50, n_test=20, field_noise_sd=0.0)
        assert np.all(sim.truth_train.z == 0.0)
        assert np.all(sim.truth_test.z == 0.0)

    def test_single_site_equals_own_noise(self):
        # one anchor: its self weight normalizes to one, so the field is the
        # raw draw everywhere, test sites included
        sim = _latent(3, n_train=1, n_test=1, field_noise_sd=2.0)
        raw = _rng(3, _S_FIELD, 0).normal(0.0, 2.0, 1)
        assert sim.truth_train.z.shape == (1,)
        np.testing.assert_allclose(sim.truth_train.z, raw, rtol=1e-15)
        np.testing.assert_allclose(sim.truth_test.z, raw, rtol=1e-15)

    def test_smoothing_shrinks_variance(self):
        shrunk = 0
        for seed in range(20):
            z = _latent(seed, n_train=500, n_test=0, field_noise_sd=1.0).truth_train.z
            if z.var() < 1.0:
                shrunk += 1
        assert shrunk == 20

    def test_deterministic_per_seed(self):
        a = _latent(9, n_train=40, n_test=10, field_noise_sd=1.0)
        b = _latent(9, n_train=40, n_test=10, field_noise_sd=1.0)
        np.testing.assert_array_equal(a.truth_train.z, b.truth_train.z)
        np.testing.assert_array_equal(a.truth_test.z, b.truth_test.z)

    def test_fixed_bandwidth_respected(self):
        # multiscale components use their literal bandwidth; both are
        # standardized, so compare roughness: the squared step to the nearest site
        def roughness(h):
            sim = _latent(2, n_train=300, n_test=0, multiscale=(h,))
            _, nearest = cKDTree(sim.train.sites).query(sim.train.sites, k=2)
            z = sim.truth_train.z
            return np.mean((z - z[nearest[:, 1]]) ** 2)

        assert roughness(5.0) < roughness(0.01)


class TestKnnBandwidth:
    def test_two_points(self):
        assert knn_bandwidth([[0.0, 0.0], [0.0, 3.0]], k=10) == pytest.approx(3.0)

    def test_shrinks_with_density(self):
        smaller = 0
        for seed in range(20):
            r = np.random.default_rng(seed)
            h_sparse = knn_bandwidth(r.random((500, 2)))
            h_dense = knn_bandwidth(r.random((4000, 2)))
            if h_dense < h_sparse:
                smaller += 1
        assert smaller == 20

    def test_matches_brute_force(self, rng):
        sites = rng.random((40, 2))
        d = np.sqrt(((sites[:, None, :] - sites[None, :, :]) ** 2).sum(-1))
        d.sort(axis=1)
        want = d[:, 1:11].mean()
        assert knn_bandwidth(sites) == pytest.approx(want, rel=1e-12)


class TestGenCovariates:
    def test_column_means_near_zero(self):
        for seed in (0, 1, 2):
            x = _latent(seed, n_train=1500, n_test=0).train.covariates
            assert np.abs(x.mean(axis=0)).max() < 4.0 / np.sqrt(1500)

    def test_column_variance_below_half(self):
        for seed in (0, 1, 2):
            x = _latent(seed, n_train=1500, n_test=0).train.covariates
            assert (x.var(axis=0) < 0.5).all()

    def test_columns_nearly_uncorrelated(self):
        x = _latent(7, n_train=2000, n_test=0).train.covariates
        r = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert abs(r) < 0.1


class TestGenPoisson:
    def test_valid_datasets(self):
        # building each Dataset checked it
        sim = gen_poisson(SimScenario(beta0=0.5, n_train=300, n_test=100), seed=4)
        assert sim.train.n_sites == 300
        assert sim.test.n_sites == 100
        assert sim.truth_train.mu.shape == (300,)

    def test_deterministic(self):
        scn = SimScenario(beta0=-1.5, n_train=200, n_test=50)
        a = gen_poisson(scn, seed=11)
        b = gen_poisson(scn, seed=11)
        np.testing.assert_array_equal(a.train.response, b.train.response)
        np.testing.assert_array_equal(a.test.sites, b.test.sites)
        np.testing.assert_array_equal(a.truth_test.z, b.truth_test.z)

    def test_train_test_streams_disjoint(self):
        scn = SimScenario(beta0=0.5, n_train=100, n_test=100)
        sim = gen_poisson(scn, seed=11)
        assert not np.array_equal(sim.train.sites, sim.test.sites)
        assert not np.array_equal(sim.train.response, sim.test.response)

    def test_degenerate_generator_is_unit_poisson(self):
        scn = SimScenario(beta0=0.0, beta=(0.0, 0.0), n_train=20000, n_test=0, field_noise_sd=0.0)
        sim = gen_poisson(scn, seed=13)
        assert np.all(sim.truth_train.mu == 1.0)
        assert sim.train.response.mean() == pytest.approx(1.0, abs=0.03)

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError, match="must be poisson"):
            gen_poisson(SimScenario(family="bernoulli"), seed=0)

    def test_is_generate(self):
        scn = SimScenario(beta0=0.5, n_train=200, n_test=50)
        a, b = gen_poisson(scn, seed=8), generate(scn, seed=8)
        np.testing.assert_array_equal(a.train.response, b.train.response)
        np.testing.assert_array_equal(a.truth_test.mu, b.truth_test.mu)

    def test_test_surface_shared_with_train(self):
        # latent field at test sites comes from the train-anchored noise, so a
        # test site placed on top of a train site sees nearly the same z
        scn = SimScenario(beta0=0.5, n_train=400, n_test=400)
        sim = gen_poisson(scn, seed=3)
        d = np.sqrt(((sim.test.sites[:, None] - sim.train.sites[None]) ** 2).sum(-1))
        pairs = np.argwhere(d < 0.004)
        assert len(pairs) > 3
        for i, j in pairs:
            assert abs(sim.truth_test.z[i] - sim.truth_train.z[j]) < 0.2


class TestGenBinomial:
    def test_valid_and_binary(self):
        sim = gen_binomial(SimScenario(family="bernoulli", beta0=0.5, n_train=300, n_test=0), seed=4)
        assert set(np.unique(sim.train.response)) <= {0.0, 1.0}

    def test_half_probability_at_origin(self):
        scn = SimScenario(
            family="bernoulli", beta0=0.0, beta=(0.0, 0.0), n_train=20000, n_test=0,
            field_noise_sd=0.0,
        )
        sim = gen_binomial(scn, seed=5)
        assert sim.train.response.mean() == pytest.approx(0.5, abs=0.02)

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError, match="must be bernoulli"):
            gen_binomial(SimScenario(family="poisson"), seed=0)


class TestGenerate:
    def test_unsupported_family_rejected(self):
        with pytest.raises(ValueError, match="unsupported simulation family"):
            generate(SimScenario(family="gaussian"), seed=0)

    @pytest.mark.parametrize("field,kw", [
        ("n_train", {"n_train": 0}), ("n_train", {"n_train": -3}), ("n_test", {"n_test": -1}),
        ("beta0", {"beta0": np.nan}), ("beta", {"beta": (0.5, np.inf)}),
        ("field_noise_sd", {"field_noise_sd": np.nan}), ("field_noise_sd", {"field_noise_sd": -0.1}),
        ("field_noise_sd", {"field_noise_sd": np.inf}),
    ], ids=["n_train0", "n_train-3", "n_test-1", "beta0_nan", "beta_inf", "noise_nan", "noise_negative", "noise_inf"])
    def test_unusable_scenario_rejected(self, field, kw):
        scn = SimScenario(**{"n_train": 50, "n_test": 10, **kw})
        with pytest.raises(ValueError, match=field):
            generate(scn, seed=0)

    @pytest.mark.parametrize(
        "field,kw", [("n_train", {"n_train": 50.5}), ("n_test", {"n_test": 2.5}), ("n_train", {"n_train": True})]
    )
    def test_non_integer_size_rejected(self, field, kw):
        """A float size used to fail inside numpy with a TypeError."""
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            generate(SimScenario(**{"n_train": 50, "n_test": 10, **kw}), seed=0)

    def test_numpy_integer_sizes(self):
        sim = generate(SimScenario(n_train=np.int64(30), n_test=np.int32(5)), seed=0)
        assert (sim.train.n_sites, sim.test.n_sites) == (30, 5)

    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf])
    def test_bad_multiscale_bandwidth_rejected(self, h):
        with pytest.raises(ValueError, match="finite and positive"):
            generate(SimScenario(n_train=50, n_test=0, multiscale=(3.0, h)), seed=0)


class TestMultiscale:
    def test_field_is_sum_of_components(self):
        scn = SimScenario(beta0=0.5, n_train=300, n_test=100, multiscale=(3.0, 0.8, 0.3))
        sim = gen_poisson(scn, seed=6)
        assert sim.truth_train.components.shape == (300, 3)
        np.testing.assert_array_equal(sim.truth_train.components.sum(axis=1), sim.truth_train.z)
        np.testing.assert_array_equal(sim.truth_test.components.sum(axis=1), sim.truth_test.z)

    def test_components_standardized_on_train(self):
        scn = SimScenario(beta0=0.5, n_train=500, n_test=0, multiscale=(3.0, 0.8, 0.3))
        sim = gen_poisson(scn, seed=6)
        np.testing.assert_allclose(sim.truth_train.components.std(axis=0), 1.0, rtol=1e-12)

    def test_groups_share_one_distance_pass(self, monkeypatch):
        """The bandwidth groups of a draw go to one kernel map, which computes
        the distances of each tile pair of the training sites on themselves,
        and of each row block of the test sites, once, and the fields have the
        bits of one map call per group."""
        scn = SimScenario(beta0=0.5, n_train=600, n_test=300, multiscale=(3.0, 0.8, 0.3))
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 64 * 600)  # 64-row blocks
        real_map, real_distances = simulate._map_kernel_blocks, geometry.pairwise_distances
        maps, passes = [], []

        def record_map(kernels):
            maps.append(len(kernels))
            real_map(kernels)

        def count(a, b, out=None):
            passes.append(len(a))
            return real_distances(a, b, out=out)

        monkeypatch.setattr(simulate, "_map_kernel_blocks", record_map)
        monkeypatch.setattr(geometry, "pairwise_distances", count)
        got = gen_poisson(scn, seed=6)
        assert maps == [4, 4]  # train, then test: the covariate group and three components
        tiles = geometry._chunks(600, math.isqrt(64 * 600))  # 195 rows each, the last 15
        train = [a.stop - a.start for i, a in enumerate(tiles) for _ in tiles[i:]]
        assert sorted(passes) == sorted(train + [b.stop - b.start for b in geometry._chunks(300, 64)])
        monkeypatch.setattr(simulate, "_map_kernel_blocks", lambda kernels: [real_map([k]) for k in kernels])
        want = gen_poisson(scn, seed=6)
        for a, b in ((got.train, want.train), (got.test, want.test)):
            np.testing.assert_array_equal(a.covariates, b.covariates)
            np.testing.assert_array_equal(a.response, b.response)
        for a, b in ((got.truth_train, want.truth_train), (got.truth_test, want.truth_test)):
            for field in ("mu", "z", "components"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field), err_msg=field)

    def test_multiscale_domain_is_larger(self):
        scn = SimScenario(beta0=0.5, n_train=300, n_test=0, multiscale=(3.0, 0.8, 0.3))
        sim = gen_poisson(scn, seed=6)
        assert sim.train.sites.max() > 5.0  # 10 x 10 square
        single = gen_poisson(SimScenario(beta0=0.5, n_train=300, n_test=0), seed=6)
        assert single.train.sites.max() <= 1.0


def _smooth_inputs(seed: int, n_query: int, n_anchors: int, n_cols: int):
    """Query sites whose last row is far from every anchor: at bandwidth 0.05
    its kernel weights are all subnormal, but not all zero."""
    rng = np.random.default_rng(seed)
    anchors = rng.random((n_anchors, 2))
    query = rng.random((n_query, 2))
    query[-1] = (37.0, 0.5)
    return query, anchors, rng.normal(size=(n_anchors, n_cols))


def _exact_smooth(query, anchors, bandwidth, noise):
    """The field from exact distances, one dense kernel."""
    k = np.exp(cdist(query, anchors) * (-1.0 / bandwidth))
    s = k.sum(axis=1)
    return (k @ noise) / (s[:, None] if noise.ndim == 2 else s)


def _assert_smooth_close(got, query, anchors, bandwidth, noise, **ref_kw):
    """``_smooth``'s tolerances: within ``rtol=1e-12, atol=1e-12 * max|noise|``
    of the exact-distance field, and within ``2 * sqrt(8 * eps * R2) / h *
    max|noise|`` of the serial chunk loop, whose expanded-square distances
    ``sqrt(|q|^2 + |a|^2 - 2 q.a)`` err by up to ``sqrt(8 * eps * R2)``, R2 the
    largest squared norm of a query or anchor."""
    scale = np.abs(noise).max()
    np.testing.assert_allclose(got, _exact_smooth(query, anchors, bandwidth, noise), rtol=1e-12, atol=1e-12 * scale)
    r2 = max((query * query).sum(axis=1).max(), (anchors * anchors).sum(axis=1).max())
    bound = 2.0 * np.sqrt(8.0 * np.finfo(float).eps * r2) / bandwidth * scale
    err = np.abs(got - ref_smooth(query, anchors, bandwidth, noise, **ref_kw)).max()
    assert err <= bound, (err, bound)


def _smooth(query, anchors, bandwidth, noise):
    """``simulate._smooth`` of one bandwidth group."""
    return simulate._smooth(query, anchors, [(bandwidth, noise)])[0]


def _smooth_one_worker(monkeypatch, *args):
    """``_smooth(*args)`` with every row block run on the calling thread."""
    with monkeypatch.context() as m:
        m.setattr(geometry, "POOL_WORKERS", 1)
        return _smooth(*args)


# (rows per chunk of the serial oracle, chunk count, last chunk's rows) at
# 8-row blocks: blocks that end 0-3 rows before a chunk boundary, that cross
# one, a last chunk shorter than a block, and one-row chunks.
SMOOTH_CASES = {
    "tail0": (36, 3, 36),
    "tail1": (37, 3, 33),
    "tail2": (38, 2, 38),
    "tail3": (39, 3, 7),
    "merged_short_block": (41, 2, 41),
    "short_last_chunk": (40, 3, 2),
    "one_row_chunks": (1, 9, 1),
}


class TestSmoothBlocks:
    """``_smooth``, one pass of row blocks on the pool: the bits of a run on
    one worker, within ``rtol=1e-12`` of exact distances, and within the
    expanded-square error of the serial chunk loop."""

    @pytest.mark.parametrize("n_cols", [1, 3])
    def test_one_row_query(self, n_cols, monkeypatch):
        query, anchors, noise = _smooth_inputs(n_cols, 1, 300, n_cols)
        query[0] = (0.4, 0.6)
        for u in (noise, noise[:, 0]):
            got = _smooth(query, anchors, 0.1, u)
            assert np.array_equal(got, _smooth_one_worker(monkeypatch, query, anchors, 0.1, u))
            _assert_smooth_close(got, query, anchors, 0.1, u)

    def test_far_query(self, monkeypatch):
        query, anchors, noise = _smooth_inputs(4, 50, 500, 3)
        got = _smooth(query, anchors, 0.05, noise)
        assert np.array_equal(got, _smooth_one_worker(monkeypatch, query, anchors, 0.05, noise))
        _assert_smooth_close(got, query, anchors, 0.05, noise)
        assert np.isfinite(got[-1]).all() and (got[-1] != 0.0).all()

    @pytest.mark.parametrize("n_cols", [1, 3])
    @pytest.mark.parametrize("case", SMOOTH_CASES.values(), ids=SMOOTH_CASES.keys())
    def test_blocks_match_chunk_loop(self, case, n_cols, monkeypatch):
        width, n_chunks, last = case
        n_anchors = 300
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 8 * n_anchors)
        query, anchors, noise = _smooth_inputs(width + n_chunks, (n_chunks - 1) * width + last, n_anchors, n_cols)
        got = _smooth(query, anchors, 0.05, noise)
        assert np.array_equal(got, _smooth_one_worker(monkeypatch, query, anchors, 0.05, noise))
        _assert_smooth_close(got, query, anchors, 0.05, noise, chunk_doubles=width * n_anchors)
        assert np.isfinite(got[-1]).all() and (got[-1] != 0.0).all()  # the far site

    def test_more_workers_than_cores(self, monkeypatch):
        """Eight workers made like the library's, with a 1 µs switch interval,
        across every case above: a block written to another block's rows, or a
        lost block, breaks equality."""
        monkeypatch.setattr(geometry, "POOL_WORKERS", 8)
        pool = ThreadPoolExecutor(8, "cfglmm-chunk", initializer=geometry._pin_worker, initargs=([], itertools.count()))
        monkeypatch.setattr(geometry, "_POOL", pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.test_far_query(monkeypatch)
            for n_cols in (1, 3):
                self.test_one_row_query(n_cols, monkeypatch)
            for n_cols in (1, 3):  # these patch the block size for the rest of the test
                for case in SMOOTH_CASES.values():
                    self.test_blocks_match_chunk_loop(case, n_cols, monkeypatch)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=True)

    @pytest.mark.parametrize("n_query,n_anchors", [(5000, 5000), (2000, 5005)])
    def test_default_size_matches_chunk_loop(self, n_query, n_anchors):
        """At the default constants: the oracle's chunks of 1600 rows (5000
        anchors), the blocks of 52."""
        query, anchors, noise = _smooth_inputs(5, n_query, n_anchors, 3)
        _assert_smooth_close(_smooth(query, anchors, 0.05, noise), query, anchors, 0.05, noise)

    def test_training_sites_on_themselves(self):
        """The training-site field of every ``generate`` call: the query is the
        anchors. There the serial loop's expanded square errs most (1.1e-6 at
        h = 0.012 against a bound of 4.4e-5)."""
        _, anchors, noise = _smooth_inputs(8, 1, 5000, 3)
        _assert_smooth_close(_smooth(anchors, anchors, 0.012, noise), anchors, anchors, 0.012, noise)

    def test_peak_memory_one_chunk(self):
        """No kernel larger than a row block: the traced peak of a second call
        stays below the pool's block buffers, the output and 8 MB of slack
        (12 MB on two CPUs), where a 64 MB kernel of 1600 rows would not."""
        query, anchors, noise = _smooth_inputs(6, 5000, 5000, 3)
        _smooth(query, anchors, 0.05, noise)  # the pool's threads and buffers exist
        tracemalloc.start()
        try:
            out = _smooth(query, anchors, 0.05, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < geometry.POOL_WORKERS * geometry._BLOCK_DOUBLES * 8 + out.nbytes + 8 * 2**20, peak



class TestSymmetricSmooth:
    """The training field, ``_smooth`` of the training sites on themselves,
    runs in tile pairs: within the tolerances of ``_assert_smooth_close``,
    with the same bits on any number of workers."""

    @staticmethod
    def _groups(seed: int, n: int):
        rng = np.random.default_rng(seed)
        return [(0.05, rng.normal(size=(n, 3))), (0.2, rng.normal(size=n)), (0.012, rng.normal(size=(n, 1)))]

    @pytest.mark.parametrize("n", [40, 64, 300])
    def test_multiscale_group_within_tolerance(self, n, monkeypatch):
        """64-row tiles: one short tile, one full tile, four and a remainder;
        three bandwidth groups share each tile's distances."""
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 64 * 64)
        runs = []
        real = geometry._tile_run
        monkeypatch.setattr(geometry, "_tile_run", lambda *args: runs.append(args[1]) or real(*args))
        anchors = np.random.default_rng(n).random((n, 2))
        groups = self._groups(n, n)
        got = simulate._smooth(anchors, anchors, groups)
        tiles = geometry._chunks(n, 64)
        assert sum(map(len, runs)) == len(tiles) * (len(tiles) + 1) // 2
        for field, (h, noise) in zip(got, groups, strict=True):
            _assert_smooth_close(field, anchors, anchors, h, noise)

    def test_same_bits_on_any_number_of_workers(self, monkeypatch):
        """16-row tiles of 500 sites, 528 tile pairs in eight runs: one
        worker, then 2 and 8 with a 1 µs switch interval."""
        monkeypatch.setattr(geometry, "_BLOCK_DOUBLES", 16 * 16)
        anchors = np.random.default_rng(2).random((500, 2))
        groups = self._groups(3, 500)
        monkeypatch.setattr(geometry, "POOL_WORKERS", 1)
        want = simulate._smooth(anchors, anchors, groups)
        for workers in (2, 8):
            monkeypatch.setattr(geometry, "POOL_WORKERS", workers)
            pool = ThreadPoolExecutor(workers, "cfglmm-chunk")
            monkeypatch.setattr(geometry, "_POOL", pool)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(3):
                    for got, w in zip(simulate._smooth(anchors, anchors, groups), want, strict=True):
                        np.testing.assert_array_equal(got, w)
            finally:
                sys.setswitchinterval(interval)
                pool.shutdown(wait=True)


class TestKnnBandwidthOnPool:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("n", [2, 3, 11, 1000])
    def test_equals_one_query(self, n, workers, monkeypatch):
        """The tree is queried once for all the sites on ``POOL_WORKERS`` of
        scipy's workers, read at call time, and the value has the bits of one
        query on one thread."""
        pts = np.random.default_rng(n).random((n, 2))
        k = min(10, n - 1)
        want = float(cKDTree(pts).query(pts, k=k + 1)[0][:, 1:].mean())
        queries = []

        class Tree(cKDTree):
            def query(self, x, *args, **kwargs):
                queries.append((len(x), kwargs.get("workers")))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(simulate, "cKDTree", Tree)
        monkeypatch.setattr(geometry, "POOL_WORKERS", workers)
        assert knn_bandwidth(pts) == want
        assert queries == [(n, workers)]


SIMULATE_ARGS = {
    "poisson": ["--family", "poisson", "--n", "3004", "--test", "1000", "--seed", "7"],
    "bernoulli": ["--family", "bernoulli", "--beta0", "-1.5", "--n", "1205", "--test", "700", "--seed", "4"],
    "multiscale": ["--n", "1007", "--test", "500", "--multiscale", "3.0,0.8,0.3", "--seed", "1"],
}


def _read_columns(path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [r[j] for r in rows[1:]] for j, name in enumerate(rows[0])}


@pytest.mark.parametrize("args", SIMULATE_ARGS.values(), ids=SIMULATE_ARGS.keys())
def test_simulate_csvs_match_chunk_loop(args, tmp_path, monkeypatch):
    """``cfglmm simulate`` writes the CSVs of the serial chunk loop: the same
    sites, labels and responses, and every derived value (covariates, ``mu``,
    ``z`` and components) within ``rtol=1e-6, atol=1e-6``. The fields move by
    at most a few 1e-7 here, within ``_smooth``'s bound against the loop."""
    assert main(["simulate", *args, "--out", str(tmp_path / "blocks")]) == 0
    monkeypatch.setattr(simulate, "_smooth", lambda q, a, groups: [ref_smooth(q, a, h, u) for h, u in groups])
    assert main(["simulate", *args, "--out", str(tmp_path / "loop")]) == 0
    for suffix in ("_train.csv", "_test.csv", "_truth.csv"):
        got, want = _read_columns(tmp_path / f"blocks{suffix}"), _read_columns(tmp_path / f"loop{suffix}")
        assert got.keys() == want.keys(), suffix
        for name in got:
            if name in ("dataset", "x", "y", "response"):
                assert got[name] == want[name], (suffix, name)
            else:
                np.testing.assert_allclose(
                    np.array(got[name], dtype=float), np.array(want[name], dtype=float), rtol=1e-6, atol=1e-6,
                    err_msg=f"{suffix} {name}",
                )
