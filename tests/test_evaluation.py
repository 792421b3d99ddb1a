"""Enumeration oracles, exact quantities, estimators, variance reports and
the oracle checks built on them."""

import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from jsalearn import evaluation as ev
from jsalearn import checks, data, jsa
from jsalearn.errors import CapabilityError, ConfigError, ShapeError
from jsalearn.models import (
    GenerativeModel,
    StochasticLayerSpec,
    build_architecture,
)


def random_pair(seed, arch="enc: 4-3s~B3; dec: B3-4s", scale=1.0):
    pair = build_architecture(arch)
    rng = np.random.default_rng(seed)
    pair.lam[:] = rng.normal(scale=scale, size=pair.lam.size)
    return pair, rng


class TestEnumerableSupport:
    def test_sizes(self):
        assert ev.enumerate_support(
            [StochasticLayerSpec.bernoulli(4)]).size == 16
        assert ev.enumerate_support(
            [StochasticLayerSpec.categorical(2, 3)]).size == 9
        assert ev.enumerate_support(
            [StochasticLayerSpec.bernoulli(2),
             StochasticLayerSpec.categorical(1, 4)]).size == 16

    def test_cap(self):
        with pytest.raises(CapabilityError):
            ev.enumerate_support([StochasticLayerSpec.bernoulli(17)])

    def test_bernoulli_rows_are_lexicographic(self):
        sup = ev.enumerate_support([StochasticLayerSpec.bernoulli(3)])
        rows = sup.layers[0]
        assert np.array_equal(rows[0], [0, 0, 0])
        assert np.array_equal(rows[1], [0, 0, 1])
        assert np.array_equal(rows[-1], [1, 1, 1])

    def test_config_and_index_round_trip(self):
        sup = ev.enumerate_support([StochasticLayerSpec.bernoulli(2),
                                    StochasticLayerSpec.categorical(1, 3)])
        for i in range(sup.size):
            assert sup.index_of(sup.config(i)) == i

    def test_all_rows_unique(self):
        sup = ev.enumerate_support([StochasticLayerSpec.bernoulli(3),
                                    StochasticLayerSpec.bernoulli(2)])
        seen = {tuple(np.concatenate([lay[i] for lay in sup.layers]))
                for i in range(sup.size)}
        assert len(seen) == sup.size == 32


class TestExactQuantities:
    def test_log_likelihood_vs_handwritten_sum(self):
        # independent double loop over latent bit patterns
        pair, rng = random_pair(1)
        x = np.array([1.0, 0.0, 1.0, 1.0])
        total = 0.0
        for bits in itertools.product([0.0, 1.0], repeat=3):
            total += np.exp(pair.gen.log_joint(x, [np.array(bits)]))
        assert ev.exact_log_likelihood(pair.gen, x) == \
            pytest.approx(np.log(total), abs=1e-10)

    def test_posterior_table_vs_handwritten(self):
        pair, rng = random_pair(2)
        x = np.array([0.0, 0.0, 1.0, 1.0])
        sup = ev.enumerate_support(pair.gen)
        joint = np.array([np.exp(pair.gen.log_joint(x, sup.config(i)))
                          for i in range(sup.size)])
        expect = joint / joint.sum()
        post = ev.exact_posterior(pair.gen, x, support=sup)
        assert np.allclose(post, expect, atol=1e-12)
        assert post.sum() == pytest.approx(1.0, abs=1e-12)

    def test_accepts_pair_or_generative_model(self):
        pair, _ = random_pair(3)
        x = np.array([1.0, 1.0, 0.0, 0.0])
        assert ev.exact_log_likelihood(pair, x) == \
            pytest.approx(ev.exact_log_likelihood(pair.gen, x), abs=1e-12)

    def test_inclusive_kl_nonnegative_and_handwritten(self):
        pair, rng = random_pair(4)
        x = np.array([1.0, 0.0, 0.0, 1.0])
        sup = ev.enumerate_support(pair.gen)
        post = ev.exact_posterior(pair.gen, x, support=sup)
        q = ev.exact_inference_table(pair.inf, x, support=sup)
        byhand = float(np.sum(post * (np.log(post) - np.log(q))))
        kl = ev.inclusive_kl_exact(pair, x, support=sup)
        assert kl == pytest.approx(byhand, abs=1e-10)
        assert kl >= 0.0

    def test_inclusive_kl_zero_when_matched(self):
        # zero couplings make posterior == prior; encoder bias reproduces it
        pair = build_architecture("enc: 5-3s~B3; dec: B3-5s")
        pair.lam[:] = 0.0
        rng = np.random.default_rng(0)
        pair.gen.prior_logits[:] = rng.normal(size=3)
        pair.inf.encoder_nets[0].layers[0].b[:] = pair.gen.prior_logits
        x = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        assert ev.inclusive_kl_exact(pair, x) == pytest.approx(0.0, abs=1e-12)

    def test_exact_dataset_nll_is_mean(self):
        pair, rng = random_pair(5)
        X = (rng.random((6, 4)) < 0.5).astype(float)
        per_point = [-ev.exact_log_likelihood(pair.gen, x) for x in X]
        assert ev.exact_dataset_nll(pair, X) == \
            pytest.approx(np.mean(per_point), abs=1e-10)


def logsumexp_inputs():
    """Random, tied (rounded), wide-range and all -inf rows."""
    rng = np.random.default_rng(12)
    for trial in range(200):
        rows, cols = (int(k) for k in rng.integers(1, 40, size=2))
        a = rng.normal(scale=float(rng.choice([1e-3, 1.0, 30.0])),
                       size=(rows, cols))
        kind = trial % 4
        if kind == 1:
            a = np.round(a)
        elif kind == 2:
            a *= np.exp(rng.uniform(-30.0, 30.0, size=a.shape))
        elif kind == 3:
            a[rng.random(a.shape) < 0.3] = -np.inf
            a[rng.integers(rows)] = -np.inf
        yield a


class TestLogSumExp:
    def test_bit_identical_to_scipy(self):
        for a in logsumexp_inputs():
            for axis in (None, 0, 1):
                for keepdims in (False, True):
                    got = ev.logsumexp(a, axis=axis, keepdims=keepdims)
                    want = scipy_logsumexp(a, axis=axis, keepdims=keepdims)
                    assert np.shape(got) == np.shape(want)
                    assert type(got) is type(want)
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("row,want", [
        ([-np.inf, -np.inf], -np.inf),
        ([np.inf, 1.0], np.inf),
        ([np.nan, 1.0], np.nan),
        ([np.inf, np.nan], np.nan),
    ])
    def test_non_finite_rows_match_scipy(self, row, want):
        a = np.array([row, [0.0, 1.0]])
        got = ev.logsumexp(a, axis=1)
        assert np.array_equal(got, scipy_logsumexp(a, axis=1), equal_nan=True)
        assert np.array_equal(got[0], want, equal_nan=True)

    def test_runtime_imports_leave_scipy_out(self):
        src = os.path.dirname(os.path.dirname(ev.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("import sys, jsalearn.cli, jsalearn.checks; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestEstimators:
    def test_estimate_nll_close_to_exact_at_large_n(self):
        pair, rng = random_pair(6, scale=0.5)
        x = np.array([1.0, 1.0, 0.0, 1.0])
        exact = -ev.exact_log_likelihood(pair.gen, x)
        est = ev.dataset_nll(pair, x[None], n_samples=40000,
                             rng=np.random.default_rng(0))
        assert abs(est - exact) < 0.02

    def test_estimate_nll_biased_upward_at_small_n(self):
        # -E[log w-hat] >= exact NLL (Jensen); visible at tiny sample counts
        pair, rng = random_pair(7)
        x = np.array([0.0, 1.0, 1.0, 0.0])
        exact = -ev.exact_log_likelihood(pair.gen, x)
        r = np.random.default_rng(1)
        reps = np.array([ev.dataset_nll(pair, x[None], n_samples=3,
                                        rng=r) for _ in range(400)])
        assert reps.mean() > exact
        big = np.array([ev.dataset_nll(pair, x[None], n_samples=2000,
                                       rng=r) for _ in range(20)])
        assert abs(big.mean() - exact) < abs(reps.mean() - exact)

    def test_dataset_nll_deterministic_and_blocked(self):
        pair, rng = random_pair(8)
        X = (rng.random((7, 4)) < 0.5).astype(float)
        a = ev.dataset_nll(pair, X, n_samples=50,
                           rng=np.random.default_rng(3))
        b = ev.dataset_nll(pair, X, n_samples=50,
                           rng=np.random.default_rng(3))
        assert a == b
        c = ev.dataset_nll(pair, X, n_samples=50,
                           rng=np.random.default_rng(3), block=2)
        assert np.isfinite(c)

    def test_dataset_nll_limit(self):
        pair, rng = random_pair(9)
        X = (rng.random((8, 4)) < 0.5).astype(float)
        a = ev.dataset_nll(pair, X, n_samples=30,
                           rng=np.random.default_rng(5), limit=3)
        b = ev.dataset_nll(pair, X[:3], n_samples=30,
                           rng=np.random.default_rng(5))
        assert a == pytest.approx(b, abs=1e-12)

    def test_dataset_nll_same_at_every_block_size(self):
        # One stochastic layer: the random stream does not depend on how
        # the datapoints are blocked.
        pair = build_architecture("linear", seed=4, dtype=np.float64)
        _, valid = data.surrogate_images(1, 7, seed=4)
        X = valid.items
        values = [ev.dataset_nll(pair, X, n_samples=100, block=block,
                                 rng=np.random.default_rng(11))
                  for block in (1, 3, None, len(X))]
        assert max(ev.EVAL_ROWS // 100, 1) not in (1, 3, len(X))
        for v in values[1:]:
            assert v == pytest.approx(values[0], rel=1e-12)

    def test_dataset_nll_memory_stays_cache_sized(self):
        # Scored as one 10 000-row block, this peaked at 255 MB.
        pair = build_architecture("linear", seed=0)
        _, valid = data.surrogate_images(1, 10, seed=0)
        tracemalloc.start()
        try:
            nll = ev.dataset_nll(pair, valid.items, n_samples=1000,
                                 rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(nll)
        assert peak < 32 * 2 ** 20

    @pytest.mark.parametrize("kwargs,error", [
        ({"n_samples": 0}, ConfigError),
        ({"block": 0}, ConfigError),
        ({"limit": 0}, ConfigError),
        ({"items": np.zeros((0, 4))}, ShapeError),
    ], ids=["n_samples", "block", "limit", "empty"])
    def test_dataset_nll_rejects_bad_inputs(self, kwargs, error):
        pair, rng = random_pair(10)
        args = {"items": (rng.random((3, 4)) < 0.5).astype(float),
                "n_samples": 5, "rng": np.random.default_rng(0)}
        args.update(kwargs)
        with pytest.raises(error):
            ev.dataset_nll(pair, **args)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_estimate_nll_finite(self, seed):
        pair, rng = random_pair(seed, scale=1.5)
        x = (rng.random(4) < 0.5).astype(float)
        est = ev.dataset_nll(pair, x[None], n_samples=20,
                             rng=np.random.default_rng(seed))
        assert np.isfinite(est)


class TestTransitionMatrix:
    def test_rows_sum_to_one(self):
        pair, rng = random_pair(10)
        x = np.array([1.0, 0.0, 0.0, 1.0])
        K = ev.mis_transition_matrix(pair, x)
        assert np.allclose(K.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(K >= 0.0)

    def test_detailed_balance(self):
        pair, rng = random_pair(11)
        x = np.array([0.0, 1.0, 0.0, 1.0])
        sup = ev.enumerate_support(pair.gen)
        post = ev.exact_posterior(pair.gen, x, support=sup)
        K = ev.mis_transition_matrix(pair, x, support=sup)
        flow = post[:, None] * K
        assert np.abs(flow - flow.T).max() < 1e-12

    def test_matches_simulated_chain(self):
        pair, rng = random_pair(12)
        x = np.array([1.0, 1.0, 1.0, 0.0])
        sup = ev.enumerate_support(pair.gen)
        post = ev.exact_posterior(pair.gen, x, support=sup)
        counts = jsa.run_mis_chain(pair, x, 200000,
                                   np.random.default_rng(0), support=sup)
        tv = 0.5 * np.abs(counts / counts.sum() - post).sum()
        assert tv < 0.02


class TestGradVariance:
    class _FakeEst:
        def __init__(self, g_theta, g_phi):
            self.g_theta = g_theta
            self.g_phi = g_phi

    def test_known_gaussian_variance(self):
        sig_t = np.array([1.0, 2.0, 0.5])
        sig_p = np.array([3.0, 0.1])

        def update(batch, rng):
            return self._FakeEst(rng.normal(0, sig_t),
                                 rng.normal(0, sig_p))

        rep = ev.grad_variance(update, [], 4000, np.random.default_rng(0))
        assert rep.log_sum_var_theta == \
            pytest.approx(np.log((sig_t ** 2).sum()), abs=0.1)
        assert rep.log_sum_var_phi == \
            pytest.approx(np.log((sig_p ** 2).sum()), abs=0.1)
        assert rep.reps == 4000

    @pytest.mark.parametrize("reps", [-1, 0, 1])
    def test_fewer_than_two_reps_rejected(self, reps):
        calls = []

        def update(batch, rng):
            calls.append(1)
            return self._FakeEst(np.ones(3), np.zeros(2))

        with pytest.raises(ConfigError, match="at least 2"):
            ev.grad_variance(update, [], reps, np.random.default_rng(0))
        assert calls == []

    def test_deterministic_fn_gives_minus_inf(self):
        def update(batch, rng):
            return self._FakeEst(np.ones(3), np.zeros(2))

        rep = ev.grad_variance(update, [], 10, np.random.default_rng(0))
        assert rep.log_sum_var_theta == -np.inf
        assert rep.log_sum_var_phi == -np.inf

    def test_rel_deviation(self):
        assert ev.rel_deviation(np.array([1.0, 2.0]),
                                np.array([1.0, 2.0])) == 0.0
        assert ev.rel_deviation(np.array([2.0]), np.array([1.0])) == \
            pytest.approx(1.0)


class TestOracleChecks:
    def test_nan_gradient_fails_the_gradient_checks(self, monkeypatch):
        # max(0.0, nan) is 0.0: a NaN deviation must fail a check, not read
        # as perfect agreement.
        grad = GenerativeModel.grad_log_joint

        def poisoned(self, *args, **kwargs):
            g = grad(self, *args, **kwargs)
            g[0] = np.nan
            return g

        monkeypatch.setattr(GenerativeModel, "grad_log_joint", poisoned)
        for res in (checks.check_gradient_agreement(instances_per_family=1),
                    checks.check_fisher_identity(n_models=3)):
            assert not res.passed
            assert "nan" in res.detail
