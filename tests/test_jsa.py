"""Sampler steps, minibatch updates, the training loop, checkpoints."""

import math
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from jsalearn import evaluation as ev
from jsalearn import jsa, models, ndnet
from jsalearn.data import Dataset, synthetic_dataset
from jsalearn.errors import ConfigError, FormatError, NumericError, ShapeError
from jsalearn.jsa import JsaConfig, LatentCache
from jsalearn.models import build_architecture

ARCH = "enc: 5-3s~B3; dec: B3-5s"


def tiny(seed=0, scale=0.8, arch=ARCH):
    pair = build_architecture(arch)
    rng = np.random.default_rng(seed)
    pair.lam[:] = rng.normal(scale=scale, size=pair.lam.size)
    return pair, rng


def as_batch(X, C=None):
    """A minibatch of the rows of X (a 1D x is one row), with dataset
    indices 0 ... m-1."""
    X = np.atleast_2d(X)
    return np.arange(X.shape[0]), X, C


def always(delta, rng):
    return True


def never(delta, rng):
    return False


def default_accept(delta, rng):
    """Metropolis test in log space, one scalar draw per decision: the
    reference for mis_moves' default rule."""
    u = rng.random()
    return u == 0.0 or math.log(u) < delta


class TestAcceptRule:
    def test_nonnegative_delta_always_accepts(self):
        rng = np.random.default_rng(0)
        m = 1000
        for delta in (0.0, 5.0):
            pos, acc = jsa.mis_moves(np.zeros(m), np.full((m, 1), delta), rng)
            assert acc == m and np.all(pos == 0)

    def test_negative_delta_rate(self):
        rng = np.random.default_rng(1)
        n = 40000
        _, acc = jsa.mis_moves(np.zeros(n), np.full((n, 1), -1.0), rng)
        rate = acc / n
        p = np.exp(-1.0)
        assert abs(rate - p) <= 3 * np.sqrt(p * (1 - p) / n)


def reference_moves(logw_cur, logw_prop, rng, accept_rule=None):
    """The move loop spelled out one (move k, chain j) at a time, with
    deltas taken in float64 whatever the log-weights' dtype."""
    accept = accept_rule or default_accept
    m, K = logw_prop.shape
    cur = logw_cur.astype(np.float64)
    pos = np.full((m, K), -1)
    here = np.full(m, -1)
    accepted = 0
    for k in range(K):
        for j in range(m):
            if accept(logw_prop[j, k] - cur[j], rng):
                cur[j] = logw_prop[j, k]
                here[j] = k
                accepted += 1
            pos[j, k] = here[j]
    return pos, accepted


def reference_chain_counts(logw, props, cur, rng, accept=default_accept):
    """A chain's occupancy counted step by step."""
    counts = np.zeros(logw.size)
    for p in props:
        if accept(logw[p] - logw[cur], rng):
            cur = p
        counts[cur] += 1.0
    return counts


class ZeroUniforms:
    """A generator stub whose uniforms are all exactly 0."""

    def random(self, size=None):
        return np.zeros(size)


class FixedUniforms:
    """A generator stub that hands out the given uniforms in order, as a
    block or one at a time."""

    def __init__(self, u):
        self.u = iter(u)

    def random(self, size=None):
        if size is None:
            return next(self.u)
        return np.array([next(self.u) for _ in range(size)])


def log_weights(gen, m, K, family="normal"):
    """Start (m,) and proposal (m, K) log-weights drawn from gen. Besides
    normal ones: float32 ones, as training passes; a NaN start in chain 0,
    which never moves; a start of 8 in chain 0, above every normal
    proposal; and Student-t ones (2 degrees of freedom), whose largest
    weight dwarfs the rest. The last three leave long stretches between
    regeneration moves."""
    if family == "student-t":
        return gen.standard_t(2, size=m), gen.standard_t(2, size=(m, K))
    logw_cur, logw_prop = gen.normal(size=m), gen.normal(size=(m, K))
    if family == "float32":
        return logw_cur.astype(np.float32), logw_prop.astype(np.float32)
    logw_cur[0] = {"normal": logw_cur[0], "nan-start": np.nan,
                   "dominant": 8.0}[family]
    return logw_cur, logw_prop


def move_loop_cases():
    """Bit generator x (m, K) x rule x log-weight family. Cases with the
    default generator (PCG64) at (7, 5) are named by their rule alone, and
    normal log-weights go unnamed."""
    for bitgen in (np.random.PCG64, np.random.MT19937, np.random.Philox,
                   np.random.SFC64):
        for m, K in ((50, 2), (1, 70000), (7, 5), (3, 20000)):
            for rule in (None, never, always):
                name = getattr(rule, "__name__", "None")
                if (bitgen, m, K) != (np.random.PCG64, 7, 5):
                    name = f"{bitgen.__name__}-{m}x{K}-{name}"
                yield pytest.param(bitgen, (m, K), rule, "normal", id=name)
    for family, shapes in (
            ("float32", ((50, 2), (7, 5), (3, 20000), (1, 70000))),
            ("nan-start", ((50, 2), (3, 20000))),
            ("dominant", ((3, 20000), (1, 70000))),
            ("student-t", ((3, 20000), (1, 70000)))):
        for m, K in shapes:
            yield pytest.param(np.random.PCG64, (m, K), None, family,
                               id=f"PCG64-{m}x{K}-None-{family}")


class TestMoveLoop:
    @pytest.mark.parametrize("bitgen,shape,rule,family", move_loop_cases())
    def test_matches_reference_loop(self, bitgen, shape, rule, family):
        m, K = shape
        gen = np.random.default_rng(20)
        logw_cur, logw_prop = log_weights(gen, m, K, family)
        rng_a = np.random.Generator(bitgen(3))
        rng_b = np.random.Generator(bitgen(3))
        pos, acc = jsa.mis_moves(logw_cur, logw_prop, rng_a, rule)
        ref_pos, ref_acc = reference_moves(logw_cur, logw_prop, rng_b, rule)
        assert np.array_equal(pos, ref_pos) and acc == ref_acc
        # the generators must be left in the same state
        assert np.array_equal(rng_a.random(8), rng_b.random(8))
        if rule is None:
            assert 0 < acc < logw_prop.size

    def test_zero_uniform_accepts_any_delta(self):
        inf, nan = np.inf, np.nan
        logw_cur = np.array([0.0, -inf, nan, 3.0])
        logw_prop = np.array([[-inf, 1.0, nan],
                              [-inf, -inf, 2.0],
                              [nan, nan, -inf],
                              [-5.0, -inf, nan]])
        pos, acc = jsa.mis_moves(logw_cur, logw_prop, ZeroUniforms())
        assert acc == logw_prop.size
        assert np.array_equal(pos, np.tile(np.arange(3), (4, 1)))

    def test_zero_uniforms_end_stretches(self):
        # A zero uniform accepts any delta, so it ends a stretch even in a
        # chain with a NaN start or -inf proposals, where no other move
        # regenerates.
        m, K = 3, 400
        logw_cur, logw_prop = log_weights(np.random.default_rng(21), m, K,
                                          "nan-start")
        logw_prop[1, ::7] = -np.inf
        u = np.random.default_rng(22).random(m * K)
        u[[0, 5, 9, 300, 301, 302, 900, 1199]] = 0.0
        pos, acc = jsa.mis_moves(logw_cur, logw_prop, FixedUniforms(u))
        ref_pos, ref_acc = reference_moves(logw_cur, logw_prop,
                                           FixedUniforms(u))
        assert np.array_equal(pos, ref_pos) and acc == ref_acc
        assert pos[0, 99] == 99  # chain 0's last zero uniform, move 99

    def test_ties_between_logs_follow_math_log(self):
        # np.log(u) and math.log(u) may differ in the last bit. A delta on
        # the larger of the two accepts under math.log(u) < delta exactly
        # when np.log(u) < delta rejects, so each such decision must be
        # redone. The other chains reject; none regenerates, so a numpy
        # round takes every decision.
        m = 4 * jsa.WALK_MIN_MOVES
        u = np.random.default_rng(3).random(m)
        lu = np.log(u)
        ties = [j for j, x in enumerate(u.tolist()) if math.log(x) != lu[j]]
        if not ties:
            pytest.skip("np.log and math.log agree on every uniform here")
        logw_prop = np.full((m, 1), -50.0)
        for j in ties:
            logw_prop[j, 0] = max(lu[j], math.log(u[j]))
        logw_cur = np.zeros(m)
        pos, acc = jsa.mis_moves(logw_cur, logw_prop, np.random.default_rng(3))
        ref_pos, ref_acc = reference_moves(logw_cur, logw_prop,
                                           np.random.default_rng(3))
        assert np.array_equal(pos, ref_pos) and acc == ref_acc
        assert acc == sum(math.log(u[j]) < lu[j] for j in ties)

    def test_custom_rule_sees_each_decision_once_in_move_order(self):
        calls = []
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state

        def uphill(delta, r):
            assert r is rng
            calls.append(delta)
            return delta > 0

        logw_cur = np.array([0.0, 1.0])
        logw_prop = np.array([[1.0, -1.0, 3.0], [0.0, 2.0, 2.5]])
        pos, acc = jsa.mis_moves(logw_cur, logw_prop, rng, uphill)
        assert calls == [1.0, -1.0, -2.0, 1.0, 2.0, 0.5]
        assert pos.tolist() == [[0, 0, 2], [-1, 1, 2]] and acc == 4
        assert rng.bit_generator.state == before

    @staticmethod
    def chain_against_reference(seed, scale, start, rule=None):
        """run_mis_chain's run-length occupancy and the same chain counted
        step by step, over 2 slices and a part."""
        pair, _ = tiny(seed, scale=scale)
        x = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        sup = ev.enumerate_support(pair.gen)
        n_steps = 2 * jsa.CHAIN_SLICE + 321
        X = np.broadcast_to(x, (sup.size, x.size))
        logq = pair.inf.log_q(sup.layers, X)
        logw = pair.gen.log_joint(X, sup.layers) - logq
        start = int(np.argmax(logw)) if start == "top" else start
        counts = jsa.run_mis_chain(pair, x, n_steps, np.random.default_rng(4),
                                   support=sup, start=start, accept_rule=rule)
        q = np.exp(logq)
        rng = np.random.default_rng(4)
        props = rng.choice(sup.size, size=n_steps, p=q / q.sum())
        ref = reference_chain_counts(logw, props, start, rng,
                                     rule or default_accept)
        return counts, ref

    def test_chain_slices_match_reference_loop(self):
        counts, ref = self.chain_against_reference(18, 0.8, 2)
        assert np.array_equal(counts, ref)

    # A chain started at its largest weight that accepts 4 moves, one run
    # spanning a whole slice; and the accept-everything and accept-nothing
    # rules.
    @pytest.mark.parametrize("seed,scale,start,rule",
                             [(23, 2.0, "top", None), (18, 0.8, 2, always),
                              (18, 0.8, 5, never)],
                             ids=["long-stretch", "always", "never"])
    def test_run_lengths_match_step_counts(self, seed, scale, start, rule):
        counts, ref = self.chain_against_reference(seed, scale, start, rule)
        assert np.array_equal(counts, ref)
        if rule is never:
            assert counts[5] == counts.sum()

    def test_chain_memory_is_independent_of_length(self):
        # No array of n_steps uniforms or indices: 10^6 float64 uniforms
        # alone are 8 MB.
        pair, _ = tiny(18)
        x = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        sup = ev.enumerate_support(pair.gen)
        tracemalloc.start()
        try:
            jsa.run_mis_chain(pair, x, 1_000_000, np.random.default_rng(0),
                              support=sup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestGuideTable:
    # Laws whose CDF steps fall inside bins, on zero masses, and exactly on
    # bin edges (every step of the last two).
    LAWS = {f"random-{n}": np.random.default_rng(n).random(n)
            for n in (2, 3, 37, 128)}
    LAWS.update({"zeros": np.array([0.0, 0.3, 0.0, 0.0, 0.7, 0.0, 0.0]),
                 "halves": np.array([0.5, 0.25, 0.25]),
                 "quarters": np.full(4, 0.25)})

    @pytest.mark.parametrize("name", list(LAWS))
    def test_draws_match_generator_choice(self, name):
        q = self.LAWS[name] / self.LAWS[name].sum()
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        ref = rng_a.choice(q.size, 200_000, p=q)
        got = jsa.GuideTable(q)(rng_b.random(200_000))
        assert np.array_equal(got, ref)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert np.all(q[got] > 0)

    @pytest.mark.parametrize("name", ["halves", "quarters"])
    def test_steps_on_bin_edges_split_no_bin(self, name):
        assert np.all(jsa.GuideTable(self.LAWS[name]).first >= 0)

    def test_nan_masses_rejected(self):
        with pytest.raises(NumericError):
            jsa.GuideTable(np.array([0.5, np.nan, 0.5]))


def reference_update(pair, cache, batch, config, rng, *, use_cache,
                     update_cache=True, accept_rule=None):
    """The minibatch update with every net run on every row: x repeated K
    times, start states scored in their own calls, and both gradients
    recomputing the forward pass on the chosen rows from plain arrays."""
    idxs, X, C = batch
    m, K = len(idxs), config.particle_number
    Xr = np.repeat(X, K, axis=0)
    Cr = None if C is None else np.repeat(C, K, axis=0)
    Hp, logq_p = pair.inf.sample_q(Xr, Cr, rng=rng, return_log_q=True)
    logw_p = (pair.gen.log_joint(Xr, Hp, Cr) - logq_p).reshape(m, K)
    if not use_cache:
        H0 = pair.inf.sample_q(X, C, rng=rng)
    else:
        H0, seen = cache.get(idxs)
        if not seen.all():
            fresh = ~seen
            Hf = pair.inf.sample_q(X[fresh], None if C is None else C[fresh],
                                   rng=rng)
            for h0, hf in zip(H0, Hf):
                h0[fresh] = hf
    logw_0 = pair.gen.log_joint(X, H0, C) - pair.inf.log_q(H0, X, C)
    pos, accepted = reference_moves(logw_0, logw_p, rng, accept_rule)
    j = np.arange(m)[:, None]
    rows = np.where(pos < 0, j, m + j * K + pos)
    stacked = [np.concatenate([h0, hp]) for h0, hp in zip(H0, Hp)]
    Hsel = [lay[rows.reshape(-1)] for lay in stacked]
    w = np.full(m * K, 1.0 / (m * K))
    g_theta = pair.gen.grad_log_joint(Xr, Hsel, Cr, weights=w)
    g_phi = pair.inf.grad_log_q(Hsel, Xr, Cr, weights=w)
    if use_cache and update_cache:
        cache.put(idxs, [lay[rows[:, -1]] for lay in stacked])
    nll_proxy = float(np.mean(-ev.log_mean_exp(logw_p)))
    return jsa.GradEstimate(g_theta, g_phi, accepted, m * K, nll_proxy)


def coin(delta, rng):
    """A custom rule that draws from the generator itself."""
    return rng.random() < 0.5


def parity_pair(family):
    rng = np.random.default_rng(31)
    if family in ("linear", "two-layers"):
        pair = build_architecture(family)
        pair.lam[:] = rng.normal(scale=0.05, size=pair.lam.size)
    else:
        pair = build_architecture(
            "ctx: 4-5t-3s~B3; enc: 6-5t-3s~B3; dec: B3-5t-6s"
            if family == "structured" else "enc: 6-5l-6~C2x3; dec: C2x3-5l-6s")
        pair.lam[:] = rng.normal(scale=0.8, size=pair.lam.size)
    return pair


class TestScoreOnceParity:
    """The update against reference_update on the same random stream."""

    @pytest.mark.parametrize("rule", [None, coin],
                             ids=["default", "coin"])
    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("use_cache", [False, True],
                             ids=["fresh", "cache"])
    @pytest.mark.parametrize("family", ["linear", "two-layers", "categorical",
                                        "structured"])
    def test_matches_reference_update(self, family, use_cache, K, rule):
        pair = parity_pair(family)
        data = np.random.default_rng(7)
        m, n = 6, 9
        X = (data.random((n, pair.gen.obs_width)) < 0.5).astype(float)
        C = None
        if pair.context_width:
            C = (data.random((n, pair.context_width)) < 0.5).astype(float)
        caches = [LatentCache(n, [s.width for s in pair.layer_specs])
                  for _ in range(2)]
        # Half the batch has cached chains, half starts fresh.
        seeded = [1, 4, 6]
        states = pair.inf.sample_q(X[seeded],
                                   None if C is None else C[seeded], rng=data)
        for cache in caches:
            cache.put(seeded, states)
        idx = np.array([4, 0, 6, 2, 1, 8][:m])
        batch = (idx, X[idx], None if C is None else C[idx])
        cfg = JsaConfig(particle_number=K)
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(2):  # the second round starts from updated caches
            est = jsa.jsa_minibatch_update(pair, caches[0], batch, cfg, rng_a,
                                           use_cache=use_cache,
                                           accept_rule=rule)
            ref = reference_update(pair, caches[1], batch, cfg, rng_b,
                                   use_cache=use_cache, accept_rule=rule)
            assert est.accept_count == ref.accept_count
            assert est.proposal_count == ref.proposal_count == m * K
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            for a, b in zip(caches[0].layers + [caches[0].seen],
                            caches[1].layers + [caches[1].seen]):
                assert np.array_equal(a, b)
            assert ev.rel_deviation(est.g_theta, ref.g_theta) <= 1e-12
            assert ev.rel_deviation(est.g_phi, ref.g_phi) <= 1e-12
            assert est.nll_proxy == pytest.approx(ref.nll_proxy, abs=1e-9)

    def test_rws_matches_repeated_rows(self):
        pair = parity_pair("structured")
        data = np.random.default_rng(3)
        X = (data.random((4, 6)) < 0.5).astype(float)
        C = (data.random((4, 4)) < 0.5).astype(float)
        est = jsa.rws_minibatch_update(pair, as_batch(X, C), 3,
                                       np.random.default_rng(5))
        rng = np.random.default_rng(5)
        Xr, Cr = np.repeat(X, 3, axis=0), np.repeat(C, 3, axis=0)
        h, logw = ev.importance_sample(pair, Xr, Cr, rng)
        logw = logw.reshape(4, 3)
        w = np.exp(logw - logsumexp(logw, axis=1, keepdims=True)).ravel() / 4
        assert ev.rel_deviation(
            est.g_theta, pair.gen.grad_log_joint(Xr, h, Cr, weights=w)) <= 1e-12
        assert ev.rel_deviation(
            est.g_phi, pair.inf.grad_log_q(h, Xr, Cr, weights=w)) <= 1e-12


class TestMisStep:
    """One move of a chain, through the minibatch update with K=1 and
    chains started from cached states."""

    def test_returns_old_state_on_rejection(self):
        pair, rng = tiny(3)
        x = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
        cache = LatentCache(1, [3])
        cache.put([0], [np.array([[0.0, 1.0, 0.0]])])
        est = jsa.jsa_minibatch_update(pair, cache, as_batch(x),
                                       JsaConfig(particle_number=1), rng,
                                       use_cache=True, accept_rule=never)
        assert est.accept_count == 0
        assert np.array_equal(cache.get([0])[0][0], [[0.0, 1.0, 0.0]])

    def test_single_step_law_matches_analytic_kernel(self):
        pair, rng = tiny(4)
        x = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
        sup = ev.enumerate_support(pair.gen)
        K = ev.mis_transition_matrix(pair, x, support=sup)
        i0 = 3

        n = 20000
        cache = LatentCache(n, [3])
        cache.put(np.arange(n), [np.tile(h, (n, 1)) for h in sup.config(i0)])
        jsa.jsa_minibatch_update(pair, cache, as_batch(np.tile(x, (n, 1))),
                                 JsaConfig(particle_number=1), rng,
                                 use_cache=True)
        (H,), _ = cache.get(np.arange(n))
        counts = np.zeros(sup.size)
        for h in H:
            counts[sup.index_of([h])] += 1
        freq = counts / n
        se = np.sqrt(K[i0] * (1 - K[i0]) / n)
        assert np.all(np.abs(freq - K[i0]) <= 4 * se + 1e-9)


class TestLatentCache:
    def test_unseen_rows_read_as_unseen(self):
        cache = LatentCache(4, [2])
        cache.put([2], [np.array([[1.0, 1.0]])])
        (h,), seen = cache.get([0, 2])
        assert seen.tolist() == [False, True]
        assert np.array_equal(h[1], [1.0, 1.0])

    def test_put_copies(self):
        cache = LatentCache(6, [2])
        h = [np.array([[1.0, 0.0]])]
        cache.put([5], h)
        h[0][0, 0] = 9.0
        assert cache.get([5])[0][0][0, 0] == 1.0
        assert len(cache) == 1

    def test_state_round_trip(self):
        cache = LatentCache(8, [2, 1])
        cache.put([1, 7], [np.array([[1.0, 0.0], [0.0, 0.0]]),
                           np.array([[0.0], [1.0]])])
        back = LatentCache.from_state(cache.state_dict())
        assert np.flatnonzero(back.seen).tolist() == [1, 7]
        for a, b in zip(back.get([1, 7])[0], cache.get([1, 7])[0]):
            assert np.array_equal(a, b)


class TestMinibatchUpdate:
    def batch(self, pair, rng, m=4):
        X = (rng.random((m, pair.gen.obs_width)) < 0.5).astype(float)
        return as_batch(X)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_index_outside_cache_rejected(self, bad):
        pair, rng = tiny(22)
        cache = LatentCache(4, [3])
        b = self.batch(pair, rng, m=2)
        b[0][1] = bad
        with pytest.raises(ShapeError, match=f"index {bad} "):
            jsa.jsa_minibatch_update(pair, cache, b, JsaConfig(), rng,
                                     use_cache=True)
        assert len(cache) == 0

    def test_stage_one_never_touches_cache(self):
        pair, rng = tiny(5)
        cache = LatentCache()
        cfg = JsaConfig(particle_number=3)
        jsa.jsa_minibatch_update(pair, cache, self.batch(pair, rng), cfg,
                                 rng, use_cache=False)
        assert len(cache) == 0

    def test_stage_two_fills_and_reuses_cache(self):
        pair, rng = tiny(6)
        cache = LatentCache(6, [3])
        cfg = JsaConfig(particle_number=2)
        b = self.batch(pair, rng)
        jsa.jsa_minibatch_update(pair, cache, b, cfg, rng, use_cache=True)
        assert np.flatnonzero(cache.seen).tolist() == [0, 1, 2, 3]
        first = cache.state_dict()
        jsa.jsa_minibatch_update(pair, cache, b, cfg, rng, use_cache=True,
                                 accept_rule=never)
        # all moves rejected: chains must still sit at their cached states
        assert np.array_equal(first["layers"][0], cache.layers[0])

    def test_rejected_updates_average_gradient_at_start_states(self):
        pair, rng = tiny(7)
        cache = LatentCache(3, [3])
        b = self.batch(pair, rng, m=3)
        starts = []
        for j in b[0]:
            h = [np.array(v, dtype=float) for v in
                 [(rng.random(3) < 0.5).astype(float)]]
            cache.put(j, h)
            starts.append(h)
        cfg = JsaConfig(particle_number=4)
        est = jsa.jsa_minibatch_update(pair, cache, b, cfg, rng,
                                       use_cache=True, accept_rule=never)
        assert est.accept_count == 0
        assert est.proposal_count == 3 * 4
        manual = np.zeros(pair.n_theta)
        for x, h in zip(b[1], starts):
            manual += pair.gen.grad_log_joint(x, h) / 3
        assert np.allclose(est.g_theta, manual, atol=1e-10)

    def test_always_accept_caches_last_proposal(self):
        pair, rng = tiny(8)
        cache = LatentCache(2, [3])
        cfg = JsaConfig(particle_number=3)
        b = self.batch(pair, rng, m=2)
        est = jsa.jsa_minibatch_update(pair, cache, b, cfg, rng,
                                       use_cache=True, accept_rule=always)
        assert est.accept_count == est.proposal_count == 6
        assert len(cache) == 2

    def test_update_cache_false_leaves_cache_alone(self):
        pair, rng = tiny(9)
        cache = LatentCache(2, [3])
        cfg = JsaConfig(particle_number=2)
        b = self.batch(pair, rng, m=2)
        jsa.jsa_minibatch_update(pair, cache, b, cfg, rng, use_cache=True,
                                 update_cache=False)
        assert len(cache) == 0

    def test_stationary_mean_gradient_matches_fisher(self):
        # chains started from the exact posterior stay there, so the average
        # update direction is the marginal gradient
        pair, rng = tiny(10, scale=0.6)
        x = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        sup = ev.enumerate_support(pair.gen)
        post = ev.exact_posterior(pair.gen, x, support=sup)
        from jsalearn.ndnet import finite_diff_grad
        exact = finite_diff_grad(
            lambda _: ev.exact_log_likelihood(pair.gen, x, support=sup),
            pair.theta)

        cfg = JsaConfig(particle_number=2)
        reps = 3000
        grads = np.empty((reps, pair.n_theta))
        for r in range(reps):
            cache = LatentCache(1, [3])
            cache.put(0, sup.config(int(rng.choice(sup.size, p=post))))
            est = jsa.jsa_minibatch_update(pair, cache, as_batch(x), cfg,
                                           rng, use_cache=True,
                                           update_cache=False)
            grads[r] = est.g_theta
        se = grads.std(axis=0, ddof=1) / np.sqrt(reps)
        z = np.abs(grads.mean(axis=0) - exact) / np.maximum(se, 1e-12)
        assert z.max() < 4.5

    @pytest.mark.parametrize("algorithm", ["jsa", "rws"])
    def test_out_receives_both_gradients(self, algorithm):
        pair, rng = tiny(23)
        b = self.batch(pair, rng)

        def update(out, seed):
            r = np.random.default_rng(seed)
            if algorithm == "rws":
                return jsa.rws_minibatch_update(pair, b, 3, r, out=out)
            return jsa.jsa_minibatch_update(pair, LatentCache(), b,
                                            JsaConfig(), r, use_cache=False,
                                            out=out)

        out = np.full(pair.lam.size, np.nan, dtype=pair.dtype)
        est = update(out, 5)
        assert np.isfinite(out).all()
        assert np.shares_memory(est.g_theta, out[:pair.n_theta])
        assert np.shares_memory(est.g_phi, out[pair.n_theta:])
        fresh = update(None, 5)
        assert np.array_equal(out, np.concatenate([fresh.g_theta,
                                                   fresh.g_phi]))
        assert not np.shares_memory(fresh.g_theta, update(None, 5).g_theta)
        with pytest.raises(ShapeError):
            update(np.empty(pair.lam.size - 1), 5)

    def test_conditional_batch_requires_contexts(self):
        pair = build_architecture(
            "ctx: 3-4t-3s~B3; enc: 4-4t-3s~B3; dec: B3-4t-4s")
        cfg = JsaConfig()
        with pytest.raises(Exception):
            jsa.jsa_minibatch_update(pair, LatentCache(),
                                     as_batch(np.zeros(4)), cfg,
                                     np.random.default_rng(0),
                                     use_cache=False)


class TestRws:
    def test_counts_all_proposals_as_accepted(self):
        pair, rng = tiny(11)
        X = (rng.random((3, 5)) < 0.5).astype(float)
        est = jsa.rws_minibatch_update(pair, as_batch(X), 4, rng)
        assert est.accept_count == est.proposal_count == 12

    def test_single_particle_phi_gradient_has_zero_mean(self):
        # with one particle the weight is exactly 1, so the phi part reduces
        # to the score function whose expectation under q vanishes
        pair, rng = tiny(12)
        x = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
        reps = 2500
        grads = np.empty((reps, pair.n_phi))
        for r in range(reps):
            est = jsa.rws_minibatch_update(pair, as_batch(x), 1, rng)
            grads[r] = est.g_phi
        se = grads.std(axis=0, ddof=1) / np.sqrt(reps)
        z = np.abs(grads.mean(axis=0)) / np.maximum(se, 1e-12)
        assert z.max() < 4.5

    def test_nll_proxy_approaches_exact_for_many_particles(self):
        pair, rng = tiny(13, scale=0.5)
        x = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        exact = -ev.exact_log_likelihood(pair.gen, x)
        est = jsa.rws_minibatch_update(pair, as_batch(x), 20000, rng)
        assert est.nll_proxy == pytest.approx(exact, abs=0.05)

    def test_rejects_zero_particles(self):
        pair, rng = tiny(14)
        with pytest.raises(ConfigError):
            jsa.rws_minibatch_update(pair, as_batch(np.zeros(5)), 0, rng)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            JsaConfig(particle_number=0)
        with pytest.raises(ConfigError):
            JsaConfig(lr=0.0)
        with pytest.raises(ConfigError):
            JsaConfig(total_epochs=5, stage1_epochs=6)
        with pytest.raises(ConfigError):
            JsaConfig(total_epochs=-1)
        for bound in (float("nan"), -1.0):
            with pytest.raises(ConfigError):
                JsaConfig(lambda_bound=bound)
        JsaConfig(total_epochs=0, stage1_epochs=0)  # initial-state run


class TestTrain:
    def small_problem(self, n=60, seed=21):
        ds, _ = synthetic_dataset(ARCH, n=n, seed=seed)
        pair = build_architecture(ARCH, seed=1)
        return pair, ds

    def test_deterministic_given_seed(self):
        cfg = JsaConfig(particle_number=2, minibatch_size=10, total_epochs=4,
                        stage1_epochs=2, lr=1e-3, seed=5, eval_every=2,
                        val_samples=15)
        pair1, ds = self.small_problem()
        r1 = jsa.train(pair1, ds, cfg, valid=ds, timing=False)
        pair2, ds2 = self.small_problem()
        r2 = jsa.train(pair2, ds2, cfg, valid=ds2, timing=False)
        assert np.array_equal(pair1.lam, pair2.lam)
        assert r1.metrics == r2.metrics

    def test_linear_preset_deterministic_with_other_training_between(self):
        # Repetitions of one seed must end bit-identical even when another
        # model trains in between (as benchmark repetitions do).
        from jsalearn.data import surrogate_images
        train, valid = surrogate_images(60, 20, seed=3)
        cfg = JsaConfig(particle_number=2, minibatch_size=10, total_epochs=3,
                        stage1_epochs=2, seed=3, eval_every=3, val_samples=10)

        def run(arch):
            pair = build_architecture(arch, seed=3)
            res = jsa.train(pair, train, cfg, valid=valid, timing=False)
            return pair.lam.copy(), res.metrics

        lam1, metrics1 = run("linear")
        run("enc: 784-30l-12~C3x4; dec: C3x4-30l-784s")
        lam2, metrics2 = run("linear")
        assert np.array_equal(lam1, lam2)
        assert metrics1 == metrics2

    def test_cache_respects_stage_boundary(self):
        pair, ds = self.small_problem()
        cfg = JsaConfig(minibatch_size=20, total_epochs=3, stage1_epochs=3,
                        lr=1e-3, seed=2)
        res = jsa.train(pair, ds, cfg, timing=False)
        assert len(res.cache) == 0

        pair, ds = self.small_problem()
        cfg = JsaConfig(minibatch_size=20, total_epochs=3, stage1_epochs=1,
                        lr=1e-3, seed=2)
        res = jsa.train(pair, ds, cfg, timing=False)
        assert len(res.cache) == len(ds.items)

    def test_freeze_theta(self):
        pair, ds = self.small_problem()
        theta0 = pair.theta.copy()
        phi0 = pair.phi.copy()
        cfg = JsaConfig(minibatch_size=20, total_epochs=3, stage1_epochs=3,
                        lr=1e-3, seed=3, freeze_theta=True)
        jsa.train(pair, ds, cfg, timing=False)
        assert np.array_equal(pair.theta, theta0)
        assert not np.array_equal(pair.phi, phi0)

    def test_freeze_theta_leaves_theta_and_its_moments_untouched(self):
        # Over several Adam blocks and one epoch of each stage, the zeroed
        # theta block of the ascent step moves neither theta nor its moments.
        from jsalearn.data import surrogate_images
        train, _ = surrogate_images(40, 10, seed=1)
        pair = build_architecture("linear", seed=1)
        assert pair.lam.size > 2 * ndnet.ADAM_BLOCK
        theta0 = pair.theta.copy()
        cfg = JsaConfig(minibatch_size=20, total_epochs=2, stage1_epochs=1,
                        seed=1, freeze_theta=True)
        res = jsa.train(pair, train, cfg, timing=False)
        assert np.array_equal(pair.theta, theta0)
        assert not res.adam.m[:pair.n_theta].any()
        assert not res.adam.v[:pair.n_theta].any()
        assert res.adam.v[pair.n_theta:].any()

    def test_divergence_rolls_back_and_carries_result(self):
        pair, ds = self.small_problem()
        cfg = JsaConfig(minibatch_size=20, total_epochs=10, stage1_epochs=10,
                        lr=1e6, seed=4, lambda_bound=10.0)
        snap = pair.copy_lam()
        with pytest.raises(jsa.TrainingDiverged) as e:
            jsa.train(pair, ds, cfg, timing=False)
        assert np.isfinite(pair.lam).all()
        assert np.array_equal(pair.lam, snap)  # rolled back to last good epoch
        assert e.value.result.epochs_run < 10
        # the Adam state rolls back with lam: here to before the first step
        adam = e.value.result.adam
        assert adam.step == 0
        assert not adam.m.any() and not adam.v.any()

    def test_lambda_bound_is_inclusive_to_the_last_bit(self):
        # A run whose largest norm equals the bound finishes; one ulp less
        # and it aborts, exactly as np.linalg.norm(lam) > bound would. (lam
        # fits in one Adam block here, so the step's sum of squares is
        # lam @ lam; over several blocks it is summed block by block.)
        norms = []
        pair, ds = self.small_problem()
        snap = pair.copy_lam()
        cfg = JsaConfig(minibatch_size=20, total_epochs=2, stage1_epochs=1,
                        lr=1e-2, seed=4)
        jsa.train(pair, ds, cfg, timing=False, on_update=lambda e, k, p, est:
                  norms.append(np.linalg.norm(p.lam)))
        top = max(norms)
        cfg.lambda_bound = top
        pair.set_lam(snap)
        assert jsa.train(pair, ds, cfg, timing=False).epochs_run == 2
        cfg.lambda_bound = np.nextafter(top, 0.0)
        pair.set_lam(snap)
        with pytest.raises(jsa.TrainingDiverged):
            jsa.train(pair, ds, cfg, timing=False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_aborts_the_same_update(self, bad,
                                                         monkeypatch):
        pair, ds = self.small_problem()
        cfg = JsaConfig(minibatch_size=20, total_epochs=2, stage1_epochs=1,
                        lr=1e-3, seed=4)
        real_step = jsa.adam_step

        def poisoned_step(params, ascent, state):
            real_step(params, ascent, state)
            params[-1] = bad
            return float(params @ params)  # train reads the norm from here

        monkeypatch.setattr(jsa, "adam_step", poisoned_step)
        updates = []
        with pytest.raises(jsa.TrainingDiverged,
                           match="parameters diverged at epoch 1"):
            jsa.train(pair, ds, cfg, timing=False,
                      on_update=lambda *args: updates.append(args))
        assert updates == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_aborts_the_same_update(self, bad,
                                                        monkeypatch):
        # One poisoned coordinate of the ascent buffer, on the second update
        # of epoch 2, rolls lam and Adam back to the end of epoch 1.
        pair, ds = self.small_problem()
        cfg = JsaConfig(minibatch_size=20, total_epochs=3, stage1_epochs=1,
                        lr=1e-3, seed=4)
        real_update = jsa.jsa_minibatch_update
        calls = []

        def poisoned_update(*args, **kwargs):
            est = real_update(*args, **kwargs)
            calls.append(None)
            if len(calls) == 5:   # three updates per epoch
                kwargs["out"][-1] = bad
            return est

        monkeypatch.setattr(jsa, "jsa_minibatch_update", poisoned_update)
        saved, updates = {}, []

        def on_epoch(epoch, p, result):
            saved[epoch] = (p.copy_lam(), result.adam.m.copy(),
                            result.adam.v.copy(), result.adam.step)

        with pytest.raises(jsa.TrainingDiverged,
                           match="non-finite gradient") as e:
            jsa.train(pair, ds, cfg, timing=False, on_epoch=on_epoch,
                      on_update=lambda *args: updates.append(args[:2]))
        assert updates[-1] == (2, 1) and len(calls) == 5
        assert e.value.result.epochs_run == 1
        adam = e.value.result.adam
        lam, m, v, step = saved[1]
        assert np.array_equal(pair.lam, lam)
        assert np.array_equal(adam.m, m) and np.array_equal(adam.v, v)
        assert adam.step == step == 3

    def test_divergence_restores_adam_state_of_last_good_epoch(self):
        pair, ds = self.small_problem()
        cfg = JsaConfig(minibatch_size=20, total_epochs=4, stage1_epochs=4,
                        lr=1e-3, seed=4)
        saved = {}

        def on_epoch(epoch, p, result):
            saved[epoch] = (p.copy_lam(), result.adam.m.copy(),
                            result.adam.v.copy(), result.adam.step)
            if epoch == 2:  # make the next epoch diverge
                cfg.lambda_bound = 0.0

        with pytest.raises(jsa.TrainingDiverged) as e:
            jsa.train(pair, ds, cfg, on_epoch=on_epoch, timing=False)
        adam = e.value.result.adam
        lam, m, v, step = saved[2]
        assert e.value.result.epochs_run == 2
        assert np.array_equal(pair.lam, lam)
        assert np.array_equal(adam.m, m) and np.array_equal(adam.v, v)
        assert adam.step == step == 2 * 3

    def test_best_lam_tracks_minimum_validation(self):
        pair, ds = self.small_problem(n=80)
        cfg = JsaConfig(minibatch_size=20, total_epochs=6, stage1_epochs=3,
                        lr=5e-3, seed=6, eval_every=2, val_samples=25)
        res = jsa.train(pair, ds, cfg, valid=ds, timing=False)
        vals = [r[2] for r in res.metrics if r[1] == "valid"]
        assert res.best_val_nll == pytest.approx(min(vals))
        final = pair.copy_lam()
        pair.set_lam(res.best_lam)
        crn = np.random.default_rng(cfg.seed + 977)
        best_nll = ev.dataset_nll(pair, ds.items, n_samples=25, rng=crn)
        assert best_nll == pytest.approx(res.best_val_nll, abs=1e-9)
        pair.set_lam(final)

    def test_zero_epochs_returns_initial_state(self):
        pair, ds = self.small_problem()
        snap = pair.copy_lam()
        cfg = JsaConfig(total_epochs=0, stage1_epochs=0)
        res = jsa.train(pair, ds, cfg, timing=False)
        assert res.epochs_run == 0
        assert np.array_equal(res.best_lam, snap)
        assert res.metrics == []

    def test_rws_algorithm_route(self):
        pair, ds = self.small_problem()
        cfg = JsaConfig(minibatch_size=20, total_epochs=2, stage1_epochs=0,
                        lr=1e-3, seed=7)
        res = jsa.train(pair, ds, cfg, algorithm="rws", timing=False)
        accs = [r[3] for r in res.metrics if r[1] == "train"]
        assert all(a == 1.0 for a in accs)

    def test_unknown_algorithm_rejected(self):
        pair, ds = self.small_problem()
        with pytest.raises(ConfigError):
            jsa.train(pair, ds, JsaConfig(), algorithm="vae")

    def test_memory_peak_stays_near_the_run_long_buffers(self):
        """train keeps lam-sized buffers for the run (Adam's m and v, the
        step, the last-good copies) and makes none per update, so a short
        run on the 1.17M-parameter preset peaks below 7.5 lams."""
        from jsalearn.data import surrogate_images
        train, _ = surrogate_images(200, 10, seed=0)
        pair = build_architecture("categorical-20x10", seed=0)
        cfg = JsaConfig(particle_number=2, minibatch_size=50, total_epochs=2,
                        stage1_epochs=1, seed=0)
        tracemalloc.start()
        try:
            jsa.train(pair, train, cfg, timing=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * pair.lam.nbytes

    def test_timing_off_writes_zero_seconds(self):
        pair, ds = self.small_problem()
        cfg = JsaConfig(minibatch_size=20, total_epochs=2, stage1_epochs=2,
                        lr=1e-3, seed=8)
        res = jsa.train(pair, ds, cfg, timing=False)
        assert all(r[4] == 0.0 for r in res.metrics)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        pair, rng = tiny(15)
        cache = LatentCache(4, [3])
        cache.put(3, [np.array([1.0, 0.0, 1.0])])
        adam = jsa.AdamState.for_size(pair.lam.size, lr=2e-3, dtype=pair.dtype)
        jsa.adam_step(pair.lam.copy(), np.ones_like(pair.lam), adam)
        adam.m[:] = rng.normal(size=adam.m.size)
        adam.step = 17
        path = tmp_path / "model.ckpt"
        jsa.save_checkpoint(path, pair, adam=adam, cache=cache, epoch=9,
                            extra={"task": "generative-bernoulli"})
        payload = jsa.load_checkpoint(path)
        back = jsa.restore_pair(payload)
        assert np.array_equal(back.lam, pair.lam)
        assert payload["epoch"] == 9
        assert payload["extra"]["task"] == "generative-bernoulli"
        assert set(payload["adam"]) == {"m", "v", "step", "beta1", "beta2",
                                        "eps", "lr"}  # no scratch buffers
        adam2 = jsa.restore_adam(payload)
        assert adam2.step == 17 and adam2.lr == 2e-3
        assert np.array_equal(adam2.m, adam.m)
        cache2 = LatentCache.from_state(payload["cache"])
        assert np.array_equal(cache2.get([3])[0][0], [[1.0, 0.0, 1.0]])

        x = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        h = [np.array([0.0, 1.0, 1.0])]
        assert back.gen.log_joint(x, h) == \
            pytest.approx(pair.gen.log_joint(x, h), abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_keeps_dtype(self, tmp_path, dtype):
        pair = build_architecture(ARCH, seed=2, dtype=dtype)
        rng = np.random.default_rng(2)
        pair.set_lam(rng.normal(size=pair.lam.size))
        adam = jsa.AdamState.for_size(pair.lam.size, lr=1e-3, dtype=dtype)
        jsa.adam_step(pair.lam, rng.normal(size=pair.lam.size).astype(dtype),
                      adam)
        cache = LatentCache(5, [3], dtype)
        cache.put([0, 4], [np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])])
        path = tmp_path / "run.ckpt"
        jsa.save_checkpoint(path, pair, adam=adam, cache=cache)
        payload = jsa.load_checkpoint(path)
        back = jsa.restore_pair(payload)
        adam2 = jsa.restore_adam(payload)
        cache2 = LatentCache.from_state(payload["cache"])
        for a, b in [(back.lam, pair.lam), (adam2.m, adam.m),
                     (adam2.v, adam.v), *zip(cache2.layers, cache.layers)]:
            assert a.dtype == dtype and a.tobytes() == b.tobytes()
        assert np.array_equal(cache2.seen, cache.seen)

    def test_round_trip_of_a_conditional_pair(self, tmp_path):
        arch = "ctx: 3-4t-2s~B2; enc: 4-4l-3s~B3-2s~B2; dec: B2-3s~B3-4t-4s"
        pair = build_architecture(arch, seed=3)
        pair.set_lam(np.random.default_rng(3).normal(size=pair.lam.size))
        path = tmp_path / "cond.ckpt"
        jsa.save_checkpoint(path, pair)
        back = jsa.restore_pair(jsa.load_checkpoint(path))
        assert back.arch == arch and back.context_width == 3
        assert back.lam.dtype == pair.lam.dtype
        assert back.lam.tobytes() == pair.lam.tobytes()

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path,
                                                     monkeypatch):
        pair, _ = tiny(18)
        path = tmp_path / "last.ckpt"
        jsa.save_checkpoint(path, pair, epoch=1)
        before = path.read_bytes()

        def broken_dump(obj, f, protocol=None):
            f.write(b"partial payload")
            raise OSError("disk full")

        monkeypatch.setattr(pickle, "dump", broken_dump)
        pair.lam[:] += 1.0
        with pytest.raises(OSError, match="disk full"):
            jsa.save_checkpoint(path, pair, epoch=2)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["last.ckpt"]
        monkeypatch.undo()
        assert jsa.load_checkpoint(path)["epoch"] == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(FormatError):
            jsa.load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"JSA")
        with pytest.raises(FormatError):
            jsa.load_checkpoint(path)


class TestChainDriver:
    def test_counts_sum_to_steps(self):
        pair, rng = tiny(16)
        x = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        counts = jsa.run_mis_chain(pair, x, 5000, rng, start=0)
        assert counts.sum() == 5000

    @pytest.mark.parametrize("start", [-1, 8, 100])
    def test_start_outside_support_rejected(self, start):
        pair, rng = tiny(16)  # 3 latent units: 8 support states
        x = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        with pytest.raises(ShapeError, match="outside"):
            jsa.run_mis_chain(pair, x, 10, rng, start=start)
        counts = jsa.run_mis_chain(pair, x, 10, rng, start=7)
        assert counts.sum() == 10

    def test_nll_proxy_is_importance_estimate(self):
        # against an independent recomputation at K=high on a fixed batch
        pair, rng = tiny(17, scale=0.5)
        x = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
        cfg = JsaConfig(particle_number=500)
        est = jsa.jsa_minibatch_update(pair, LatentCache(), as_batch(x),
                                       cfg, rng, use_cache=False)
        exact = -ev.exact_log_likelihood(pair.gen, x)
        assert est.nll_proxy == pytest.approx(exact, abs=0.3)


def float_dtypes(obj, found):
    """Adds the dtype of every floating array in obj (arrays, and lists,
    tuples, dicts and activation records of them) to found."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            found.add(obj.dtype)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            float_dtypes(item, found)
    elif isinstance(obj, dict):
        float_dtypes(list(obj.values()), found)
    elif isinstance(obj, models.Activations):
        float_dtypes([obj.data, obj.nets], found)


# Every layer pass, link, log-mass, draw, model call, cache access and
# Adam step of a run; their arguments and results are what the run computes.
WATCHED = [
    *[(cls, name) for cls in (ndnet.Linear, ndnet.LeakyReLU, ndnet.Tanh,
                              ndnet.Sigmoid)
      for name in ("forward", "backward")],
    *[(models.StochasticLayerSpec, name)
      for name in ("probs", "log_mass", "logit_grad", "sample")],
    *[(models.GenerativeModel, name)
      for name in ("log_joint", "grad_log_joint")],
    *[(models.InferenceModel, name)
      for name in ("log_q", "grad_log_q", "sample_q")],
    (LatentCache, "get"), (LatentCache, "put"), (jsa, "adam_step"),
]


class TestFloat32:
    """A float32 pair trains and evaluates in float32: no array of its run
    is promoted to float64, although the dataset is float64."""

    @pytest.mark.parametrize("algorithm", ["jsa", "rws"])
    @pytest.mark.parametrize("make", [
        lambda: build_architecture("enc: 12-8l-6~C2x3; dec: C2x3-8t-12s"),
        lambda: build_architecture(
            "enc: 12-8s-4s~B4-3s~B3; dec: B3-4s~B4-8s-12s"),
        lambda: build_architecture(
            "ctx: 6-5t-4s~B4; enc: 12-5t-4s~B4; dec: B4-5t-12s"),
    ], ids=["leaky-tanh-categorical", "hidden-sigmoid-two-layers",
            "conditional"])
    def test_no_array_is_promoted(self, make, algorithm, monkeypatch):
        pair = make()
        rng = np.random.default_rng(0)
        n = 30
        items = (rng.random((n, pair.gen.obs_width)) < 0.5).astype(float)
        ctx = None
        if pair.context_width:
            ctx = (rng.random((n, pair.context_width)) < 0.5).astype(float)
        data = Dataset(items, ctx)
        found = set()
        for owner, name in WATCHED:
            def watched(*args, _fn=getattr(owner, name), **kwargs):
                out = _fn(*args, **kwargs)
                float_dtypes([args, kwargs, out], found)
                return out
            monkeypatch.setattr(owner, name, watched)
        cfg = JsaConfig(minibatch_size=10, total_epochs=2, stage1_epochs=1,
                        eval_every=2, val_samples=7, seed=1)
        res = jsa.train(pair, data, cfg, valid=data, algorithm=algorithm,
                        timing=False)
        assert found == {np.dtype(np.float32)}
        kept = [pair.lam, res.best_lam, res.adam.m, res.adam.v,
                *res.adam.scratch[:2], *res.cache.layers]
        assert {a.dtype for a in kept} == {np.dtype(np.float32)}
        assert res.metrics[-1][1] == "valid"
