"""Tests for the dense-array numeric core: layer math, flat-parameter
plumbing, Adam, and agreement between analytic backward passes and the
central finite-difference oracle."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from jsalearn import ndnet
from jsalearn.errors import NumericError, ShapeError, StateError
from jsalearn.ndnet import (
    AdamState,
    LayeredNet,
    LeakyReLU,
    Linear,
    Sigmoid,
    Tanh,
    adam_step,
    finite_diff_grad,
)


EPS = np.finfo(np.float64).eps


def rel_err(a, b):
    """Max absolute deviation scaled by the overall magnitude of b."""
    scale = max(np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / scale


def random_net(rng, in_dim=None):
    """A small random net touching every layer kind, ending at its logits
    or at a hidden sigmoid."""
    in_dim = in_dim or int(rng.integers(2, 6))
    h1 = int(rng.integers(2, 6))
    h2 = int(rng.integers(2, 5)) * 2
    layers = [
        Linear(in_dim, h1),
        LeakyReLU(),
        Linear(h1, 4),
        Tanh(),
        Linear(4, h2),
    ]
    if rng.random() < 0.5:
        layers.append(Sigmoid())
    return LayeredNet(layers, rng=rng)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        np.testing.assert_allclose(ndnet.sigmoid(np.array([0.0])), [0.5])

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = ndnet.sigmoid(np.array([-1e4, -50.0, 50.0, 1e4]))
        assert np.isfinite(out).all()
        assert (out >= 0).all() and (out <= 1).all()

    def test_sigmoid_matches_expit_to_a_few_ulp(self):
        a = np.random.default_rng(0).normal(scale=20.0, size=100_000)
        a = a[a > -700.0]
        ref = expit(a)
        assert np.max(np.abs(ndnet.sigmoid(a) - ref) / ref) <= 4 * EPS

    def test_sigmoid_non_finite_inputs(self):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = ndnet.sigmoid(np.array([np.nan, np.inf, -np.inf, -1e4]))
        assert np.isnan(out[0]) and out[1] == 1.0
        assert 0.0 <= out[2] == out[3] < 1e-300

    def test_sigmoid_leaves_read_only_input_alone(self):
        a = np.array([-1.0, 2.0])
        a.flags.writeable = False
        ndnet.sigmoid(a)
        np.testing.assert_array_equal(a, [-1.0, 2.0])

    def test_sigmoid_floor_follows_the_dtype(self):
        assert ndnet.exp_floor(np.dtype(np.float64)) == -709.0
        assert ndnet.exp_floor(np.dtype(np.float32)) == -88.0
        a = np.array([-1e4, -100.0, -88.0, 0.0, 100.0], dtype=np.float32)
        with np.errstate(over="raise"):
            out = ndnet.sigmoid(a)
        assert out.dtype == np.float32
        assert 0.0 < out[0] == out[1] == out[2] < 1e-37
        assert out[3] == 0.5 and out[4] == 1.0

    def test_clamp_bounds(self):
        out = ndnet.clamped_sigmoid(np.array([-100.0, 100.0]))
        np.testing.assert_allclose(out, [1e-7, 1.0 - 1e-7])

    def test_leaky_relu_values(self):
        lay = LeakyReLU(0.01)
        np.testing.assert_allclose(lay.forward(np.array([-2.0, 0.0, 3.0])),
                                   [-0.02, 0.0, 3.0])

    @given(st.integers(1, 6), st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_group_softmax_rows_sum_to_one(self, groups, size, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(scale=5.0, size=(3, groups * size))
        p = ndnet.group_softmax(a, groups, size)
        sums = p.reshape(3, groups, size).sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-12
        assert (p >= 0).all()

    def test_links_in_place_match_new_arrays_bit_for_bit(self):
        rng = np.random.default_rng(4)
        a = rng.normal(scale=30.0, size=(5, 12))
        g = a.reshape(5, 4, 3)
        e = np.exp(g - g.max(axis=-1, keepdims=True))
        textbook = (e / e.sum(axis=-1, keepdims=True)).reshape(5, 12)
        softmax = functools.partial(ndnet.group_softmax, n_groups=4,
                                    group_size=3)
        for link, ref in ((ndnet.sigmoid, ndnet.sigmoid(a)),
                          (softmax, textbook)):
            np.testing.assert_array_equal(link(a), ref)
            b = a.copy()
            link(b, out=b)
            np.testing.assert_array_equal(b, ref)


class TestLinear:
    def test_identity_weights_pass_input_through(self):
        net = LayeredNet([Linear(2, 2)])
        net.params[:4] = np.eye(2).reshape(-1)
        x = np.array([0.3, -0.2])
        acts = net.forward(x)
        np.testing.assert_allclose(acts[-1], x)

    def test_init_ranges(self):
        rng = np.random.default_rng(7)
        net = LayeredNet([Linear(30, 20)], rng=rng)
        lay = net.layers[0]
        bound = np.sqrt(6.0 / 50.0)
        assert np.abs(lay.W).max() <= bound
        np.testing.assert_array_equal(lay.b, 0.0)

    def test_batched_forward_matches_loop(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, in_dim=4)
        X = rng.normal(size=(6, 4))
        batched = net.forward(X)[-1]
        single = np.stack([net.forward(X[i])[-1] for i in range(6)])
        np.testing.assert_allclose(batched, single, atol=1e-14)

    def test_shape_mismatch_raises(self):
        net = LayeredNet([Linear(3, 2)])
        with pytest.raises(ShapeError):
            net.forward(np.zeros(4))

    def test_dim_chain_validated(self):
        with pytest.raises(ShapeError):
            LayeredNet([Linear(3, 4), Linear(5, 2)])
        with pytest.raises(ShapeError):
            LayeredNet([Linear(3, 4), Sigmoid(), Linear(5, 2)])


class TestFlatParams:
    def test_params_are_views(self):
        rng = np.random.default_rng(0)
        net = LayeredNet([Linear(2, 3), Sigmoid()], rng=rng)
        net.params[0] = 42.0
        assert net.layers[0].W[0, 0] == 42.0

    def test_external_buffer_binding(self):
        buf = np.zeros(2 * 3 + 3 + 3 * 1 + 1)
        net = LayeredNet([Linear(2, 3), Tanh(), Linear(3, 1)],
                         rng=np.random.default_rng(1), buffer=buf)
        assert net.params is buf
        buf[:] = 0.0
        assert np.all(net.layers[0].W == 0.0)

    def test_wrong_buffer_size_rejected(self):
        with pytest.raises(ShapeError):
            LayeredNet([Linear(2, 2)], buffer=np.zeros(3))


class TestBackward:
    def test_gradients_match_finite_differences(self):
        """Analytic parameter gradients agree with the central-difference
        oracle on random nets covering every layer kind."""
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            net = random_net(rng)
            x = rng.normal(size=net.in_dim)
            w = rng.normal(size=net.out_dim)

            def scalar(params, net=net, x=x, w=w):
                return float(net.forward(x)[-1] @ w)

            acts = net.forward(x)
            analytic = net.backward(acts, w.copy())
            numeric = finite_diff_grad(scalar, net.params)
            assert rel_err(analytic, numeric) < 1e-6

    def test_input_gradient_matches_finite_differences(self):
        """The input gradients the layers pass down between them, chained
        by hand through every layer (Linear ones included), agree with
        finite differences of the net's output w.r.t. its input."""
        rng = np.random.default_rng(42)
        net = random_net(rng, in_dim=3)
        x = rng.normal(size=3)
        w = rng.normal(size=net.out_dim)
        acts = net.forward(x)
        gx = w.copy()
        for i in range(len(net.layers) - 1, -1, -1):
            gx = net.layers[i].backward(acts[i], acts[i + 1], gx,
                                        np.empty(net.layers[i].n_params))

        def scalar_x(xv):
            return float(net.forward(xv)[-1] @ w)

        numeric = finite_diff_grad(scalar_x, x.copy())
        assert rel_err(gx, numeric) < 1e-6

    def test_first_layer_input_gradient_not_formed(self, monkeypatch):
        rng = np.random.default_rng(43)
        net = random_net(rng, in_dim=3)
        first = net.layers[0]
        seen = []
        real = first.backward

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            seen.append(out)
            return out
        monkeypatch.setattr(first, "backward", spy)
        net.backward(net.forward(rng.normal(size=3)),
                     rng.normal(size=net.out_dim))
        assert seen == [None]

    def test_backward_writes_into_out(self):
        rng = np.random.default_rng(44)
        net = random_net(rng, in_dim=4)
        acts = net.forward(rng.normal(size=(3, 4)))
        G = rng.normal(size=(3, net.out_dim))
        out = np.full(net.n_params, np.nan)
        assert net.backward(acts, G, out=out) is out
        assert np.isfinite(out).all()
        fresh = net.backward(acts, G)
        assert np.array_equal(out, fresh)
        assert net.backward(acts, G) is not fresh

    @pytest.mark.parametrize("bad", [
        lambda n: np.zeros(n + 1),
        lambda n: np.zeros(n, dtype=np.float32),
        lambda n: np.zeros(2 * n)[::2],
    ])
    def test_backward_rejects_unusable_out(self, bad):
        net = LayeredNet([Linear(2, 3), Tanh()], rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            net.backward(net.forward(np.zeros(2)), np.ones(3),
                         out=bad(net.n_params))

    def test_batched_param_grad_is_sum_over_rows(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, in_dim=4)
        X = rng.normal(size=(5, 4))
        G = rng.normal(size=(5, net.out_dim))
        batched = net.backward(net.forward(X), G)
        summed = np.zeros(net.n_params)
        for i in range(5):
            summed += net.backward(net.forward(X[i]), G[i])
        np.testing.assert_allclose(batched, summed, atol=1e-12)

    def test_activation_list_length_checked(self):
        net = LayeredNet([Linear(2, 2), Sigmoid()], rng=np.random.default_rng(0))
        acts = net.forward(np.zeros(2))
        with pytest.raises(StateError):
            net.backward(acts[:-1], np.zeros(2))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        """With fresh moments the first step moves params by about
        lr * sign(d) along the ascent direction d."""
        params = np.array([1.0, -2.0, 0.5])
        d = np.array([0.3, -0.02, 4.0])
        st_ = AdamState.for_size(3, lr=0.1)
        before = params.copy()
        adam_step(params, d, st_)
        np.testing.assert_allclose(params - before, 0.1 * np.sign(d), rtol=1e-6)

    def test_zero_grad_zero_move(self):
        params = np.array([1.0, 2.0])
        st_ = AdamState.for_size(2, lr=0.1)
        adam_step(params, np.zeros(2), st_)
        np.testing.assert_array_equal(params, [1.0, 2.0])

    def test_step_magnitude_bounded_by_lr(self):
        params = np.zeros(4)
        g = np.array([10.0, -3.0, 0.7, -0.01])
        st_ = AdamState.for_size(4, lr=0.05)
        for _ in range(2):
            prev = params.copy()
            adam_step(params, g, st_)
            assert np.abs(params - prev).max() <= 0.05 * (1 + 1e-6)

    def test_nonfinite_grad_rejected(self):
        params = np.zeros(2)
        st_ = AdamState.for_size(2, lr=0.1)
        with pytest.raises(NumericError):
            adam_step(params, np.array([np.nan, 0.0]), st_)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            adam_step(np.zeros(2), np.zeros(3), AdamState.for_size(2, lr=0.1))

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            params = np.array([0.3, -0.7])
            st_ = AdamState.for_size(2, lr=0.01)
            for t in range(10):
                adam_step(params, np.array([np.sin(t + 1.0), np.cos(t + 1.0)]), st_)
            runs.append(params.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


def folded_adam_step(params, ascent, state):
    """Adam in Kingma & Ba's folded form on the ascent direction, one
    expression per line with a fresh temporary for every product: the
    reference for adam_step's buffered arithmetic."""
    state.step += 1
    t = state.step
    root = np.sqrt(1.0 - state.beta2 ** t)
    lr_t = state.lr * root / (1.0 - state.beta1 ** t)
    eps_t = state.eps * root
    state.m -= (1.0 - state.beta1) * (ascent + state.m)
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * ascent * ascent
    params -= lr_t * state.m / (np.sqrt(state.v) + eps_t)


def textbook_adam_step(params, grads, state):
    """Adam as Kingma & Ba's Algorithm 1 writes it, minimizing along grads,
    with explicit bias-corrected moments."""
    state.step += 1
    t = state.step
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grads
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * grads * grads
    m_hat = state.m / (1.0 - state.beta1 ** t)
    v_hat = state.v / (1.0 - state.beta2 ** t)
    params -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def close_to(a, b):
    """a within 1e-12 of b's largest magnitude."""
    return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


class TestBufferedAdam:
    def test_bit_identical_to_textbook_formula(self):
        rng = np.random.default_rng(40)
        n = 2 * ndnet.ADAM_BLOCK + 1000  # two full blocks and a partial one
        p_a = rng.normal(size=n)
        p_b, p_c = p_a.copy(), p_a.copy()
        s_a = AdamState.for_size(n, lr=3e-4)
        s_b = AdamState.for_size(n, lr=3e-4)
        s_c = AdamState.for_size(n, lr=3e-4)
        for _ in range(40):
            d = rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=n)
            adam_step(p_a, d, s_a)
            folded_adam_step(p_b, d, s_b)
            textbook_adam_step(p_c, -d, s_c)
            assert np.array_equal(p_a, p_b)
            assert np.array_equal(s_a.m, s_b.m)
            assert np.array_equal(s_a.v, s_b.v)
            assert s_a.step == s_b.step
            assert close_to(p_a, p_c)
            assert close_to(s_a.m, s_c.m)
            assert close_to(s_a.v, s_c.v)

    def test_returns_the_new_sum_of_squares(self):
        rng = np.random.default_rng(42)
        n = 2 * ndnet.ADAM_BLOCK + 1000
        params = rng.normal(size=n)
        st_ = AdamState.for_size(n, lr=1e-2)
        for _ in range(3):
            sumsq = adam_step(params, rng.normal(size=n), st_)
            want = float(params @ params)
            assert abs(sumsq - want) <= 1e-12 * want

    def test_huge_finite_gradient_passes_the_exact_check(self):
        """Entries of 1e200 overflow the screening dot product, so every
        entry is tested; all are finite, so the steps go ahead, and v
        saturates at inf instead of turning NaN."""
        params = np.zeros(3)
        st_ = AdamState.for_size(3, lr=0.1)
        with np.errstate(over="ignore"):
            for _ in range(2):
                adam_step(params, np.array([1e200, -1e200, 1.0]), st_)
        assert st_.step == 2
        assert np.isfinite(params).all()
        assert np.array_equal(st_.v[:2], [np.inf, np.inf])

    def test_second_step_allocates_no_parameter_sized_array(self):
        """The finiteness check and the update work in block-sized
        scratch: a second step on 1<<20 parameters (8 MiB each for params,
        grads, m and v; a 1 MiB bool mask for a whole-vector isfinite)
        peaks far below one block's worth of doubles."""
        n = 1 << 20
        params = np.zeros(n)
        g = np.full(n, 0.25)
        st_ = AdamState.for_size(n, lr=1e-3)
        adam_step(params, g, st_)
        tracemalloc.start()
        try:
            adam_step(params, g, st_)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_exact_check_allocates_no_parameter_sized_array(self):
        n = 1 << 20
        params = np.zeros(n)
        g = np.full(n, 1e200)  # the screening dot overflows
        st_ = AdamState.for_size(n, lr=1e-3)
        with np.errstate(over="ignore"):
            adam_step(params, g, st_)
            tracemalloc.start()
            try:
                adam_step(params, g, st_)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert st_.step == 2
        assert peak < 64 * 1024

    def test_nan_in_last_partial_block_rejected_without_state_change(self):
        rng = np.random.default_rng(41)
        n = 2 * ndnet.ADAM_BLOCK + 100
        params = rng.normal(size=n)
        st_ = AdamState.for_size(n, lr=1e-3)
        adam_step(params, rng.normal(size=n), st_)
        before = (params.copy(), st_.m.copy(), st_.v.copy(), st_.step)
        g = rng.normal(size=n)
        g[-1] = np.nan
        with pytest.raises(NumericError):
            adam_step(params, g, st_)
        assert np.array_equal(params, before[0])
        assert np.array_equal(st_.m, before[1])
        assert np.array_equal(st_.v, before[2])
        assert st_.step == before[3]

    def test_rejects_non_flat_params(self):
        st_ = AdamState.for_size(4, lr=0.1)
        st_.m, st_.v = np.zeros((2, 2)), np.zeros((2, 2))
        with pytest.raises(ShapeError):
            adam_step(np.zeros((2, 2)), np.zeros((2, 2)), st_)

    def test_dtypes_must_agree_and_are_kept(self):
        st_ = AdamState.for_size(2, lr=0.1, dtype=np.float32)
        with pytest.raises(ShapeError, match="dtype"):
            adam_step(np.zeros(2), np.ones(2), st_)
        params = np.zeros(2, dtype=np.float32)
        adam_step(params, np.ones(2, dtype=np.float32), st_)
        np.testing.assert_allclose(params, [0.1, 0.1], rtol=1e-6)
        arrays = (params, st_.m, st_.v) + st_.scratch[:2]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}

    def test_scratch_reused_and_not_in_compare_or_repr(self):
        st_ = AdamState.for_size(3, lr=0.1)
        params = np.zeros(3)
        adam_step(params, np.ones(3), st_)
        bufs = [id(b) for b in st_.scratch]
        adam_step(params, np.ones(3), st_)
        assert [id(b) for b in st_.scratch] == bufs
        assert "scratch" not in repr(st_)
        # a restored state (no scratch yet) steps like the original
        twin = AdamState(m=st_.m.copy(), v=st_.v.copy(), step=st_.step,
                         lr=0.1)
        p2 = params.copy()
        adam_step(params, np.full(3, 0.5), st_)
        adam_step(p2, np.full(3, 0.5), twin)
        assert np.array_equal(params, p2)


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda p: float(p[0] ** 2), np.array([3.0]))
        np.testing.assert_allclose(g, [6.0], atol=1e-8)

    def test_restores_params(self):
        p = np.array([1.0, 2.0])
        finite_diff_grad(lambda q: float(q.sum()), p)
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_multivariate(self):
        p = np.array([1.0, -2.0, 0.5])
        g = finite_diff_grad(lambda q: float((q ** 3).sum()), p)
        np.testing.assert_allclose(g, 3 * p ** 2, rtol=1e-7)
