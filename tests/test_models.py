"""Architecture grammar, joint/inference models, and their gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsalearn import evaluation as ev
from jsalearn.checks import TINY_FAMILIES, tiny_pair
from jsalearn.errors import ArchParseError, DomainError, ShapeError
from jsalearn.models import (
    DRAW_CHUNK,
    PRESETS,
    StochasticLayerSpec,
    build_architecture,
)
from jsalearn.ndnet import Linear, finite_diff_grad, group_softmax

# Conditional pairs: the prior net reads the context c, encoder net 0
# reads [c, x] and decoder net 0 reads [h[0], c].
CONDITIONAL = "ctx: 3-4t-3s~B3; enc: 4-4t-3s~B3; dec: B3-4t-4s"
TWO_LAYER_CONDITIONAL = ("ctx: 3-4t-2s~B2; enc: 4-4l-3s~B3-2s~B2; "
                         "dec: B2-3s~B3-4t-4s")


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-8)


class TestGrammar:
    def test_linear_preset_parameter_counts(self):
        pair = build_architecture("linear")
        # hand count: encoder 784->200 dense; decoder 200 prior logits
        # plus 200->784 dense
        assert pair.n_phi == 784 * 200 + 200
        assert pair.n_theta == 200 + (200 * 784 + 784)
        assert pair.lam.size == pair.n_theta + pair.n_phi

    def test_categorical_preset_parameter_counts(self):
        pair = build_architecture("categorical-20x10")
        enc = (784 * 512 + 512) + (512 * 256 + 256) + (256 * 200 + 200)
        dec = 200 + (200 * 256 + 256) + (256 * 512 + 512) + (512 * 784 + 784)
        assert pair.n_phi == enc
        assert pair.n_theta == dec
        spec = pair.layer_specs[0]
        assert spec.kind == "categorical"
        assert (spec.n_vars, spec.n_categories) == (20, 10)

    def test_two_layer_preset_structure(self):
        pair = build_architecture("two-layers")
        assert [s.width for s in pair.layer_specs] == [200, 200]
        assert len(pair.gen.decoder_nets) == 2
        assert len(pair.inf.encoder_nets) == 2

    def test_every_preset_builds(self):
        for name in PRESETS:
            pair = build_architecture(name)
            assert pair.lam.size > 0

    def test_structured_preset_is_conditional(self):
        pair = build_architecture("structured-50")
        assert pair.context_width == 392
        assert pair.gen.obs_width == 392
        assert pair.layer_specs[0].width == 50

    def test_conditional_nets_read_the_context(self):
        pair = build_architecture(TWO_LAYER_CONDITIONAL)
        assert pair.context_width == 3
        assert [s.width for s in pair.layer_specs] == [3, 2]
        assert (pair.gen.prior_net.in_dim, pair.gen.prior_net.out_dim) == (3, 2)
        assert pair.inf.encoder_nets[0].in_dim == 3 + 4
        assert pair.gen.decoder_nets[0].in_dim == 3 + 3
        assert pair.gen.decoder_nets[1].in_dim == 2

    def test_every_arch_label_rebuilds_its_pair(self):
        """A pair's arch label is a string build_architecture accepts and
        that rebuilds the same layout, as restoring a checkpoint needs."""
        rng = np.random.default_rng(4)
        pairs = [build_architecture(name, seed=None) for name in PRESETS]
        pairs += [tiny_pair(family, rng) for family in TINY_FAMILIES
                  for _ in range(3)]
        for pair in pairs:
            again = build_architecture(pair.arch, seed=None, dtype=pair.dtype)
            assert again.layer_specs == pair.layer_specs
            assert (again.n_theta, again.n_phi, again.context_width) == \
                (pair.n_theta, pair.n_phi, pair.context_width)

    def test_categorical_gets_group_softmax_head(self):
        """Every net that feeds a stochastic factor ends at its logits; the
        categorical factor's link is a softmax over each group."""
        pair = build_architecture("enc: 6-8l-6~C2x3; dec: C2x3-8l-6s")
        for net in pair.inf.encoder_nets + pair.gen.decoder_nets:
            assert isinstance(net.layers[-1], Linear)
        logits = pair.inf.encoder_nets[0].forward(np.arange(6.0))[-1]
        np.testing.assert_array_equal(pair.layer_specs[0].probs(logits),
                                      group_softmax(logits, 2, 3))

    def test_width_mismatch_position(self):
        with pytest.raises(ArchParseError) as e:
            build_architecture("enc: 8-4s~B3; dec: B3-8s")
        assert "position" in str(e.value)
        assert isinstance(e.value.position, int)

    def test_bernoulli_needs_sigmoid_feed(self):
        with pytest.raises(ArchParseError):
            build_architecture("enc: 8-3l~B3; dec: B3-8s")

    def test_missing_decoder_section(self):
        with pytest.raises(ArchParseError):
            build_architecture("enc: 8-3s~B3")

    def test_trailing_garbage(self):
        with pytest.raises(ArchParseError):
            build_architecture("enc: 8-3s~B3; dec: B3-8s; extra")

    def test_unknown_activation_letter(self):
        with pytest.raises(ArchParseError):
            build_architecture("enc: 8-3q~B3; dec: B3-8s")

    def test_decoder_must_mirror_encoder_stochs(self):
        with pytest.raises(ArchParseError):
            build_architecture("enc: 8-3s~B3; dec: B4-8s")

    def test_decoder_must_end_in_sigmoid(self):
        with pytest.raises(ArchParseError):
            build_architecture("enc: 8-3s~B3; dec: B3-8l")

    @pytest.mark.parametrize("arch", [
        "ctx: 3-4t-3s~B4; enc: 4-3s~B3; dec: B3-4s",
        "ctx: 3-4t-3s~B3-3s~B3; enc: 4-3s~B3; dec: B3-4s",
        "ctx: 0-4t-3s~B3; enc: 4-3s~B3; dec: B3-4s",
        "enc: 4-3s~B3; ctx: 3-4t-3s~B3; dec: B3-4s",
    ], ids=["not-the-top-latent", "two-stochastic-layers", "zero-width",
            "after-enc"])
    def test_bad_context_clause(self, arch):
        with pytest.raises(ArchParseError) as e:
            build_architecture(arch)
        assert isinstance(e.value.position, int)


class TestTrivialValues:
    def test_width_one_uniform_log_joint(self):
        pair = build_architecture("enc: 1-1s~B1; dec: B1-1s", dtype=np.float64)
        pair.lam[:] = 0.0
        lj = pair.gen.log_joint(np.array([1.0]), [np.array([1.0])])
        # p(h) = p(x|h) = 1/2
        assert lj == pytest.approx(np.log(0.25), abs=1e-12)

    def test_categorical_uniform_prior_term(self):
        pair = build_architecture("categorical-20x10", dtype=np.float64)
        pair.lam[:] = 0.0
        x = np.zeros(784)
        h = [np.zeros((20 * 10,))]
        h[0][np.arange(20) * 10] = 1.0  # first category in every group
        lj = pair.gen.log_joint(x, h)
        expect = 20 * np.log(0.1) + 784 * np.log(0.5)
        assert lj == pytest.approx(expect, abs=1e-9)

    def test_log_q_uniform_at_zero_params(self):
        pair = build_architecture("enc: 5-3s~B3; dec: B3-5s")
        pair.lam[:] = 0.0
        lq = pair.inf.log_q([np.array([1.0, 0.0, 1.0])],
                            np.array([1.0, 1.0, 0.0, 0.0, 1.0]))
        assert lq == pytest.approx(3 * np.log(0.5), abs=1e-12)

    def test_scalar_and_batched_rows_agree(self):
        pair = build_architecture("enc: 5-3s~B3; dec: B3-5s", seed=3)
        rng = np.random.default_rng(0)
        pair.lam[:] = rng.normal(size=pair.lam.size)
        X = (rng.random((4, 5)) < 0.5).astype(float)
        H = [(rng.random((4, 3)) < 0.5).astype(float)]
        batched = pair.gen.log_joint(X, H)
        for i in range(4):
            single = pair.gen.log_joint(X[i], [H[0][i]])
            assert single == pytest.approx(batched[i], abs=1e-12)
        bq = pair.inf.log_q(H, X)
        for i in range(4):
            assert pair.inf.log_q([H[0][i]], X[i]) == \
                pytest.approx(bq[i], abs=1e-12)


def logit(p):
    return np.log(p) - np.log1p(-p)


class TestLayerSpec:
    def test_bernoulli_log_mass(self):
        spec = StochasticLayerSpec.bernoulli(3)
        logits = logit(np.array([0.2, 0.5, 0.9]))
        vals = np.array([1.0, 0.0, 1.0])
        expect = np.log(0.2) + np.log(0.5) + np.log(0.9)
        assert spec.log_mass(logits, vals) == pytest.approx(expect, abs=1e-12)

    # (logits shape, values shape) in every layout the models use: latent
    # rows against one row per datapoint both ways, a free prior against
    # a batch, and single samples.
    LAYOUTS = [((4, 1, 6), (4, 5, 6)), ((4, 5, 6), (4, 1, 6)),
               ((6,), (9, 6)), ((6,), (6,))]

    @staticmethod
    def layout_case(probs_shape, values_shape, seed):
        rng = np.random.default_rng(seed)
        probs = rng.random(probs_shape)
        # Probabilities 1e-7 from either end, in more than one column.
        flat = probs.reshape(-1)
        flat[::3] = 1e-7
        flat[1::4] = 1.0 - 1e-7
        values = (rng.random(values_shape) < 0.5).astype(np.float64)
        return probs, logit(probs), values

    @pytest.mark.parametrize("probs_shape,values_shape", LAYOUTS)
    def test_bernoulli_log_mass_matches_two_log_form(self, probs_shape,
                                                     values_shape):
        spec = StochasticLayerSpec.bernoulli(6)
        probs, logits, values = self.layout_case(probs_shape, values_shape, 1)
        got = spec.log_mass(logits, values)
        expect = (values * np.log(probs)
                  + (1.0 - values) * np.log1p(-probs)).sum(axis=-1)
        assert np.shape(got) == np.shape(expect)
        assert np.all(np.abs(got - expect) <= 1e-12 * np.abs(expect))

    @pytest.mark.parametrize("probs_shape,values_shape", LAYOUTS)
    def test_bernoulli_logit_grad_is_values_minus_probs(self, probs_shape,
                                                        values_shape):
        spec = StochasticLayerSpec.bernoulli(6)
        probs, logits, values = self.layout_case(probs_shape, values_shape, 2)
        shape = np.broadcast_shapes(probs_shape, values_shape)
        weights = np.random.default_rng(3).random(shape[:-1] + (1,))
        got = spec.logit_grad(logits, values, weights)
        assert got.shape == shape
        np.testing.assert_allclose(got, (values - probs) * weights,
                                   rtol=1e-13, atol=4e-16)

    @pytest.mark.parametrize("spec", [StochasticLayerSpec.bernoulli(6),
                                      StochasticLayerSpec.categorical(2, 3)],
                             ids=["bernoulli", "categorical"])
    def test_logit_grad_matches_finite_diff(self, spec):
        rng = np.random.default_rng(5)
        values = np.stack([spec.sample(spec.probs(np.zeros(6)), rng)
                           for _ in range(4)])
        logits = rng.normal(scale=3.0, size=6)
        weights = rng.random((4, 1))
        got = spec.logit_grad(logits, values, weights).sum(axis=0)
        numeric = finite_diff_grad(
            lambda a: float(weights[:, 0] @ spec.log_mass(a, values)), logits)
        assert rel_err(got, numeric) < 1e-8

    @pytest.mark.parametrize("spec", [StochasticLayerSpec.bernoulli(12),
                                      StochasticLayerSpec.categorical(3, 4)],
                             ids=["bernoulli", "categorical"])
    def test_log_mass_exact_at_saturated_logits(self, spec):
        """Finite and exact to 1e-12 against np.logaddexp with logits up to
        +-800, where every probability rounds to 0 or 1."""
        rng = np.random.default_rng(6)
        logits = rng.uniform(-800.0, 800.0, size=(7, 12))
        logits[:, ::5] = 800.0
        logits[:, 1::5] = -800.0
        values = np.stack([spec.sample(spec.probs(np.zeros(12)), rng)
                           for _ in range(7)])
        got = spec.log_mass(logits, values)
        if spec.kind == "bernoulli":
            expect = -np.logaddexp(0.0, (1.0 - 2.0 * values) * logits).sum(-1)
        else:
            g = logits.reshape(7, 3, 4)
            expect = ((values * logits).sum(-1)
                      - np.logaddexp.reduce(g, axis=-1).sum(-1))
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0.0)

    def test_categorical_log_mass(self):
        spec = StochasticLayerSpec.categorical(2, 3)
        # Each group's logits hold a shift the softmax ignores.
        logits = np.log([0.5, 0.3, 0.2, 0.1, 0.1, 0.8]) + [3, 3, 3, -7, -7, -7]
        vals = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
        assert spec.log_mass(logits, vals) == \
            pytest.approx(np.log(0.3) + np.log(0.8), abs=1e-12)

    def test_domain_check_rejects_fractional(self):
        spec = StochasticLayerSpec.bernoulli(2)
        with pytest.raises(DomainError):
            spec.check_domain(np.array([0.5, 1.0]))

    def test_categorical_sample_is_one_hot(self):
        spec = StochasticLayerSpec.categorical(4, 5)
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(5), size=4).reshape(-1)
        for _ in range(50):
            v = spec.sample(probs, rng)
            groups = v.reshape(4, 5)
            assert np.array_equal(groups.sum(axis=1), np.ones(4))

    def test_bernoulli_sample_frequencies(self):
        spec = StochasticLayerSpec.bernoulli(3)
        rng = np.random.default_rng(7)
        probs = np.array([0.1, 0.5, 0.95])
        draws = np.stack([spec.sample(probs, rng) for _ in range(20000)])
        freq = draws.mean(axis=0)
        se = np.sqrt(probs * (1 - probs) / 20000)
        assert np.all(np.abs(freq - probs) <= 3 * se + 1e-9)

    @pytest.mark.parametrize("rows", [1, 7, 3 * DRAW_CHUNK // 200 + 5])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bernoulli_draw_reads_one_block_of_uniforms(self, rows, dtype):
        # Drawn into a new array, into the probabilities themselves, or at
        # a broadcast view, the chunked draw compares the doubles of one
        # rng.random(shape) call in order, and leaves the generator where
        # that call does.
        spec = StochasticLayerSpec.bernoulli(100)
        probs = np.random.default_rng(1).random((rows, 2, 100)).astype(dtype)
        wide = np.broadcast_to(probs[:, :1], probs.shape)
        for p, inplace in ((probs, False), (probs.copy(), True),
                           (wide, False)):
            ref_rng, rng = np.random.default_rng(2), np.random.default_rng(2)
            ref = (ref_rng.random(p.shape) < p).astype(dtype)
            v = spec.sample(p, rng, out=p if inplace else None)
            assert v.dtype == dtype and np.array_equal(v, ref)
            assert (v is p) == inplace
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_bernoulli_draw_in_place_holds_no_uniform_array(self):
        spec = StochasticLayerSpec.bernoulli(784)
        probs = np.random.default_rng(0).random((2000, 784))
        tracemalloc.start()
        try:
            spec.sample(probs, np.random.default_rng(1), out=probs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < probs.nbytes / 20
        assert set(np.unique(probs)) <= {0.0, 1.0}

    def test_categorical_draw_in_place_matches_a_new_array(self):
        spec = StochasticLayerSpec.categorical(4, 5)
        probs = np.random.default_rng(0).dirichlet(np.ones(5), size=(6, 4))
        probs = probs.reshape(6, 20).astype(np.float32)
        fresh = spec.sample(probs, np.random.default_rng(3))
        again = probs.copy()
        assert spec.sample(again, np.random.default_rng(3), out=again) is again
        assert fresh.dtype == np.float32 and np.array_equal(fresh, again)


class TestNormalization:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_q_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        pair = build_architecture("enc: 4-3s~B3; dec: B3-4s")
        pair.lam[:] = rng.normal(scale=1.5, size=pair.lam.size)
        x = (rng.random(4) < 0.5).astype(float)
        q = ev.exact_inference_table(pair.inf, x)
        assert q.sum() == pytest.approx(1.0, abs=1e-10)

    def test_joint_sums_to_one_over_x_and_h(self):
        # A conditional model's joint sums to one for each context c.
        for arch in ("enc: 3-4s~B4; dec: B4-3s", CONDITIONAL,
                     TWO_LAYER_CONDITIONAL):
            rng = np.random.default_rng(5)
            pair = build_architecture(arch, dtype=np.float64)
            pair.lam[:] = rng.normal(size=pair.lam.size)
            c = None
            if pair.context_width:
                c = (rng.random(pair.context_width) < 0.5).astype(float)
            support = ev.enumerate_support(pair.gen)
            n = pair.gen.obs_width
            total = 0.0
            for bits in range(2 ** n):
                x = np.array([(bits >> k) & 1 for k in range(n)], dtype=float)
                total += np.exp(ev.exact_log_likelihood(pair.gen, x, c,
                                                        support=support))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_conditional_q_sums_to_one(self):
        for arch in ("ctx: 3-5t-3s~B3; enc: 4-5t-3s~B3; dec: B3-5t-4s",
                     TWO_LAYER_CONDITIONAL):
            rng = np.random.default_rng(9)
            pair = build_architecture(arch)
            pair.lam[:] = rng.normal(size=pair.lam.size)
            x = (rng.random(4) < 0.5).astype(float)
            c = (rng.random(3) < 0.5).astype(float)
            q = ev.exact_inference_table(pair.inf, x, c)
            assert q.sum() == pytest.approx(1.0, abs=1e-10)


class TestSampling:
    def test_sample_q_frequencies_match_log_q(self):
        rng = np.random.default_rng(3)
        pair = build_architecture("enc: 5-3s~B3; dec: B3-5s")
        pair.lam[:] = rng.normal(size=pair.lam.size)
        x = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
        support = ev.enumerate_support(pair.gen)
        q = ev.exact_inference_table(pair.inf, x, support=support)

        n = 40000
        X = np.broadcast_to(x, (n, 5))
        h = pair.inf.sample_q(X, rng=rng)
        counts = np.zeros(support.size)
        for row in h[0]:
            counts[support.index_of([row])] += 1
        freq = counts / n
        se = np.sqrt(q * (1 - q) / n)
        assert np.all(np.abs(freq - q) <= 3 * se + 1e-9)

    def test_sample_joint_marginal_matches_enumeration(self):
        rng = np.random.default_rng(11)
        pair = build_architecture("enc: 3-3s~B3; dec: B3-3s")
        pair.lam[:] = rng.normal(size=pair.lam.size)
        support = ev.enumerate_support(pair.gen)
        px = np.zeros(8)
        for bits in range(8):
            x = np.array([(bits >> k) & 1 for k in range(3)], dtype=float)
            px[bits] = np.exp(ev.exact_log_likelihood(pair.gen, x,
                                                      support=support))
        n = 40000
        x, _ = pair.gen.sample_joint(rng, n=n)
        idx = (x.astype(int) * (1 << np.arange(3))).sum(axis=1)
        freq = np.bincount(idx, minlength=8) / n
        se = np.sqrt(px * (1 - px) / n)
        assert np.all(np.abs(freq - px) <= 3 * se + 1e-9)

    def test_sample_q_matches_input_ndim(self):
        pair = build_architecture("enc: 5-3s~B3; dec: B3-5s", seed=1)
        rng = np.random.default_rng(0)
        h1 = pair.inf.sample_q(np.zeros(5), rng=rng)
        assert h1[0].shape == (3,)
        h2 = pair.inf.sample_q(np.zeros((7, 5)), rng=rng)
        assert h2[0].shape == (7, 3)

    def test_extreme_params_keep_probs_in_domain(self):
        pair = build_architecture("enc: 5-3s~B3; dec: B3-5s")
        rng = np.random.default_rng(0)
        for value in (80.0, -80.0):
            pair.lam[:] = value
            logits = pair.inf.encoder_nets[0].forward(np.ones(5))[-1]
            probs = pair.layer_specs[0].probs(logits)
            assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
            h, lq = pair.inf.sample_q(np.ones(5), rng=rng, return_log_q=True)
            np.testing.assert_array_equal(h[0], value > 0)
            assert np.isfinite(lq)
            assert np.isfinite(pair.gen.log_joint(np.ones(5), h))


class TestGradients:
    @pytest.mark.parametrize("arch", [
        "enc: 5-3s~B3; dec: B3-5s",
        "enc: 5-4l-3s~B3; dec: B3-4l-5s",
        "enc: 5-3s~B3-2s~B2; dec: B2-3s~B3-5s",
        "enc: 5-4l-6~C2x3; dec: C2x3-4l-5s",
    ])
    def test_joint_gradient_matches_finite_diff(self, arch):
        rng = np.random.default_rng(hash(arch) % 2**31)
        pair = build_architecture(arch, dtype=np.float64)
        pair.lam[:] = rng.normal(scale=0.8, size=pair.lam.size)
        x = (rng.random(5) < 0.5).astype(float)
        h = []
        for spec in pair.layer_specs:
            if spec.kind == "bernoulli":
                h.append(rng.integers(0, 2, spec.width).astype(float))
            else:
                h.append(spec.sample(
                    np.full(spec.width, 1.0 / spec.n_categories), rng))
        analytic = pair.gen.grad_log_joint(x, h)
        numeric = finite_diff_grad(lambda _: pair.gen.log_joint(x, h),
                                   pair.theta)
        assert rel_err(analytic, numeric) < 1e-6

        analytic = pair.inf.grad_log_q(h, x)
        numeric = finite_diff_grad(lambda _: pair.inf.log_q(h, x), pair.phi)
        assert rel_err(analytic, numeric) < 1e-6

    def test_conditional_gradients_match_finite_diff(self):
        for arch in (CONDITIONAL, TWO_LAYER_CONDITIONAL):
            rng = np.random.default_rng(17)
            pair = build_architecture(arch, dtype=np.float64)
            pair.lam[:] = rng.normal(scale=0.8, size=pair.lam.size)
            x = (rng.random(4) < 0.5).astype(float)
            c = (rng.random(3) < 0.5).astype(float)
            h = [rng.integers(0, 2, s.width).astype(float)
                 for s in pair.layer_specs]
            analytic = pair.gen.grad_log_joint(x, h, c)
            numeric = finite_diff_grad(lambda _: pair.gen.log_joint(x, h, c),
                                       pair.theta)
            assert rel_err(analytic, numeric) < 1e-6
            analytic = pair.inf.grad_log_q(h, x, c)
            numeric = finite_diff_grad(lambda _: pair.inf.log_q(h, x, c),
                                       pair.phi)
            assert rel_err(analytic, numeric) < 1e-6

    def test_saturated_decoder_logits_keep_their_gradient(self):
        """Decoder logits near +40, where the sigmoid rounds to 1: log p(x, h)
        equals an np.logaddexp reference, and its gradient matches central
        differences (pixels that are off contribute about -1 each)."""
        rng = np.random.default_rng(29)
        pair = build_architecture("enc: 5-3s~B3; dec: B3-5s", dtype=np.float64)
        pair.lam[:] = rng.normal(scale=0.1, size=pair.lam.size)
        dec = pair.gen.decoder_nets[0].layers[0]
        dec.b[:] = 40.0
        x = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        h = [np.array([1.0, 0.0, 1.0])]

        def reference():
            a = h[0] @ dec.W + dec.b
            prior = pair.gen.prior_logits
            return -(np.logaddexp(0.0, (1.0 - 2.0 * x) * a).sum()
                     + np.logaddexp(0.0, (1.0 - 2.0 * h[0]) * prior).sum())

        assert pair.gen.log_joint(x, h) == pytest.approx(reference(),
                                                         rel=1e-12)
        analytic = pair.gen.grad_log_joint(x, h)
        numeric = finite_diff_grad(lambda _: pair.gen.log_joint(x, h),
                                   pair.theta)
        assert rel_err(analytic, numeric) < 1e-6
        bias = analytic[-5:]
        np.testing.assert_allclose(bias, x - 1.0, atol=1e-12)

    @pytest.mark.parametrize("group", [1, 3])
    @pytest.mark.parametrize("make", [
        lambda: build_architecture("enc: 5-3s~B3; dec: B3-5s", seed=2,
                                   dtype=np.float64),
        lambda: build_architecture("enc: 5-4l-6~C2x3; dec: C2x3-4l-5s",
                                   seed=2, dtype=np.float64),
        lambda: build_architecture("enc: 5-3s~B3-2s~B2; dec: B2-3s~B3-5s",
                                   seed=2, dtype=np.float64),
        lambda: build_architecture(
            "ctx: 3-4t-3s~B3; enc: 5-4t-3s~B3; dec: B3-4t-5s", seed=2,
            dtype=np.float64),
        lambda: build_architecture(TWO_LAYER_CONDITIONAL, seed=2,
                                   dtype=np.float64),
    ], ids=["bernoulli-prior", "categorical-prior", "two-layers",
            "conditional", "conditional-two-layers"])
    def test_weighted_batch_gradient_is_weighted_sum(self, make, group):
        # x (and c) once per datapoint, h as `group` rows per datapoint: both
        # directions score and differentiate the batch as they do its rows
        # one at a time, each row with its datapoint's x repeated.
        rng = np.random.default_rng(23)
        pair = make()
        pair.lam[:] = rng.normal(size=pair.lam.size)
        m = 3
        X = (rng.random((m, pair.gen.obs_width)) < 0.5).astype(float)
        C = None
        if pair.context_width:
            C = (rng.random((m, pair.context_width)) < 0.5).astype(float)
        H = pair.inf.sample_q(X, C, rng=rng, n_samples=group)
        w = rng.random(m * group)
        gen, inf = pair.gen, pair.inf
        directions = [
            (gen.log_joint, gen.grad_log_joint),
            (lambda x, h, c: inf.log_q(h, x, c),
             lambda x, h, c, **kw: inf.grad_log_q(h, x, c, **kw)),
        ]
        for score, grad in directions:
            scores = score(X, H, C)
            batched = grad(X, H, C, weights=w)
            manual = np.zeros_like(batched)
            for i in range(m * group):
                x = X[i // group]
                c = None if C is None else C[i // group]
                h = [hk[i] for hk in H]
                assert score(x, h, c) == pytest.approx(scores[i], abs=1e-12)
                manual += w[i] * grad(x, h, c)
            assert rel_err(batched, manual) < 1e-10

    def test_score_identity(self):
        # E_q[grad_phi log q] = 0; grouped-mean z-test
        rng = np.random.default_rng(29)
        pair = build_architecture("enc: 4-3s~B3; dec: B3-4s")
        pair.lam[:] = rng.normal(scale=0.7, size=pair.lam.size)
        x = np.array([1.0, 0.0, 1.0, 1.0])
        X = np.broadcast_to(x, (400, 4))
        means = []
        for _ in range(60):
            h = pair.inf.sample_q(X, rng=rng)
            means.append(pair.inf.grad_log_q(h, X,
                                             weights=np.full(400, 1 / 400)))
        means = np.stack(means)
        se = means.std(axis=0, ddof=1) / np.sqrt(60)
        z = np.abs(means.mean(axis=0)) / np.maximum(se, 1e-12)
        assert z.max() < 4.5

    def test_fisher_identity_on_one_model(self):
        rng = np.random.default_rng(31)
        pair = build_architecture("enc: 5-3s~B3; dec: B3-5s", dtype=np.float64)
        pair.lam[:] = rng.normal(size=pair.lam.size)
        x = (rng.random(5) < 0.5).astype(float)
        assert ev.fisher_identity_check(pair.gen, x) < 1e-6


class TestInputChecks:
    """Scoring and gradient calls of both models run one check, so the
    inference side rejects what the generative side rejects."""

    @pytest.mark.parametrize("name", ["log_joint", "grad_log_joint", "log_q",
                                      "grad_log_q"])
    def test_bad_inputs_rejected(self, name):
        pair = build_architecture(CONDITIONAL, seed=1)
        method = getattr(pair.gen if "joint" in name else pair.inf, name)
        call = method if "joint" in name else (
            lambda x, h, c: method(h, x, c))
        x, h, c = np.ones(4), [np.ones(3)], np.ones(3)
        call(x, h, c)
        for args, match in [((x, h, np.ones(2)), "context width"),
                            ((x, h, None), "context c required"),
                            ((x[None], h, c[None]), "all 1D or all 2D"),
                            ((np.ones(5), h, c), "observation width"),
                            ((x, [np.ones(2)], c), "latent layer width")]:
            with pytest.raises(ShapeError, match=match):
                call(*args)
        with pytest.raises(DomainError):
            call(x, [np.full(3, 0.5)], c)

    def test_sampling_checks_the_context(self):
        rng = np.random.default_rng(0)
        cond = build_architecture(CONDITIONAL, seed=1)
        free = build_architecture("enc: 4-3s~B3; dec: B3-4s", seed=1)
        x, c3, c5 = np.ones((2, 4)), np.ones((2, 3)), np.ones((2, 5))
        for draw, match in [
                (lambda: cond.gen.sample_joint(rng, c=c5), "context width"),
                (lambda: cond.inf.sample_q(x, c5, rng=rng), "context width"),
                (lambda: free.gen.sample_joint(rng, c=c3), "unconditional"),
                (lambda: free.inf.sample_q(x, c3, rng=rng), "unconditional")]:
            with pytest.raises(ShapeError, match=match):
                draw()


class TestGradientBuffer:
    """The gradient methods write every entry of a caller's out buffer
    (which starts as NaN here, standing in for np.empty's garbage) with
    the values of a fresh call."""

    @staticmethod
    def nets(pair):
        gen, inf = pair.gen, pair.inf
        return ([gen.prior_net] if gen.prior_net is not None else []) \
            + gen.decoder_nets + inf.encoder_nets

    @pytest.mark.parametrize("make", [
        lambda: build_architecture("linear", seed=1),
        lambda: build_architecture("two-layers", seed=1),
        lambda: build_architecture("categorical-20x10", seed=1),
        lambda: build_architecture("enc: 5-4l-6~C2x3; dec: C2x3-4l-5s",
                                   seed=1),
        lambda: build_architecture(CONDITIONAL, seed=1),
    ], ids=["linear", "two-layers", "categorical-20x10", "free-prior",
            "conditional"])
    def test_out_is_filled_and_equals_fresh_result(self, make):
        pair = make()
        rng = np.random.default_rng(3)
        m, K = 3, 2
        X = (rng.random((m, pair.gen.obs_width)) < 0.5).astype(float)
        C = None
        if pair.context_width:
            C = (rng.random((m, pair.context_width)) < 0.5).astype(float)
        H, _, qa = pair.inf.sample_q(X, C, rng=rng, n_samples=K,
                                     return_acts=True)
        _, pa = pair.gen.log_joint(X, H, C, return_acts=True)
        w = rng.random(m * K)
        calls = [
            (pair.gen.n_params,
             lambda out: pair.gen.grad_log_joint(X, H, C, weights=w, acts=pa,
                                                 out=out)),
            (pair.inf.n_params,
             lambda out: pair.inf.grad_log_q(H, X, C, weights=w, acts=qa,
                                             out=out)),
        ]
        for net in self.nets(pair):
            acts = net.forward(rng.random((m, net.in_dim)))
            G = rng.normal(size=acts[-1].shape)
            calls.append((net.n_params,
                          lambda out, net=net, acts=acts, G=G:
                          net.backward(acts, G, out=out)))
        for n, call in calls:
            out = np.full(n, np.nan, dtype=pair.dtype)
            assert call(out) is out
            assert np.isfinite(out).all()
            fresh = call(None)
            assert np.array_equal(out, fresh)
            assert call(None) is not fresh

    def test_out_of_wrong_size_rejected(self):
        pair = build_architecture("enc: 5-3s~B3; dec: B3-5s")
        x, h = np.ones(5), [np.ones(3)]
        with pytest.raises(ShapeError):
            pair.gen.grad_log_joint(x, h, out=np.empty(pair.n_theta + 1))
        with pytest.raises(ShapeError):
            pair.inf.grad_log_q(h, x, out=np.empty(pair.lam.size))


class TestModelPair:
    def test_theta_phi_alias_lam(self):
        pair = build_architecture("enc: 5-3s~B3; dec: B3-5s", seed=0)
        pair.theta[:] = 1.25
        pair.phi[:] = -0.5
        assert np.all(pair.lam[:pair.n_theta] == 1.25)
        assert np.all(pair.lam[pair.n_theta:] == -0.5)
        pair.lam[:] = 0.0
        assert np.all(pair.theta == 0.0) and np.all(pair.phi == 0.0)

    def test_set_lam_rejects_wrong_size(self):
        pair = build_architecture("enc: 5-3s~B3; dec: B3-5s")
        with pytest.raises(ShapeError):
            pair.set_lam(np.zeros(pair.lam.size + 1))

    def test_copy_lam_is_detached(self):
        pair = build_architecture("enc: 5-3s~B3; dec: B3-5s", seed=4)
        snap = pair.copy_lam()
        pair.lam[:] += 1.0
        assert not np.allclose(snap, pair.lam)

    def test_seed_none_draws_no_parameters(self):
        for dtype in (np.float32, np.float64):
            pair = build_architecture("nonlinear", seed=None, dtype=dtype)
            assert pair.dtype == dtype and not pair.lam.any()

    def test_same_seed_same_init(self):
        a = build_architecture("nonlinear", seed=8)
        b = build_architecture("nonlinear", seed=8)
        assert np.array_equal(a.lam, b.lam)
        c = build_architecture("nonlinear", seed=9)
        assert not np.array_equal(a.lam, c.lam)


class TestDtypes:
    """lam's dtype is the dtype of the models' arithmetic: float32 by
    default, float64 for the exact and finite-difference oracles."""

    # Measured over seeds 0-2 of every preset, the float32 results lie
    # within 5 float32 epsilons of float64's (relative to the largest
    # entry); the bound allows 16.
    TOL = 16 * np.finfo(np.float32).eps

    def test_float32_init_is_the_float64_init_rounded(self):
        for name in PRESETS:
            ref = build_architecture(name, seed=5, dtype=np.float64)
            pair = build_architecture(name, seed=5)
            assert pair.dtype == np.float32
            assert np.array_equal(pair.lam, ref.lam.astype(np.float32))

    @pytest.mark.parametrize("name", PRESETS)
    def test_float32_agrees_with_float64(self, name):
        rng = np.random.default_rng(3)
        p64 = build_architecture(name, seed=3, dtype=np.float64)
        p64.lam[:] = rng.normal(scale=0.05, size=p64.lam.size)
        p32 = build_architecture(name, seed=3)
        p32.set_lam(p64.lam)
        m, K = 4, 3
        X = (rng.random((m, p64.gen.obs_width)) < 0.5).astype(np.float64)
        C = None
        if p64.context_width:
            C = (rng.random((m, p64.context_width)) < 0.5).astype(np.float64)
        H = p64.inf.sample_q(X, C, rng=rng, n_samples=K)
        w = rng.random(m * K)
        X32 = X.astype(np.float32)
        C32 = None if C is None else C.astype(np.float32)
        H32 = [h.astype(np.float32) for h in H]
        pairs = [
            (p32.gen.log_joint(X32, H32, C32), p64.gen.log_joint(X, H, C)),
            (p32.inf.log_q(H32, X32, C32), p64.inf.log_q(H, X, C)),
            (p32.gen.grad_log_joint(X32, H32, C32, weights=w),
             p64.gen.grad_log_joint(X, H, C, weights=w)),
            (p32.inf.grad_log_q(H32, X32, C32, weights=w),
             p64.inf.grad_log_q(H, X, C, weights=w)),
        ]
        for low, high in pairs:
            assert low.dtype == np.float32
            assert ev.rel_deviation(low, high) <= self.TOL
