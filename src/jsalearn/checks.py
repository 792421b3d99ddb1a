"""Randomized verification checks over tiny enumerable models.

These power the CLI self-test command and the acceptance test-suite. Every
check draws its models from a seeded generator, so a given seed always
produces the same verdicts. Checks compare the production code paths
(analytic gradients, samplers, estimators) against independent oracles
(finite differences, exact enumeration), never against themselves. Every
model they build is float64, as finite differences and exact enumeration
need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evaluation as ev
from . import jsa
from .models import PRESETS, ModelPair, build_architecture
from .ndnet import AdamState, adam_step, finite_diff_grad

TINY_FAMILIES = ("linear", "nonlinear", "two-layers", "categorical",
                 "structured")


def tiny_pair(family: str, rng, scale: float = 0.8) -> ModelPair:
    """A small random float64 model of the given architecture family: same
    layer structure as the full-size preset, desk-scale widths, normal
    parameters."""
    def r(lo, hi):
        return int(rng.integers(lo, hi + 1))

    if family == "linear":
        obs, lat = r(3, 6), r(2, 4)
        arch = f"enc: {obs}-{lat}s~B{lat}; dec: B{lat}-{obs}s"
    elif family == "nonlinear":
        obs, h1, h2, lat = r(3, 6), r(3, 5), r(3, 5), r(2, 4)
        arch = (f"enc: {obs}-{h1}l-{h2}l-{lat}s~B{lat}; "
                f"dec: B{lat}-{h2}l-{h1}l-{obs}s")
    elif family == "two-layers":
        obs, l0, l1 = r(3, 6), r(2, 4), r(2, 3)
        arch = (f"enc: {obs}-{l0}s~B{l0}-{l1}s~B{l1}; "
                f"dec: B{l1}-{l0}s~B{l0}-{obs}s")
    elif family == "categorical":
        obs, h1, nv, nc = r(3, 6), r(3, 5), r(2, 3), r(2, 3)
        arch = (f"enc: {obs}-{h1}l-{nv * nc}~C{nv}x{nc}; "
                f"dec: C{nv}x{nc}-{h1}l-{obs}s")
    elif family == "structured":
        obs, ctx, lat, h1 = r(3, 5), r(2, 4), r(2, 4), r(3, 5)
        arch = (f"ctx: {ctx}-{h1}t-{lat}s~B{lat}; "
                f"enc: {obs}-{h1}t-{lat}s~B{lat}; dec: B{lat}-{h1}t-{obs}s")
    else:
        raise ValueError(f"unknown family '{family}'")
    pair = build_architecture(arch, seed=None, dtype=np.float64)
    pair.lam[:] = rng.normal(scale=scale, size=pair.lam.size)
    return pair


def random_obs(pair: ModelPair, rng):
    x = (rng.random(pair.gen.obs_width) < 0.5).astype(np.float64)
    c = None
    if pair.context_width:
        c = (rng.random(pair.context_width) < 0.5).astype(np.float64)
    return x, c


def random_latents(pair: ModelPair, rng):
    h = []
    for spec in pair.layer_specs:
        if spec.kind == "bernoulli":
            h.append(rng.integers(0, 2, spec.width).astype(np.float64))
        else:
            probs = np.full(spec.width, 1.0 / spec.n_categories)
            h.append(spec.sample(probs, rng))
    return h


def subset_finite_diff(scalar_fn, params, coords, eps=1e-5):
    """Central differences on a chosen coordinate subset only."""
    out = np.zeros(len(coords))
    flat = params.reshape(-1)
    for k, i in enumerate(coords):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = scalar_fn()
        flat[i] = orig - eps
        f_minus = scalar_fn()
        flat[i] = orig
        out[k] = (f_plus - f_minus) / (2.0 * eps)
    return out


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _worst(worst, *values):
    """max(worst, *values), except that a NaN wins: max() would drop it
    and report a broken quantity as perfect agreement."""
    for v in values:
        if v > worst or v != v:
            worst = v
    return worst


# ---------------------------------------------------------------------------
# Individual checks


def check_gradient_agreement(seed=0, instances_per_family=20,
                             tol=1e-4) -> CheckResult:
    """Analytic joint/posterior gradients vs full finite differences on
    random tiny instances of every architecture family."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for family in TINY_FAMILIES:
        for _ in range(instances_per_family):
            pair = tiny_pair(family, rng)
            x, c = random_obs(pair, rng)
            h = random_latents(pair, rng)

            analytic = pair.gen.grad_log_joint(x, h, c)
            numeric = finite_diff_grad(
                lambda _: pair.gen.log_joint(x, h, c), pair.theta)
            worst = _worst(worst, ev.rel_deviation(analytic, numeric))

            analytic = pair.inf.grad_log_q(h, x, c)
            numeric = finite_diff_grad(
                lambda _: pair.inf.log_q(h, x, c), pair.phi)
            worst = _worst(worst, ev.rel_deviation(analytic, numeric))
    return CheckResult("gradient-agreement", worst <= tol,
                       f"max rel deviation {worst:.3e} (tol {tol:.0e})")


def check_preset_gradient_spot(seed=0, n_coords=40, tol=1e-4) -> CheckResult:
    """Finite-difference spot check of a random coordinate subset on every
    full-size preset (full finite differences would take hours there)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in PRESETS:
        pair = build_architecture(name, seed=None, dtype=np.float64)
        pair.lam[:] = rng.normal(scale=0.05, size=pair.lam.size)
        x, c = random_obs(pair, rng)
        h = random_latents(pair, rng)

        coords = rng.choice(pair.n_theta, size=n_coords, replace=False)
        analytic = pair.gen.grad_log_joint(x, h, c)[coords]
        numeric = subset_finite_diff(
            lambda: pair.gen.log_joint(x, h, c), pair.theta, coords)
        worst = _worst(worst, ev.rel_deviation(analytic, numeric))

        coords = rng.choice(pair.n_phi, size=n_coords, replace=False)
        analytic = pair.inf.grad_log_q(h, x, c)[coords]
        numeric = subset_finite_diff(
            lambda: pair.inf.log_q(h, x, c), pair.phi, coords)
        worst = _worst(worst, ev.rel_deviation(analytic, numeric))
    return CheckResult("preset-gradient-spot", worst <= tol,
                       f"max rel deviation {worst:.3e} over coordinate subsets")


def check_normalization(seed=0, n_models=10, tol_q=1e-10,
                        tol_joint=1e-8) -> CheckResult:
    """sum_h q(h|x) must be 1 and sum_{x,h} p(x,h) must be 1 on tiny models."""
    rng = np.random.default_rng(seed)
    worst_q = worst_j = 0.0
    for _ in range(n_models):
        family = TINY_FAMILIES[int(rng.integers(len(TINY_FAMILIES)))]
        pair = tiny_pair(family, rng)
        x, c = random_obs(pair, rng)
        support = ev.enumerate_support(pair.gen)
        q = ev.exact_inference_table(pair.inf, x, c, support)
        worst_q = _worst(worst_q, abs(float(q.sum()) - 1.0))

        obs_w = pair.gen.obs_width
        all_x = np.array(np.meshgrid(*[[0.0, 1.0]] * obs_w)
                         ).T.reshape(-1, obs_w)
        total = 0.0
        for xv in all_x:
            total += np.exp(ev.exact_log_likelihood(pair.gen, xv, c, support))
        worst_j = _worst(worst_j, abs(total - 1.0))
    ok = worst_q <= tol_q and worst_j <= tol_joint
    return CheckResult("normalization", ok,
                       f"max |sum q - 1| {worst_q:.2e}, "
                       f"max |sum p - 1| {worst_j:.2e}")


def check_fisher_identity(seed=0, n_models=20, tol=1e-4) -> CheckResult:
    """Posterior-averaged joint gradient vs finite-difference marginal
    gradient on random enumerable models."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        family = TINY_FAMILIES[int(rng.integers(len(TINY_FAMILIES)))]
        pair = tiny_pair(family, rng)
        x, c = random_obs(pair, rng)
        worst = _worst(worst, ev.fisher_identity_check(pair.gen, x, c))
    return CheckResult("fisher-identity", worst <= tol,
                       f"max rel deviation {worst:.3e} over {n_models} models")


def check_score_identity(seed=0, n_models=3, n_groups=100,
                         group_size=500, z_tol=4.5) -> CheckResult:
    """E_q[grad_phi log q] must vanish. Estimated by grouped sample means;
    the largest per-coordinate z-score should look like noise."""
    rng = np.random.default_rng(seed)
    worst_z = 0.0
    for _ in range(n_models):
        family = TINY_FAMILIES[int(rng.integers(len(TINY_FAMILIES)))]
        pair = tiny_pair(family, rng)
        x, c = random_obs(pair, rng)
        X, C = ev.one_datapoint(x, c)
        means = []
        for _ in range(n_groups):
            h = pair.inf.sample_q(X, C, rng=rng, n_samples=group_size)
            means.append(pair.inf.grad_log_q(
                h, X, C, weights=np.full(group_size, 1.0 / group_size)))
        means = np.stack(means)
        se = means.std(axis=0, ddof=1) / np.sqrt(n_groups)
        z = np.abs(means.mean(axis=0)) / np.maximum(se, 1e-12)
        worst_z = _worst(worst_z, float(z.max()))
    return CheckResult("score-identity", worst_z <= z_tol,
                       f"max |z| {worst_z:.2f} (tol {z_tol})")


def check_detailed_balance(seed=0, n_models=5, tol=1e-10) -> CheckResult:
    """The analytic sampler kernel must satisfy detailed balance w.r.t. the
    exact posterior, and rows must sum to one."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        family = TINY_FAMILIES[int(rng.integers(len(TINY_FAMILIES)))]
        pair = tiny_pair(family, rng)
        x, c = random_obs(pair, rng)
        support = ev.enumerate_support(pair.gen)
        post = ev.exact_posterior(pair.gen, x, c, support)
        K = ev.mis_transition_matrix(pair, x, c, support)
        flow = post[:, None] * K
        worst = _worst(worst, float(np.abs(flow - flow.T).max()),
                       float(np.abs(K.sum(axis=1) - 1.0).max()))
    return CheckResult("mis-detailed-balance", worst <= tol,
                       f"max asymmetry {worst:.2e} (tol {tol:.0e})")


def check_mis_invariance(seed=0, n_models=5, n_steps=1_000_000,
                         tol=0.01, accept_rule=None, max_chi2=0.1,
                         name="mis-invariance") -> CheckResult:
    """Long-run occupancy of the sampler chain vs the exact posterior, in
    total variation.

    Models are drawn with a certified weight-variance bound (max_chi2) by
    default: the same dispersion that controls importance-sampling error
    controls how fast an independence sampler mixes, so the certificate is
    what makes a fixed step budget sufficient for the stated tolerance at
    any seed. Pass max_chi2=None for unconditioned draws (the corrupted-rule
    self-test needs them: on a certified model the proposal is already close
    to the posterior, so a broken sampler would be hard to notice).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        if max_chi2 is not None:
            pair, x, c = well_conditioned_pair(rng, max_chi2=max_chi2)
        else:
            family = TINY_FAMILIES[int(rng.integers(len(TINY_FAMILIES)))]
            pair = tiny_pair(family, rng)
            x, c = random_obs(pair, rng)
        support = ev.enumerate_support(pair.gen)
        post = ev.exact_posterior(pair.gen, x, c, support)
        counts = jsa.run_mis_chain(pair, x, n_steps, rng, c=c,
                                   support=support, accept_rule=accept_rule)
        tv = 0.5 * float(np.abs(counts / counts.sum() - post).sum())
        worst = _worst(worst, tv)
    return CheckResult(name, worst <= tol,
                       f"max TV {worst:.4f} over {n_models} chains "
                       f"of {n_steps} steps (tol {tol})")


def check_mutation_detection(seed=0, n_steps=300_000) -> CheckResult:
    """Self-test of the invariance check: with a deliberately corrupted
    acceptance rule (accept everything) the check must FAIL, otherwise it
    could not catch a broken sampler."""
    corrupted = check_mis_invariance(
        seed=seed, n_models=3, n_steps=n_steps, tol=0.01,
        accept_rule=lambda delta, rng: True, max_chi2=None, name="corrupted")
    return CheckResult(
        "mutation-detection", not corrupted.passed,
        f"corrupted acceptance rule was {'caught' if not corrupted.passed else 'MISSED'}"
        f" ({corrupted.detail})")


def relative_weight_variance(pair: ModelPair, x, c=None, support=None):
    """Var_q[w]/Z^2 for w = p(x,h)/q(h|x), computed by enumeration. This is
    the quantity that controls importance-sampling error, so checks with a
    fixed sample budget precondition their model draws on it."""
    support = support or ev.enumerate_support(pair.gen)
    post = ev.exact_posterior(pair.gen, x, c, support)
    q = ev.exact_inference_table(pair.inf, x, c, support)
    return float((post ** 2 / np.maximum(q, 1e-300)).sum() - 1.0)


def well_conditioned_pair(rng, scale=0.35, max_chi2=0.1, max_tries=200):
    """Draws tiny models until the proposal's relative weight variance is
    below max_chi2 (certified exactly). Roughly one in five draws passes."""
    for _ in range(max_tries):
        family = TINY_FAMILIES[int(rng.integers(len(TINY_FAMILIES)))]
        pair = tiny_pair(family, rng, scale=scale)
        x, c = random_obs(pair, rng)
        if relative_weight_variance(pair, x, c) <= max_chi2:
            return pair, x, c
    raise RuntimeError("no well-conditioned model found")


def check_snis_consistency(seed=0, n_models=5, n_particles=20_000,
                           tol=1e-2) -> CheckResult:
    """Self-normalized importance estimates of posterior latent means vs
    exact enumeration, on models with certified weight variance."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        pair, x, c = well_conditioned_pair(rng)
        support = ev.enumerate_support(pair.gen)
        post = ev.exact_posterior(pair.gen, x, c, support)
        exact_mean = post @ support.layers[0]

        X, C = ev.one_datapoint(x, c)
        h, logw = ev.importance_sample(pair, X, C, rng,
                                       n_samples=n_particles)
        wn = np.exp(logw - ev.logsumexp(logw))
        snis_mean = wn @ h[0]
        worst = _worst(worst, float(np.abs(snis_mean - exact_mean).max()))
    return CheckResult("snis-consistency", worst <= tol,
                       f"max deviation {worst:.4f} (tol {tol})")


def check_estimator_consistency(seed=0, n_models=10, n_samples=10_000,
                                tol=0.01) -> CheckResult:
    """Importance-sampled NLL vs the exact marginal on enumerable models,
    plus the degenerate case: when q equals the posterior exactly, the
    importance weights are constant and the estimate is exact at any N."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        pair, x, c = well_conditioned_pair(rng)
        exact = -ev.exact_log_likelihood(pair.gen, x, c)
        est = ev.dataset_nll(pair, x[None], None if c is None else c[None],
                             n_samples=n_samples, rng=rng)
        worst = _worst(worst, abs(est - exact))

    # q == posterior by construction: zero decoder/encoder weights make x
    # and h independent, so the posterior is the prior; pointing the
    # encoder bias at the prior logits reproduces it bit-for-bit.
    pair = build_architecture("enc: 5-3s~B3; dec: B3-5s", dtype=np.float64)
    pair.lam[:] = 0.0
    pair.gen.prior_logits[:] = rng.normal(scale=1.0, size=3)
    pair.gen.decoder_nets[0].layers[0].b[:] = rng.normal(scale=1.0, size=5)
    pair.inf.encoder_nets[0].layers[0].b[:] = pair.gen.prior_logits
    x = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    X = np.broadcast_to(x, (64, 5))
    _, logw = ev.importance_sample(pair, X, rng=rng)
    w_spread = float(logw.max() - logw.min())
    exact = -ev.exact_log_likelihood(pair.gen, x)
    est = ev.dataset_nll(pair, x[None], n_samples=64, rng=rng)
    degen_dev = abs(est - exact)
    ok = worst <= tol and w_spread <= 1e-12 and degen_dev <= 1e-9
    return CheckResult(
        "estimator-consistency", ok,
        f"max |IS-NLL - exact| {worst:.4f} nats (tol {tol}); "
        f"matched-posterior weight spread {w_spread:.1e}, dev {degen_dev:.1e}")


def run_oracle_suite(seed=0, quick=False):
    """The full randomized check battery; returns a list of CheckResult."""
    steps = 200_000 if quick else 1_000_000
    inst = 5 if quick else 20
    return [
        check_gradient_agreement(seed, instances_per_family=inst),
        check_preset_gradient_spot(seed, n_coords=10 if quick else 40),
        check_normalization(seed, n_models=4 if quick else 10),
        check_fisher_identity(seed, n_models=5 if quick else 20),
        check_score_identity(seed, n_models=1 if quick else 3),
        check_detailed_balance(seed, n_models=2 if quick else 5),
        check_mis_invariance(seed, n_models=2 if quick else 5, n_steps=steps,
                             tol=0.02 if quick else 0.01),
        check_mutation_detection(seed, n_steps=100_000 if quick else 300_000),
        check_snis_consistency(seed, n_models=2 if quick else 5),
        check_estimator_consistency(seed, n_models=3 if quick else 10),
    ]


# ---------------------------------------------------------------------------
# Exact maximum-likelihood oracle


def exact_ml_fit(gen, items, iters=1500, lr=0.05, support=None) -> float:
    """Fits the generative parameters by Adam ascent on the exact
    log-likelihood (gradients via posterior-weighted joint gradients over
    the enumerated support). Returns the final mean NLL. Mutates gen."""
    support = support or ev.enumerate_support(gen)
    n, S = items.shape[0], support.size
    X_all = np.repeat(items, S, axis=0)
    H_all = [np.tile(lay, (n, 1)) for lay in support.layers]
    adam = AdamState.for_size(gen.n_params, lr=lr, dtype=gen.params.dtype)
    for _ in range(iters):
        lj = gen.log_joint(X_all, H_all).reshape(n, S)
        post = np.exp(lj - ev.logsumexp(lj, axis=1, keepdims=True))
        g = gen.grad_log_joint(X_all, H_all, weights=post.reshape(-1) / n)
        adam_step(gen.params, g, adam)
    lj = gen.log_joint(X_all, H_all).reshape(n, S)
    return float(-ev.logsumexp(lj, axis=1).mean())
