"""Acceptance gate: ten numbered end-to-end criteria.

Each test produces one CRITERION NN PASS/FAIL line — replayed in the
terminal summary via conftest so the verdicts survive output capture — and
then asserts. Criterion 9 runs at full corpus scale and is deselected by
default; select it with -m paper_scale when the digit files and the
compute budget are available.
"""

import time

import numpy as np
import pytest
from conftest import record_verdict

from jsalearn import checks, data
from jsalearn import evaluation as ev
from jsalearn import jsa
from jsalearn.models import build_architecture


def report(num, slug, passed, detail):
    record_verdict(f"CRITERION {num:02d} {'PASS' if passed else 'FAIL'}  "
                   f"{slug}: {detail}")


def test_criterion_01_gradients_match_finite_differences():
    t0 = time.perf_counter()
    full = checks.check_gradient_agreement(seed=0, instances_per_family=20,
                                           tol=1e-4)
    spot = checks.check_preset_gradient_spot(seed=0, tol=1e-4)
    dt = time.perf_counter() - t0
    ok = full.passed and spot.passed and dt < 60.0
    report(1, "gradients vs finite differences",
           ok, f"{full.detail}; full-size spot: {spot.detail}; {dt:.1f}s")
    assert ok


def test_criterion_02_marginal_gradient_identity():
    t0 = time.perf_counter()
    res = checks.check_fisher_identity(seed=1, n_models=20, tol=1e-4)
    dt = time.perf_counter() - t0
    report(2, "posterior-averaged joint gradient equals marginal gradient",
           res.passed, f"{res.detail}; {dt:.1f}s")
    assert res.passed


def test_criterion_03_sampler_leaves_posterior_invariant():
    t0 = time.perf_counter()
    inv = checks.check_mis_invariance(seed=2, n_models=5,
                                      n_steps=1_000_000, tol=0.01)
    bal = checks.check_detailed_balance(seed=2, n_models=5, tol=1e-10)
    dt = time.perf_counter() - t0
    ok = inv.passed and bal.passed and dt < 120.0
    report(3, "million-step chain occupancy and reversibility",
           ok, f"{inv.detail}; {bal.detail}; {dt:.1f}s")
    assert ok


def test_criterion_04_stochastic_approximation_error_scaling():
    # SAEM's running average s_t = s_{t-1} + (g_t - s_{t-1}) / t of the
    # production update's ascent buffer g_t, with lam frozen. Once the
    # cached chains are stationary, g_t is unbiased for the posterior means
    # of grad_theta log p(x,h) and grad_phi log q(h|x), so the RMS error of
    # s_t must fall like T^(-1/2). Chains started afresh at every visit are
    # pulled towards q, so their average stalls: the check can fail.
    arch = "enc: 8-3s~B3; dec: B3-8s"
    m = 20   # at m = 5 one stream's slope spreads across the whole band
    t0 = time.perf_counter()
    ds, _ = data.synthetic_dataset(arch, n=m, seed=3)
    pair = build_architecture(arch, dtype=np.float64)
    pair.lam[:] = np.random.default_rng(2).normal(scale=0.8,
                                                  size=pair.lam.size)
    sup = ev.enumerate_support(pair.gen)
    target = np.zeros_like(pair.lam)
    for x in ds.items:
        w = ev.exact_posterior(pair.gen, x, support=sup) / m
        X, _ = ev.one_datapoint(x)
        target[:pair.n_theta] += pair.gen.grad_log_joint(X, sup.layers,
                                                         weights=w)
        target[pair.n_theta:] += pair.inf.grad_log_q(sup.layers, X,
                                                     weights=w)
    cfg = jsa.JsaConfig(particle_number=2, minibatch_size=m)
    batch = (np.arange(m), ds.items, None)

    def error_slope(use_cache, horizon):
        rng = np.random.default_rng(0)
        cache = jsa.LatentCache(m, [s.width for s in pair.layer_specs],
                                pair.dtype)
        g, s = np.empty_like(pair.lam), np.zeros_like(pair.lam)
        marks = set(np.round(np.logspace(1, np.log10(horizon), 7)).astype(int))
        horizons, errors = [], []
        for t in range(1, horizon + 1):
            jsa.jsa_minibatch_update(pair, cache, batch, cfg, rng,
                                     use_cache=use_cache, out=g)
            s += (g - s) / t
            if t in marks:
                horizons.append(t)
                errors.append(np.sqrt(np.mean((s - target) ** 2)))
        return np.polyfit(np.log10(horizons), np.log10(errors), 1)[0]

    cached = error_slope(True, 10**4)
    fresh = error_slope(False, 10**3)
    dt = time.perf_counter() - t0
    in_band = lambda slope: abs(slope + 0.5) <= 0.15
    ok = in_band(cached) and not in_band(fresh)
    report(4, "SA average of the production update decays like T^-1/2",
           ok, f"cached chains slope {cached:+.3f} (want -0.5 +/- 0.15), "
               f"fresh-start chains {fresh:+.3f} (want outside); {dt:.1f}s")
    assert ok


@pytest.mark.slow
def test_criterion_05_learns_synthetic_corpus_to_exact_ml():
    arch = "enc: 10-4s~B4; dec: B4-10s"
    t0 = time.perf_counter()
    ds, _teacher = data.synthetic_dataset(arch, n=500, seed=13)

    # reference: exact-ascent fit from two starts (the surface has basins)
    oracle = np.inf
    for s in (0, 1):
        ref = build_architecture(arch, seed=s)
        oracle = min(oracle, checks.exact_ml_fit(ref.gen, ds.items,
                                                 iters=2500, lr=0.05))

    student = build_architecture(arch, seed=5)
    sup = ev.enumerate_support(student.gen)
    cfg = jsa.JsaConfig(particle_number=4, minibatch_size=50,
                        total_epochs=1500, stage1_epochs=60, lr=1e-2, seed=7)
    track = []

    def on_epoch(epoch, pair, result):
        if epoch % 25 == 0:
            track.append(ev.exact_dataset_nll(pair, ds.items, support=sup))

    jsa.train(student, ds, cfg, on_epoch=on_epoch, timing=False)
    best = min(track)
    gap = best - oracle
    dt = time.perf_counter() - t0
    ok = gap <= 0.02
    report(5, "training reaches the exact maximum-likelihood fit",
           ok, f"best exact NLL {best:.4f} vs reference {oracle:.4f} "
               f"(gap {gap:+.4f}, cap +0.02) in {cfg.total_epochs} epochs; "
               f"{dt:.0f}s")
    assert ok


def test_criterion_06_inference_side_descends_inclusive_kl():
    arch = "enc: 8-3s~B3; dec: B3-8s"
    t0 = time.perf_counter()
    ds, _ = data.synthetic_dataset(arch, n=400, seed=3)
    pair = build_architecture(arch)
    pair.lam[:] = np.random.default_rng(2).normal(scale=0.8,
                                                  size=pair.lam.size)
    sup = ev.enumerate_support(pair.gen)

    def mean_kl():
        return float(np.mean([ev.inclusive_kl_exact(pair, x, support=sup)
                              for x in ds.items]))

    kls = [mean_kl()]
    counter = [0]

    def on_update(epoch, ep_updates, pair_, est):
        counter[0] += 1
        if counter[0] % 100 == 0:
            kls.append(mean_kl())

    cfg = jsa.JsaConfig(particle_number=4, minibatch_size=50,
                        total_epochs=250, stage1_epochs=50, lr=3e-3, seed=4,
                        freeze_theta=True)
    jsa.train(pair, ds, cfg, on_update=on_update, timing=False)
    deltas = np.diff(kls)
    violations = int((deltas > 0).sum())
    allowed = max(1, int(0.05 * len(deltas)))
    dt = time.perf_counter() - t0
    ok = violations <= allowed and kls[-1] < kls[0]
    report(6, "frozen-generator training shrinks the inclusive divergence",
           ok, f"{kls[0]:.4f} -> {kls[-1]:.4f} nats, {violations} of "
               f"{len(deltas)} hundred-update windows rose "
               f"(allowed {allowed}); {dt:.0f}s")
    assert ok


def test_criterion_07_likelihood_estimator_consistency():
    t0 = time.perf_counter()
    res = checks.check_estimator_consistency(seed=3, n_models=10,
                                             n_samples=10_000, tol=0.01)
    dt = time.perf_counter() - t0
    report(7, "importance-sampled likelihood near exact, "
              "and exact when proposal equals posterior",
           res.passed, f"{res.detail}; {dt:.0f}s")
    assert res.passed


@pytest.mark.slow
def test_criterion_08_smoke_scale_training_run():
    t0 = time.perf_counter()
    root = data.default_data_root()
    if root:
        train_ds = data.mnist_splits(root)[0].subset(5000)
        corpus = "digit files"
    else:
        train_ds, _ = data.surrogate_images(5000, 1000, seed=42)
        corpus = "surrogate corpus"
    pair = build_architecture("linear", seed=0)
    cfg = jsa.JsaConfig(particle_number=2, minibatch_size=50,
                        total_epochs=50, stage1_epochs=30, lr=3e-4, seed=1)
    probes = {}

    def on_epoch(epoch, pair_, result):
        if epoch <= 20 or epoch in (30, 35):
            rng = np.random.default_rng(123)   # same stream every probe
            probes[epoch] = ev.dataset_nll(pair_, train_ds.items[:500],
                                           n_samples=100, rng=rng)

    jsa.train(pair, train_ds, cfg, on_epoch=on_epoch, timing=False)
    first20 = [probes[e] for e in range(1, 21)]
    drops = -np.diff(first20)
    strict = bool((drops > 0).all())
    bump = probes[35] - probes[30]
    dt = time.perf_counter() - t0
    ok = strict and bump <= 1.0
    report(8, f"smoke-scale run on the {corpus}",
           ok, f"train NLL {first20[0]:.2f} -> {first20[-1]:.2f}, "
               f"strict decrease over epochs 1-20 "
               f"{'yes' if strict else 'NO'} (min drop {drops.min():.3f}), "
               f"stage-switch bump {bump:+.2f} nats (cap +1.0); {dt:.0f}s")
    assert ok


@pytest.mark.paper_scale
def test_criterion_09_full_scale_benchmark_targets():
    root = data.default_data_root()
    if root is None:
        report(9, "full-scale benchmark", False,
               "digit files unavailable (set JSA_DATA_ROOT); skipped")
        pytest.skip("full-scale corpus not available")

    runs = [
        ("generative-bernoulli", "linear", 2, 50, 1000, 600, 105.5, 1.0),
        ("generative-categorical", "categorical-20x10", 20, 200, 500, 300,
         75.3, 1.5),
        ("structured", "structured-50", 2, 100, 300, 60, 45.2, 1.0),
    ]
    lines, ok = [], True
    for task, arch, K, mb, total, stage1, target, tol in runs:
        train_ds, valid_ds, test_ds = data.mnist_splits(root)
        if task == "structured":
            train_ds, valid_ds, test_ds = (data.split_halves(s) for s in
                                           (train_ds, valid_ds, test_ds))
        pair = build_architecture(arch, seed=0)
        cfg = jsa.JsaConfig(particle_number=K, minibatch_size=mb,
                            total_epochs=total, stage1_epochs=stage1,
                            lr=3e-4, seed=0, eval_every=5, val_samples=100)
        result = jsa.train(pair, train_ds, cfg, valid=valid_ds)
        pair.set_lam(result.best_lam)
        nll = ev.dataset_nll(pair, test_ds.items, test_ds.contexts,
                             n_samples=1000,
                             rng=np.random.default_rng(1399))
        hit = abs(nll - target) <= tol
        ok = ok and hit
        lines.append(f"{task} {nll:.2f} (target {target} +/- {tol})")
    report(9, "full-scale benchmark", ok, "; ".join(lines))
    assert ok


def test_criterion_10_gradient_noise_report():
    arch = "enc: 10-5l-6~C2x3; dec: C2x3-5l-10s"
    t0 = time.perf_counter()
    ds, _ = data.synthetic_dataset(arch, n=200, seed=21)
    pair = build_architecture(arch, seed=2)
    cfg = jsa.JsaConfig(particle_number=4, minibatch_size=50,
                        total_epochs=30, stage1_epochs=30, lr=3e-3, seed=2)
    jsa.train(pair, ds, cfg, timing=False)   # a shared mid-training point

    batch = (np.arange(20), ds.items[:20].astype(pair.dtype), None)

    def jsa_probe(b, rng):
        return jsa.jsa_minibatch_update(pair, jsa.LatentCache(), b, cfg, rng,
                                        use_cache=False, update_cache=False)

    def rws_probe(b, rng):
        return jsa.rws_minibatch_update(pair, b, cfg.particle_number, rng)

    rng = np.random.default_rng(5)
    rep_jsa = ev.grad_variance(jsa_probe, batch, reps=100, rng=rng)
    rep_rws = ev.grad_variance(rws_probe, batch, reps=100, rng=rng)
    vals = [rep_jsa.log_sum_var_theta, rep_jsa.log_sum_var_phi,
            rep_rws.log_sum_var_theta, rep_rws.log_sum_var_phi]
    ok = all(np.isfinite(v) for v in vals)
    lower = "sampler-chain" if rep_jsa.log_sum_var_phi < \
        rep_rws.log_sum_var_phi else "reweighted-wake-sleep"
    dt = time.perf_counter() - t0
    report(10, "gradient-noise comparison report",
           ok, f"log-variance theta/phi: chain {vals[0]:+.2f}/{vals[1]:+.2f}"
               f", reweighted {vals[2]:+.2f}/{vals[3]:+.2f}; lower inference"
               f"-side noise: {lower}; {dt:.0f}s")
    assert ok
