"""Independent importance-sampled NLL for the `linear` preset.

The eval-nll workload checks jsalearn's evaluation.dataset_nll against this
estimator. It shares no code with jsalearn: it reads the flat parameter
vector of a checkpoint and redoes the model's arithmetic with scipy.

Model (preset `linear`, "enc: 784-200s~B200; dec: B200-784s"):
  q(h|x)  = Bernoulli(clip(sigmoid(x @ We + be)))
  p(h)    = Bernoulli(clip(sigmoid(prior_logits)))
  p(x|h)  = Bernoulli(clip(sigmoid(h @ Wd + bd)))
with probabilities clipped into [1e-7, 1 - 1e-7]. The flat vector is
[prior_logits (200) | Wd (200x784, row-major) | bd (784) | We (784x200) |
be (200)].
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit, logsumexp

OBS = 784
LAT = 200
CLAMP = 1e-7


def _unpack(lam):
    sizes = [LAT, LAT * OBS, OBS, OBS * LAT, LAT]
    if lam.size != sum(sizes):
        raise ValueError(f"parameter vector of size {lam.size} is not the "
                         f"linear preset ({sum(sizes)})")
    prior, wd, bd, we, be = np.split(lam, np.cumsum(sizes)[:-1])
    return prior, wd.reshape(LAT, OBS), bd, we.reshape(OBS, LAT), be


def _bernoulli_log_mass(p, v):
    return (v * np.log(p) + (1.0 - v) * np.log1p(-p)).sum(axis=-1)


def linear_is_nll(lam, X, n_samples, rng):
    """Per-point -log mean_s p(x, h_s) / q(h_s | x), h_s ~ q(.|x)."""
    prior, wd, bd, we, be = _unpack(np.asarray(lam, dtype=np.float64))
    p_prior = np.clip(expit(prior), CLAMP, 1.0 - CLAMP)
    out = np.empty(X.shape[0])
    for i, x in enumerate(X):
        q = np.clip(expit(x @ we + be), CLAMP, 1.0 - CLAMP)
        h = (rng.random((n_samples, LAT)) < q).astype(np.float64)
        px = np.clip(expit(h @ wd + bd), CLAMP, 1.0 - CLAMP)
        logw = (_bernoulli_log_mass(p_prior, h) + _bernoulli_log_mass(px, x)
                - _bernoulli_log_mass(q, h))
        out[i] = -(logsumexp(logw) - np.log(n_samples))
    return out
