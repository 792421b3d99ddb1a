"""Evaluation tools: importance-sampled NLL, exact enumeration oracles for
tiny models, a Fisher-identity checker, and a gradient-variance probe.

The enumeration oracles brute-force the full latent support, so they are the
independent ground truth against which the samplers and estimators elsewhere
in the package are verified. They refuse supports larger than 2**16
configurations.

The importance-sampled NLL scores about EVAL_ROWS latent rows per block
(max(1, EVAL_ROWS // n_samples) datapoints), so its arrays stay near cache
size at 100 or 1 000 samples alike. Each block draws its latent layers one
after another; for a model with one stochastic layer that is the same
random stream at any block size, but a deeper model such as `two-layers`
interleaves its draws by block, so its estimate depends on the block size.
Each block of x (and c) is cast to the dtype of the pair's lam as it is
sliced, so a float32 pair scores in float32; the log-weights are summed
over datapoints in float64, and the enumeration oracles are meant for
float64 pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ConfigError, ShapeError
from .ndnet import finite_diff_grad

ENUMERATION_CAP = 1 << 16

# Latent rows dataset_nll scores per block by default. On the `linear`
# preset, 256 to 2 048 rows per block ran within 11 % of each other; one
# 10 000-row block (100 datapoints at 100 samples) was 1.6x slower.
EVAL_ROWS = 512


class EnumerableSupport:
    """All joint latent configurations of a model, in a fixed lexicographic
    order. Layer k of configuration i is ``layers[k][i]``."""

    def __init__(self, layer_specs):
        size = 1
        for spec in layer_specs:
            if spec.kind == "bernoulli":
                size *= 2 ** spec.width
            else:
                size *= spec.n_categories ** spec.n_vars
            if size > ENUMERATION_CAP:
                raise CapabilityError(
                    f"latent support exceeds {ENUMERATION_CAP} configurations")
        self.layer_specs = layer_specs
        self.size = size

        per_layer = []
        for spec in layer_specs:
            if spec.kind == "bernoulli":
                rows = np.array(list(itertools.product((0.0, 1.0),
                                                       repeat=spec.width)))
            else:
                eye = np.eye(spec.n_categories)
                rows = np.array([
                    np.concatenate([eye[i] for i in combo])
                    for combo in itertools.product(range(spec.n_categories),
                                                   repeat=spec.n_vars)])
            per_layer.append(rows)

        # Cartesian product across layers; layer 0 varies slowest.
        reps_after = [1] * len(per_layer)
        for k in range(len(per_layer) - 2, -1, -1):
            reps_after[k] = reps_after[k + 1] * per_layer[k + 1].shape[0]
        self.layers = []
        for k, rows in enumerate(per_layer):
            tiles = self.size // (rows.shape[0] * reps_after[k])
            expanded = np.tile(np.repeat(rows, reps_after[k], axis=0), (tiles, 1))
            self.layers.append(expanded)
        self._index = None  # built by the first index_of

    def config(self, i: int):
        """Latent configuration i as the usual list of per-layer arrays."""
        return [lay[i] for lay in self.layers]

    def index_of(self, h) -> int:
        if self._index is None:
            self._index = {
                np.concatenate([lay[i] for lay in self.layers]).tobytes(): i
                for i in range(self.size)}
        key = np.concatenate([np.asarray(hk, dtype=np.float64) for hk in h]
                             ).tobytes()
        return self._index[key]


def enumerate_support(model_or_specs) -> EnumerableSupport:
    specs = getattr(model_or_specs, "layer_specs", model_or_specs)
    return EnumerableSupport(specs)


def one_datapoint(x, c=None):
    """A single observation x (and its context c) as one datapoint's rows,
    so that the whole support scores as that datapoint's latent rows and
    encoder net 0 (and a prior net) run once."""
    if x.ndim != 1:
        raise ShapeError("enumeration oracles take a single observation")
    return x[None], None if c is None else c[None]


def _support_log_joint(gen, x, c, support):
    """log p(x, h) for every h in the support; x is a single observation."""
    gen = getattr(gen, "gen", gen)  # accept a ModelPair too
    X, C = one_datapoint(x, c)
    return gen.log_joint(X, support.layers, C)


def exact_log_likelihood(gen, x, c=None, support=None) -> float:
    """log p(x) by summing the joint over the entire latent support."""
    support = support or enumerate_support(gen)
    return float(logsumexp(_support_log_joint(gen, x, c, support)))


def exact_posterior(gen, x, c=None, support=None) -> np.ndarray:
    """p(h | x) as a probability table aligned with the support order."""
    support = support or enumerate_support(gen)
    lj = _support_log_joint(gen, x, c, support)
    return np.exp(lj - logsumexp(lj))


def exact_inference_table(inf, x, c=None, support=None) -> np.ndarray:
    """q(h | x) for every h in the support (in support order)."""
    support = support or enumerate_support(inf)
    X, C = one_datapoint(x, c)
    return np.exp(inf.log_q(support.layers, X, C))


def inclusive_kl_exact(pair, x, c=None, support=None) -> float:
    """KL[p(h|x) || q(h|x)] computed exactly over the support."""
    support = support or enumerate_support(pair.gen)
    post = exact_posterior(pair.gen, x, c, support)
    X, C = one_datapoint(x, c)
    logq = pair.inf.log_q(support.layers, X, C)
    nz = post > 0
    logpost = np.full(support.size, -np.inf)
    logpost[nz] = np.log(post[nz])
    return float(np.sum(post[nz] * (logpost[nz] - logq[nz])))


def rel_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute difference scaled by the overall magnitude of b."""
    scale = max(float(np.max(np.abs(b))), 1e-8)
    return float(np.max(np.abs(a - b)) / scale)


def fisher_identity_check(gen, x, c=None, eps=1e-5, support=None) -> float:
    """Compares the posterior-expected joint gradient against the
    finite-difference gradient of the exact log-likelihood; returns their
    max relative deviation. Both sides should be grad_theta log p(x)."""
    support = support or enumerate_support(gen)
    post = exact_posterior(gen, x, c, support)
    X, C = one_datapoint(x, c)
    expected = gen.grad_log_joint(X, support.layers, C, weights=post)

    def marginal(params):
        return exact_log_likelihood(gen, x, c, support)

    numeric = finite_diff_grad(marginal, gen.params, eps=eps)
    return rel_deviation(expected, numeric)


def importance_sample(pair, x, c=None, rng=None, n_samples=1):
    """Draws h ~ q(h|x), n_samples latent rows per row of x grouped by row
    (as InferenceModel.sample_q), and returns (h, log w) with
    log w = log p(x,h) - log q(h|x). Encoder net 0 runs once per row of x."""
    h, logq = pair.inf.sample_q(x, c, rng=rng, return_log_q=True,
                                n_samples=n_samples)
    return h, pair.gen.log_joint(x, h, c) - logq


def logsumexp(a, axis=None, keepdims=False):
    """log sum exp(a) over axis (all axes by default), in scipy 1.17's
    formula: the maximal terms are split out of the sum, as
    log1p(s / m) + log m + a_max, where m counts the maxima and s sums
    exp(a - a_max) over the rest. Where a_max is not finite (a row that
    is all -inf, or holds +inf or NaN) the result is a_max, as scipy's
    fallback gives."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    axis = tuple(range(a.ndim)) if axis is None else axis
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    with np.errstate(divide="ignore", invalid="ignore"):
        m = top.sum(axis=axis, keepdims=True, dtype=np.float64)
        s = np.exp(np.where(top, -np.inf, a) - a_max).sum(
            axis=axis, keepdims=True) / m
        out = np.log1p(s) + np.log(m) + a_max
    out = np.where(np.isfinite(a_max), out, a_max)
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def log_mean_exp(a, axis=-1):
    """log mean exp(a) along axis. Over importance log-weights its negative
    is the IS NLL estimate, an upper bound on the true NLL in expectation."""
    return logsumexp(a, axis=axis) - np.log(a.shape[axis])


def dataset_nll(pair, items, contexts=None, n_samples=100, rng=None,
                limit=None, block=None) -> float:
    """Mean importance-sampled NLL over the first limit datapoints (all by
    default), scored block datapoints at a time.

    The default block is max(1, EVAL_ROWS // n_samples) datapoints, so each
    block's decoder arrays stay cache-sized whatever n_samples is; an
    explicit block overrides it. With one stochastic layer the estimate
    does not depend on the block size; with more, such as `two-layers`,
    it does, because each block draws its layers in turn. Each block is
    scored in lam's dtype, and the result is a float64 mean.
    """
    if n_samples < 1:
        raise ConfigError(f"n_samples must be at least 1, got {n_samples}")
    if block is not None and block < 1:
        raise ConfigError(f"block must be at least 1, got {block}")
    if limit is not None and limit < 1:
        raise ConfigError(f"limit must be at least 1, got {limit}")
    n = items.shape[0] if limit is None else min(limit, items.shape[0])
    if n == 0:
        raise ShapeError("dataset_nll needs at least one datapoint")
    if block is None:
        block = max(1, EVAL_ROWS // n_samples)
    dtype = pair.dtype
    total = 0.0
    for start in range(0, n, block):
        stop = min(start + block, n)
        X = items[start:stop].astype(dtype, copy=False)
        C = (None if contexts is None
             else contexts[start:stop].astype(dtype, copy=False))
        _, logw = importance_sample(pair, X, C, rng, n_samples=n_samples)
        total += float(-log_mean_exp(logw.reshape(stop - start,
                                                  n_samples)).sum())
    return total / n


def exact_dataset_nll(gen, items, contexts=None, support=None) -> float:
    """Mean exact NLL over a dataset by enumeration (tiny models only)."""
    support = support or enumerate_support(gen)
    total = 0.0
    for i in range(items.shape[0]):
        c = None if contexts is None else contexts[i]
        total -= exact_log_likelihood(gen, items[i], c, support)
    return total / items.shape[0]


def mis_transition_matrix(pair, x, c=None, support=None) -> np.ndarray:
    """The exact transition matrix of the independence-sampler kernel that
    proposes from q and accepts with min(1, w'/w). Entry [i, j] is the
    probability of moving from configuration i to configuration j.

    Computed analytically from the model's own mass functions; this is the
    oracle that the sampling implementation is tested against.
    """
    support = support or enumerate_support(pair.gen)
    lj = _support_log_joint(pair.gen, x, c, support)
    X, C = one_datapoint(x, c)
    logq = pair.inf.log_q(support.layers, X, C)
    q = np.exp(logq)
    logw = lj - logq
    accept = np.minimum(1.0, np.exp(np.minimum(logw[None, :] - logw[:, None],
                                               0.0)))
    K = q[None, :] * accept
    np.fill_diagonal(K, 0.0)
    np.fill_diagonal(K, 1.0 - K.sum(axis=1))
    return K


@dataclass
class VarianceReport:
    """Log of the summed per-parameter gradient variance, per block."""

    log_sum_var_theta: float
    log_sum_var_phi: float
    reps: int


def grad_variance(update_fn, batch, reps, rng) -> VarianceReport:
    """Repeats update_fn(batch, rng) and reports log(sum of per-parameter
    sample variances) for the theta and phi gradient blocks.

    update_fn must be a pure probe: same parameters, fresh randomness each
    call. A deterministic update_fn yields -inf entries. reps must be at
    least 2, as the sample variance (ddof=1) needs two draws.
    """
    if reps < 2:
        raise ConfigError(f"reps must be at least 2, got {reps}")
    gt, gp = [], []
    for _ in range(reps):
        est = update_fn(batch, rng)
        gt.append(est.g_theta)
        gp.append(est.g_phi)
    gt = np.stack(gt)
    gp = np.stack(gp)
    with np.errstate(divide="ignore"):
        log_t = float(np.log(gt.var(axis=0, ddof=1, dtype=np.float64).sum()))
        log_p = float(np.log(gp.var(axis=0, ddof=1, dtype=np.float64).sum()))
    return VarianceReport(log_t, log_p, reps)
