"""Joint stochastic approximation training of a model pair.

Each datapoint carries its own latent Markov chain. One minibatch update:

1. For every datapoint in the batch, run K moves of a Metropolis
   independence sampler whose proposal is q(h|x) and whose target is the
   posterior p(h|x): propose h' ~ q, accept with probability
   min(1, w(h')/w(h)) where w = p(x,h)/q(h|x). The marginal p(x) cancels in
   the ratio, so only the joint and the proposal mass are ever evaluated.
   mis_moves runs the decisions, here and in the chains of run_mis_chain.
   Its default rule draws the call's uniforms in one block, the same random
   stream as one scalar draw per decision. A move whose uniform would
   accept it from any state the chain can hold regenerates the chain
   (Mykland, Tierney & Yu, JASA 90:233, 1995), so the moves between two
   regenerations form a stretch that depends on no other; numpy walks the
   stretches side by side, one decision of each per round, and every
   decision equals the scalar test log(u) < delta. A custom rule is still
   called once per decision, in move order, by the scalar loop.
2. Average grad_theta log p(x,h) and grad_phi log q(h|x) over all m*K
   post-move states. Ascending these couples maximum-likelihood learning of
   theta with inclusive-KL minimization for phi.

Each row is scored once. Encoder net 0 runs once per datapoint (its pass
serves the K proposals and the starting state), one decoder pass scores the
m starting states and the m*K proposals together, and the gradients
back-propagate the activations stored for the states the chains visited.
The activation records travel between the model methods as explicit
arguments and return values (models.Activations).

Training has two stages. In the warm-up stage each visit starts its chain
afresh from an accepted proposal (no state kept); in the cache stage every
datapoint's last latent state persists across epochs in a LatentCache (one
dense row per dataset index and latent layer), giving the sampler a warm
start. The stage switch only changes where chains start; the update
rule is identical.

A reweighted wake-sleep style baseline update is included for comparison:
it replaces the accept/reject chain with self-normalized importance
weighting over fresh proposals (proposals are always "accepted").

Checkpoints are single-file binary containers: an 8-byte magic header
followed by a pickled payload holding the architecture string, the flat
parameter vector, optimizer moments, cached chains, generator state, and
the epoch counter. Arrays keep their dtype, lam's, and a restored pair is
built in it. The cache is stored as {"layers": [...], "seen": ...}.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import time
from dataclasses import dataclass, field
from itertools import cycle, repeat

import numpy as np

from . import evaluation
from .errors import (
    ConfigError,
    FormatError,
    NumericError,
    ShapeError,
    TrainingDiverged,
)
from .models import ModelPair, build_architecture, join_rows
from .ndnet import AdamState, adam_step

CHECKPOINT_MAGIC = b"JSACKPT\x01"
CHAIN_SLICE = 1 << 16
# Crossovers of the stretch walk against the scalar loop, measured with
# normal log-weights on a 2-core x86 host (numpy 2.4, Python 3.11): a numpy
# round costs about as much as the loop spends on WALK_MIN_LIVE decisions
# (6-8 us against 0.2 us a decision), and the walk's set-up beats the loop
# from about WALK_MIN_MOVES decisions (at (200, 2) and (1, 1 000), not at
# (50, 2) or (1, 400)).
WALK_MIN_LIVE = 32
WALK_MIN_MOVES = 512
# np.log and math.log may differ in the last bit. A comparison of np.log(u)
# with a delta closer than this, relative to the log, is redone with
# math.log; a regeneration mark keeps this margin from its threshold.
LOG_TIE_RTOL = 1e-12


def _move_loop(cur, slots, prop, logu, accept_rule=None, rng=None):
    """The scalar move loop. Decision i moves chain slots[i], whose current
    log-weight is cur[slots[i]], to the proposal of log-weight prop[i] if
    accept_rule(delta, rng) holds, or under the default rule if
    logu[i] < delta. Returns the decisions as a bytearray."""
    took = bytearray(len(prop))
    for i, (j, p, lu) in enumerate(zip(slots, prop, logu)):
        delta = p - cur[j]
        if accept_rule(delta, rng) if accept_rule else lu < delta:
            cur[j] = p
            took[i] = 1
    return took


def _walk_stretches(logw_cur, logw_prop, u):
    """The default rule's (m, K) decisions for the uniforms u, drawn
    move-major, walked stretch by stretch (see mis_moves)."""
    m, K = logw_prop.shape
    # Chain-major (m, K+1) layouts: column 0 holds a chain's start, column
    # k+1 its move k. Assigning widens float32 log-weights exactly.
    E = np.empty((m, K + 1))
    E[:, 0] = logw_cur
    E[:, 1:] = logw_prop
    U = np.ones((m, K + 1))
    U[:, 1:] = u.reshape(K, m).T
    with np.errstate(divide="ignore"):
        LU = np.log(U)
    # took[j, 0] marks the known start; took[j, k+1] marks move k if it
    # regenerates. A NaN log-weight makes its chain's max NaN, so only the
    # chain's zero uniforms mark.
    took = np.empty((m, K + 1), dtype=bool)
    took[:, 0] = True
    np.less(LU[:, 1:] * (1 - LOG_TIE_RTOL), E[:, 1:] - E.max(axis=1)[:, None],
            out=took[:, 1:])
    took[:, 1:] |= U[:, 1:] == 0
    E, LU, U, flat = E.ravel(), LU.ravel(), U.ravel(), took.ravel()

    # A stretch is the run of undecided moves after a mark, up to the next.
    # Sorted longest first, the stretches live in round r are a prefix.
    marks = np.flatnonzero(flat)
    length = np.append(marks[1:], flat.size) - marks - 1
    order = np.argsort(-length)
    order = order[:np.count_nonzero(length)]
    begin, length, state = marks[order] + 1, length[order], E[marks[order]]
    n_live = (order.size - np.cumsum(np.bincount(length))).tolist()

    r, n = 0, order.size
    while n >= WALK_MIN_LIVE:
        b = begin[:n] + r
        p = E[b]
        cur = state[:n]
        delta = p - cur
        lu = LU[b]
        acc = lu < delta
        for i in np.flatnonzero(np.abs(delta - lu) <= LOG_TIE_RTOL * -lu):
            acc[i] = math.log(U[b[i]]) < delta[i]
        flat[b] = acc
        np.copyto(cur, p, where=acc)
        r += 1
        n = n_live[r]
    for b0, b1, s in zip((begin[:n] + r).tolist(),
                         (begin[:n] + length[:n]).tolist(),
                         state[:n].tolist()):
        flat[b0:b1] = np.frombuffer(_move_loop(
            [s], repeat(0), E[b0:b1].tolist(),
            map(math.log, U[b0:b1].tolist())), dtype=bool)
    return took[:, 1:]


def mis_moves(logw_cur, logw_prop, rng, accept_rule=None):
    """K sequential independence-sampler moves for each of m chains.

    logw_cur (m,) holds the log-weights of the chains' current states and
    logw_prop (m, K) those of their proposals, in move order; deltas are
    taken in float64 whatever their dtype. Decision i = k*m + j (move k of
    chain j) is move-major, so the random stream does not depend on how
    chains are batched. The default rule accepts with probability
    min(1, e^delta): decision i accepts if math.log(u_i) < delta or
    u_i == 0, where u = rng.random(m*K) is drawn in one block, the same
    doubles and the same generator state as one scalar draw per decision.
    A custom accept_rule(delta, rng) is instead called once per decision,
    in move-major order, by the scalar loop.

    The default rule walks stretches. Move k of chain j regenerates if its
    uniform would accept it from any state the chain can hold, that is if
    log u < p_k - v_j with v_j the largest of the chain's start and
    proposal log-weights, or if u == 0. fl(p - v) falls as v grows, so one
    comparison against v_j covers every state; a NaN in v_j marks none.
    Regeneration moves, and each chain's start, leave the chain at a known
    state, so the moves between two of them form a stretch that depends on
    no other. Each numpy round takes one decision in every stretch still
    live, comparing np.log(u) with delta; the rare comparison within
    LOG_TIE_RTOL of a tie is redone with math.log, so every decision
    equals the scalar test. Once fewer than WALK_MIN_LIVE stretches are
    live, the scalar loop finishes them, and a call of fewer than
    WALK_MIN_MOVES decisions without a zero uniform runs in the loop
    alone.
    Returns (pos, accepted): pos[j, k] is the proposal chain j sits at after
    move k, or -1 while it is still at its starting state.
    """
    m, K = logw_prop.shape
    u = None if accept_rule else rng.random(m * K)
    if u is not None and (m * K >= WALK_MIN_MOVES or not u.all()):
        took = _walk_stretches(logw_cur, logw_prop, u)
    else:
        # The loop's default test cannot accept a NaN or -inf delta, so
        # zero uniforms take the walk, which marks them.
        logu = repeat(None) if accept_rule else map(math.log, u.tolist())
        took = _move_loop(logw_cur.tolist(), cycle(range(m)),
                          logw_prop.T.ravel().tolist(), logu, accept_rule,
                          rng)
        took = np.frombuffer(took, dtype=bool).reshape(K, m).T
    # A chain sits after move k at the last proposal it accepted, if any.
    pos = np.maximum.accumulate(np.where(took, np.arange(K), -1), axis=1)
    return pos, int(took.sum())


class LatentCache:
    """Persistent chain states, one row per dataset index: a dense
    (n, width) array per latent layer, in the dtype of the model pair's lam
    (train passes it), plus a boolean mask of the rows that hold a state."""

    def __init__(self, n: int = 0, widths=(), dtype=np.float64):
        self.layers = [np.zeros((n, w), dtype=dtype) for w in widths]
        self.seen = np.zeros(n, dtype=bool)

    def __len__(self):
        return int(self.seen.sum())

    def get(self, indices):
        """(states, seen) for the given rows: one (len(indices), width) copy
        per layer, in which rows not yet seen read as zeros."""
        return [lay[indices] for lay in self.layers], self.seen[indices]

    def put(self, indices, h):
        """Stores (a copy of) h, one (len(indices), width) array per layer."""
        for lay, hk in zip(self.layers, h):
            lay[indices] = hk
        self.seen[indices] = True

    def state_dict(self):
        return {"layers": [lay.copy() for lay in self.layers],
                "seen": self.seen.copy()}

    @classmethod
    def from_state(cls, state):
        """The cache a state_dict saved, each layer in its stored dtype."""
        cache = cls()
        cache.layers = [np.array(lay) for lay in state["layers"]]
        cache.seen = np.array(state["seen"], dtype=bool)
        return cache


@dataclass
class JsaConfig:
    """Hyperparameters of one training run."""

    particle_number: int = 2
    minibatch_size: int = 50
    total_epochs: int = 100
    stage1_epochs: int = 60
    lr: float = 3e-4
    seed: int = 0
    eval_every: int = 5
    val_samples: int = 100
    freeze_theta: bool = False
    lambda_bound: float = 1e8

    def __post_init__(self):
        if self.particle_number < 1:
            raise ConfigError("particle_number must be at least 1")
        if self.minibatch_size < 1:
            raise ConfigError("minibatch_size must be at least 1")
        if self.total_epochs < 0:
            raise ConfigError("total_epochs must not be negative")
        if not 0 <= self.stage1_epochs <= self.total_epochs:
            raise ConfigError(
                "stage1_epochs must lie between 0 and total_epochs")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be at least 1")
        if self.val_samples < 1:
            raise ConfigError("val_samples must be at least 1")
        if not self.lambda_bound > 0:
            raise ConfigError("lambda_bound must be positive")


@dataclass
class GradEstimate:
    """Stochastic gradient estimate from one minibatch, plus sampler stats.

    nll_proxy is the importance-sampled NLL computed from the proposals the
    update already drew; it costs nothing extra and tracks training progress.
    """

    g_theta: np.ndarray
    g_phi: np.ndarray
    accept_count: int
    proposal_count: int
    nll_proxy: float = float("nan")


def _split_out(pair, out):
    """The theta and phi blocks of a lam-sized gradient buffer, or
    (None, None) without one."""
    if out is None:
        return None, None
    if out.shape != pair.lam.shape:
        raise ShapeError(f"gradient buffer has shape {out.shape}, "
                         f"need {pair.lam.shape}")
    return out[:pair.n_theta], out[pair.n_theta:]


def jsa_minibatch_update(pair: ModelPair, cache: LatentCache, batch,
                         config: JsaConfig, rng, *, use_cache: bool,
                         update_cache: bool = True,
                         accept_rule=None, out=None) -> GradEstimate:
    """One JSA minibatch update (gradient estimate only; no parameter step).

    batch is (idx, X, C): the m dataset indices, the (m, obs_width)
    observations and the (m, context_width) contexts or None, X and C in
    lam's dtype (as train slices them). With use_cache the per-index
    chains start from (and, unless update_cache is off, are written back
    to) the cache; an index seen for the first time starts from a fresh
    accepted proposal; an index outside the cache's rows raises
    ShapeError. Without use_cache every visit starts fresh and the cache is
    untouched. out, a lam-sized buffer, receives the gradient (theta block
    then phi block), and the estimate's g_theta and g_phi are views of it;
    without out they are fresh arrays.
    """
    idx, X, C = batch
    out_theta, out_phi = _split_out(pair, out)
    m = X.shape[0]
    K = config.particle_number

    # K proposals per datapoint, rows ordered (j, k) -> j*K + k. The proposal
    # law of an independence sampler does not depend on the chain state, so
    # all of them can be drawn up front. Encoder net 0 runs here once per
    # datapoint; its pass (in qa_p) serves the starting states too.
    Hp, logq_p, qa_p = pair.inf.sample_q(X, C, rng=rng, n_samples=K,
                                         return_acts=True)

    # Starting states: cached where available, fresh accepted proposals
    # otherwise (always fresh in the no-cache stage).
    if not use_cache:
        H0, logq_0, qa_0 = pair.inf.sample_q(X, C, rng=rng, acts=qa_p,
                                             return_acts=True)
    else:
        for i in (np.min(idx), np.max(idx)):
            if not 0 <= i < cache.seen.size:
                raise ShapeError(f"dataset index {i} outside the chain "
                                 f"cache's {cache.seen.size} rows")
        H0, seen = cache.get(idx)
        if not seen.all():
            fresh = ~seen
            Hf = pair.inf.sample_q(X[fresh], None if C is None else C[fresh],
                                   rng=rng, acts=qa_p.datapoints(fresh))
            for h0, hf in zip(H0, Hf):
                h0[fresh] = hf
        logq_0, qa_0 = pair.inf.log_q(H0, X, C, acts=qa_p, return_acts=True)

    # One decoder pass scores every state. Datapoint j owns the K+1 rows
    # from j*(K+1): its starting state, then its K proposals.
    H = [join_rows(h0, hp, m) for h0, hp in zip(H0, Hp)]
    logp, pa = pair.gen.log_joint(X, H, C, return_acts=True)
    logw = (logp - join_rows(logq_0, logq_p, m)).reshape(m, K + 1)

    # rows[j, k] is the scored row where chain j sits after move k.
    pos, accepted = mis_moves(logw[:, 0], logw[:, 1:], rng, accept_rule)
    rows = (K + 1) * np.arange(m)[:, None] + 1 + pos

    # Average both gradients over all m*K visited post-move states,
    # back-propagating the activations stored when they were scored.
    Hsel = [hk[rows.ravel()] for hk in H]
    w = np.full(m * K, 1.0 / (m * K), dtype=pair.dtype)
    g_theta = pair.gen.grad_log_joint(X, Hsel, C, weights=w,
                                      acts=pa.take(rows), out=out_theta)
    g_phi = pair.inf.grad_log_q(Hsel, X, C, weights=w,
                                acts=qa_0.join(qa_p).take(rows), out=out_phi)

    if use_cache and update_cache:
        cache.put(idx, [hk[rows[:, -1]] for hk in H])

    nll_proxy = float(np.mean(-evaluation.log_mean_exp(logw[:, 1:])))
    return GradEstimate(g_theta, g_phi, accepted, m * K, nll_proxy)


def rws_minibatch_update(pair: ModelPair, batch, n_particles: int,
                         rng, out=None) -> GradEstimate:
    """Baseline update: self-normalized importance weighting over fresh
    proposals from q. Both gradients use the same normalized weights (the
    inference side is the wake-phase update), and every proposal counts as
    accepted. batch and out are as in jsa_minibatch_update."""
    if n_particles < 1:
        raise ConfigError("n_particles must be at least 1")
    _, X, C = batch
    out_theta, out_phi = _split_out(pair, out)
    m = X.shape[0]
    P = n_particles
    Hp, logq, qa = pair.inf.sample_q(X, C, rng=rng, n_samples=P,
                                     return_acts=True)
    logp, pa = pair.gen.log_joint(X, Hp, C, return_acts=True)
    logw = (logp - logq).reshape(m, P)
    wn = np.exp(logw - evaluation.logsumexp(logw, axis=1, keepdims=True))
    w = (wn.reshape(-1) / m).astype(pair.dtype, copy=False)
    g_theta = pair.gen.grad_log_joint(X, Hp, C, weights=w, acts=pa,
                                      out=out_theta)
    g_phi = pair.inf.grad_log_q(Hp, X, C, weights=w, acts=qa, out=out_phi)
    nll_proxy = float(np.mean(-evaluation.log_mean_exp(logw)))
    return GradEstimate(g_theta, g_phi, m * P, m * P, nll_proxy)


def run_mis_chain(pair: ModelPair, x, n_steps: int, rng, c=None, support=None,
                  accept_rule=None, start=None) -> np.ndarray:
    """Occupancy counts of a long sampler chain over an enumerable support.

    Proposals are tabulated up front (valid because the proposal law ignores
    the chain state) and fed through mis_moves, the production sampler
    step, CHAIN_SLICE steps at a time so that its working arrays stay small
    at any chain length. The chain starts at support index start, or at a
    draw from q without one; a start outside the support raises
    ShapeError. Used to verify that the chain's occupancy matches the exact
    posterior.
    """
    support = support or evaluation.enumerate_support(pair.gen)
    if start is not None and not 0 <= start < support.size:
        raise ShapeError(f"chain start {start} outside the support's "
                         f"{support.size} states")
    X, C = evaluation.one_datapoint(x, c)
    logq = pair.inf.log_q(support.layers, X, C)
    logw = pair.gen.log_joint(X, support.layers, C) - logq
    q = np.exp(logq)
    q = q / q.sum()

    props = rng.choice(support.size, size=n_steps, p=q)
    cur = int(rng.choice(support.size, p=q)) if start is None else int(start)
    counts = np.zeros(support.size)
    for t in range(0, n_steps, CHAIN_SLICE):
        props_t = props[t:t + CHAIN_SLICE]
        pos, _ = mis_moves(logw[[cur]], logw[props_t][None], rng, accept_rule)
        states = np.where(pos[0] < 0, cur, props_t[pos[0]])
        counts += np.bincount(states, minlength=support.size)
        cur = int(states[-1])
    return counts


@dataclass
class TrainResult:
    """Outcome of a training run. metrics rows are
    (epoch, split, nll, accept_rate, seconds)."""

    metrics: list = field(default_factory=list)
    best_lam: np.ndarray | None = None
    best_epoch: int | None = None
    best_val_nll: float = float("inf")
    cache: LatentCache | None = None
    adam: AdamState | None = None
    epochs_run: int = 0
    elapsed: float = 0.0


def _dataset_arrays(dataset):
    items = getattr(dataset, "items", dataset)
    contexts = getattr(dataset, "contexts", None)
    return np.asarray(items, dtype=np.float64), contexts


class _LastGood:
    """lam and the Adam moments and step at the end of the last finished
    epoch, which a divergence restores. The copies live in buffers made
    once, so taking one allocates nothing."""

    def __init__(self, pair, adam):
        self.arrays = [pair.lam.copy(), adam.m.copy(), adam.v.copy()]
        self.step = adam.step

    def save(self, pair, adam):
        for dst, src in zip(self.arrays, (pair.lam, adam.m, adam.v)):
            np.copyto(dst, src)
        self.step = adam.step

    def restore(self, pair, adam):
        for src, dst in zip(self.arrays, (pair.lam, adam.m, adam.v)):
            np.copyto(dst, src)
        adam.step = self.step


def train(pair: ModelPair, dataset, config: JsaConfig, *, valid=None,
          algorithm: str = "jsa", on_update=None, on_epoch=None,
          timing: bool = True) -> TrainResult:
    """Runs the full two-stage training loop with one shared Adam instance
    over the concatenated parameter vector. This is the paper's
    stochastic-approximation recursion: each update runs K sampler moves
    per chain, then steps along the mean of F, the (theta, phi) gradient
    pair, over the states the chains visited, with Adam as the gain.

    dataset/valid are data.Dataset objects or bare (n, obs_width) arrays.
    The run computes in the dtype of pair.lam: each minibatch of x and c is
    cast to it as it is sliced, and the step buffer, the Adam moments and
    the chain cache are made in it.
    Validation NLL is estimated every eval_every epochs with an identical
    sample stream each time, so values are comparable across epochs; the
    parameters with the lowest validation NLL are retained in best_lam.
    Raises TrainingDiverged (carrying the result so far, with parameters
    and the Adam moments and step restored to the last finished epoch) on
    numeric blow-up.

    Each update writes its gradient, the ascent direction, into one
    lam-sized step buffer made once per run; train zeroes its theta block
    under freeze_theta and hands it to adam_step as it is. adam_step
    returns the new lam's sum of squares, and a lam whose norm exceeds
    lambda_bound (or is not finite) counts as divergence. No lam-sized
    array is made and no further pass over lam is taken per update.
    on_update(epoch, n, pair, est) is called after the step, and
    est.g_theta and est.g_phi are views of that ascent buffer, valid only
    until the next update overwrites it.
    """
    if algorithm not in ("jsa", "rws"):
        raise ConfigError(f"unknown algorithm '{algorithm}'")
    items, contexts = _dataset_arrays(dataset)
    v_items = v_contexts = None
    if valid is not None:
        v_items, v_contexts = _dataset_arrays(valid)
    n = items.shape[0]
    if n < 1:
        raise ShapeError("empty training set")

    rng = np.random.default_rng(config.seed)
    dtype = pair.dtype
    adam = AdamState.for_size(pair.lam.size, lr=config.lr, dtype=dtype)
    widths = [spec.width for spec in pair.layer_specs]
    result = TrainResult(cache=LatentCache(n, widths, dtype), adam=adam)
    last_good = _LastGood(pair, adam)
    # Each update writes its gradient (the ascent direction) here.
    step = np.empty_like(pair.lam)
    t0 = time.perf_counter()

    for epoch in range(1, config.total_epochs + 1):
        use_cache = epoch > config.stage1_epochs
        perm = rng.permutation(n)
        ep_accept = ep_prop = ep_updates = 0
        ep_nll = 0.0
        try:
            for startrow in range(0, n, config.minibatch_size):
                sel = perm[startrow:startrow + config.minibatch_size]
                batch = (sel, items[sel].astype(dtype, copy=False),
                         None if contexts is None
                         else contexts[sel].astype(dtype, copy=False))
                if algorithm == "jsa":
                    est = jsa_minibatch_update(pair, result.cache, batch,
                                               config, rng,
                                               use_cache=use_cache, out=step)
                else:
                    est = rws_minibatch_update(pair, batch,
                                               config.particle_number, rng,
                                               out=step)
                if config.freeze_theta:
                    step[:pair.n_theta] = 0.0
                sumsq = adam_step(pair.lam, step, adam)
                # inf or NaN fails the comparison too.
                if not math.sqrt(sumsq) <= config.lambda_bound:
                    raise NumericError(
                        f"parameters diverged at epoch {epoch}")
                ep_accept += est.accept_count
                ep_prop += est.proposal_count
                ep_nll += est.nll_proxy
                ep_updates += 1
                if on_update is not None:
                    on_update(epoch, ep_updates, pair, est)
        except NumericError as exc:
            last_good.restore(pair, adam)
            result.elapsed = time.perf_counter() - t0
            raise TrainingDiverged(str(exc), result=result) from exc

        seconds = (time.perf_counter() - t0) if timing else 0.0
        result.metrics.append((epoch, "train", ep_nll / ep_updates,
                               ep_accept / ep_prop, seconds))
        if v_items is not None and epoch % config.eval_every == 0:
            val_rng = np.random.default_rng(config.seed + 977)
            vnll = evaluation.dataset_nll(
                pair, v_items, v_contexts, n_samples=config.val_samples,
                rng=val_rng)
            seconds = (time.perf_counter() - t0) if timing else 0.0
            result.metrics.append((epoch, "valid", vnll, "", seconds))
            if vnll < result.best_val_nll:
                result.best_val_nll = vnll
                result.best_lam = pair.copy_lam()
                result.best_epoch = epoch
        last_good.save(pair, adam)
        result.epochs_run = epoch
        if on_epoch is not None:
            on_epoch(epoch, pair, result)

    if result.best_lam is None:
        result.best_lam = pair.copy_lam()
        result.best_epoch = result.epochs_run
    result.elapsed = time.perf_counter() - t0
    return result


def save_checkpoint(path, pair: ModelPair, *, adam: AdamState | None = None,
                    cache: LatentCache | None = None, rng_state=None,
                    epoch: int = 0, extra: dict | None = None):
    """Writes the versioned binary checkpoint container atomically: into a
    temporary file in the same directory, then renamed over path. If the
    write fails, a checkpoint already at path is left intact and the
    temporary file is removed."""
    payload = {
        "version": 1,
        "arch": pair.arch,
        "lam": pair.lam.copy(),
        "adam": None if adam is None else {
            "m": adam.m.copy(), "v": adam.v.copy(), "step": adam.step,
            "beta1": adam.beta1, "beta2": adam.beta2, "eps": adam.eps,
            "lr": adam.lr},
        "cache": None if cache is None else cache.state_dict(),
        "rng_state": rng_state,
        "epoch": epoch,
        "extra": extra or {},
    }
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> dict:
    """Reads a checkpoint payload; validates the magic header and version."""
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path} is not a checkpoint file "
                              f"(bad magic {magic!r})")
        payload = pickle.load(f)
    if payload.get("version") != 1:
        raise FormatError(f"unsupported checkpoint version "
                          f"{payload.get('version')!r}")
    return payload


def restore_pair(payload) -> ModelPair:
    """Rebuilds the model pair stored in a checkpoint payload, in the dtype
    of the stored lam."""
    pair = build_architecture(payload["arch"], seed=None,
                              dtype=payload["lam"].dtype)
    pair.set_lam(payload["lam"])
    return pair


def restore_adam(payload) -> AdamState | None:
    saved = payload.get("adam")
    if saved is None:
        return None
    return AdamState(m=saved["m"].copy(), v=saved["v"].copy(),
                     step=saved["step"], beta1=saved["beta1"],
                     beta2=saved["beta2"], eps=saved["eps"], lr=saved["lr"])
