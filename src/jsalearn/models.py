"""Generative/inference model pairs over binary data with discrete latent
layers (factorized Bernoulli or categorical).

Conventions used throughout:

* Latents are a list ``h`` of arrays ordered from the layer nearest the
  observation (``h[0]``) up to the top layer (``h[-1]``). The generative
  side factorizes as ``p(h_top) * prod_k p(h[k-1] | h[k]) * p(x | h[0])``
  and the inference side as ``q(h[0] | x) * prod_k q(h[k] | h[k-1])``.
* Every operation accepts a single sample (1D arrays) or a batch (2D arrays,
  rows are samples). Gradients over a batch are sums over rows unless a
  per-row weight vector is supplied.
* Each model is a chain of factors (layer spec, net, parameter slice)
  whose log-masses are summed in order: for p the prior (a net reading c,
  or None for free logits held in its slice), decoder nets L-1 ... 1, and
  decoder net 0, which scores x; for q encoder nets 0 ... L-1. Factor 0's
  net reads the datapoint (c, x or [c, x]); factor i's net reads factor
  i-1's target, and decoder net 0 also the context.
* A batch may give x (and c) once per datapoint while h holds several
  latent rows per datapoint, grouped by datapoint. One reshape rule covers
  every layout: each logits and target array is viewed as (m
  datapoints, rows per datapoint, width), so a datapoint-level array is
  (m, 1, width) and broadcasts, as a free prior's (width,) vector does.
  Factor 0's net runs once per datapoint, and its output gradient is
  summed over each datapoint's rows; the other nets run once per row.
* Scoring a batch can return its forward pass as an ``Activations`` record
  (``return_acts=True``), and the gradient methods take it back
  (``acts=``), so each row goes through each net once and the gradient
  back-propagates the stored activations. Records travel only as explicit
  arguments and return values; called with plain arrays, the gradient
  methods run the same forward pass themselves.
* A ``ModelPair`` owns one flat parameter vector ``lam``; the generative
  parameters ``theta`` are the leading block and the inference parameters
  ``phi`` the trailing block, each a live view. Optimizer updates applied to
  ``lam`` are immediately visible inside every layer.
* lam's dtype (float32 by default, float64 for the exact oracles) is the
  dtype of every array the models make: activations, log-masses, sampled
  latents and gradients. Callers pass x and c in that dtype; other input
  still works, but numpy then computes in the promoted type.

Architecture strings are either a preset name (a key of ``PRESETS``) or
an explicit description in a small grammar::

    arch     := context? "enc:" enc_chain ";" "dec:" dec_chain
    context  := "ctx:" enc_chain ";"   e.g.  ctx: 392-200t-200t-50s~B50;
    enc_chain:= INT step*              e.g.  784-200s~B200-200s~B200
    dec_chain:= stoch step*            e.g.  B200-200s~B200-784s
    step     := "-" INT act? | "~" stoch
    act      := "s" | "l" | "t"        sigmoid / leaky-relu / tanh
    stoch    := "B" INT | "C" INT "x" INT

The encoder chain runs from the observation upward and must end at a
stochastic layer; the decoder chain runs from the top latent down and must
end at the observation width with a sigmoid. A context clause makes the
model conditional: its chain is the prior net, from the context width up
to the top latent layer, its one stochastic layer. Encoder net 0 then
reads [c, x] and decoder net 0 [h[0], c], as in ``structured-50``:
``ctx: 392-200t-200t-50s~B50; enc: 392-200t-200t-50s~B50;
dec: B50-200t-200t-392s``. A Bernoulli layer ``B w`` must be fed by a
``w``-wide sigmoid; a categorical layer ``C n x k`` by a plain
``n*k``-wide linear. That last step names the factor's link (sigmoid, or a
softmax over each of the n groups of k) but adds no layer: every net that
feeds a stochastic factor ends at its last linear layer, whose outputs are
the factor's logits, and ``StochasticLayerSpec`` applies the link.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ArchParseError, DomainError, ShapeError
from .ndnet import (
    LayeredNet,
    LeakyReLU,
    Linear,
    Sigmoid,
    Tanh,
    exp_floor,
    grad_buffer,
    group_softmax,
    sigmoid,
)


# Uniforms a Bernoulli draw holds at once (StochasticLayerSpec.sample).
DRAW_CHUNK = 1 << 14


@dataclass(frozen=True)
class StochasticLayerSpec:
    """Shape and family of one stochastic layer."""

    kind: str  # "bernoulli" | "categorical"
    width: int
    n_vars: int = 0
    n_categories: int = 0

    @classmethod
    def bernoulli(cls, width: int) -> "StochasticLayerSpec":
        return cls("bernoulli", width)

    @classmethod
    def categorical(cls, n_vars: int, n_categories: int) -> "StochasticLayerSpec":
        return cls("categorical", n_vars * n_categories, n_vars, n_categories)

    def probs(self, logits, out=None):
        """The factor's probabilities: the sigmoid of each logit, or the
        softmax of each group. out (which may be logits itself) takes them
        in place."""
        if self.kind == "bernoulli":
            return sigmoid(logits, out=out)
        return group_softmax(logits, self.n_vars, self.n_categories, out=out)

    def log_mass(self, logits, values):
        """Log-mass of values under the logits (the two broadcast), summed
        over the last axis: the row dot v.a less a term of the logits alone,
        taken once per logits row in one logits-sized temporary. For
        Bernoulli factors that term is sum softplus(a), summed in one
        reduction of max(a, log1p(exp(min(a, c)))) with c = -exp_floor
        (709 in float64, 88 in float32): exp cannot overflow, and above c
        softplus(a) rounds to a. Each entry is accurate to rounding at any
        logit, and 0 at a = -inf. For categorical factors (one-hot groups)
        the term is the sum of each group's logsumexp."""
        if self.kind == "bernoulli":
            t = np.minimum(logits, -exp_floor(logits.dtype))
            np.exp(t, out=t)
            np.log1p(t, out=t)
            rest = np.add.reduce(np.maximum(t, logits, out=t), axis=-1)
        else:
            g = logits.reshape(logits.shape[:-1]
                               + (self.n_vars, self.n_categories))
            top = np.maximum.reduce(g, axis=-1, keepdims=True)
            t = np.subtract(g, top)
            np.exp(t, out=t)
            rest = np.add.reduce(np.log(np.add.reduce(t, axis=-1))
                                 + top[..., 0], axis=-1)
        # v.a as a batch of (1, n) @ (n, 1) products: no temporary.
        return (values[..., None, :] @ logits[..., :, None])[..., 0, 0] - rest

    def logit_grad(self, logits, values, weights):
        """(values - probs(logits)) * weights, in the three's broadcast
        shape: the gradient of weights * log_mass with respect to the
        logits (for categorical factors because check_domain keeps each
        group one-hot)."""
        p = self.probs(logits)
        full = p.shape == np.broadcast_shapes(p.shape, np.shape(values))
        d = np.subtract(values, p, out=p if full else None)
        d *= weights
        return d

    def sample(self, probs, rng, out=None):
        """A draw at probs, as 0/1 values of probs' dtype, written into out
        (a contiguous array of probs' shape, which may be probs itself) or a
        new array.

        A Bernoulli draw reads its uniforms DRAW_CHUNK at a time (whole
        leading-axis slices) into one small buffer, so no probs-sized
        array of uniforms exists; the doubles and their order are those of
        one rng.random(probs.shape) call."""
        shape = np.shape(probs)
        if out is None:
            out = np.empty(shape, dtype=probs.dtype)
        if self.kind == "bernoulli":
            step = max(1, DRAW_CHUNK // math.prod(shape[1:]))
            u = np.empty((min(step, shape[0]),) + shape[1:])
            for lo in range(0, shape[0], step):
                hi = min(lo + step, shape[0])
                np.less(rng.random(out=u[:hi - lo]), probs[lo:hi],
                        out=out[lo:hi])
            return out
        groups = shape[:-1] + (self.n_vars, self.n_categories)
        p = np.broadcast_to(probs, shape).reshape(groups)
        u = rng.random(groups[:-1] + (1,))
        idx = (u > np.cumsum(p, axis=-1)).sum(axis=-1, keepdims=True)
        idx = np.minimum(idx, self.n_categories - 1)
        np.equal(idx, np.arange(self.n_categories), out=out.reshape(groups))
        return out

    def check_domain(self, values):
        if not np.logical_and.reduce((values == 0.0) | (values == 1.0),
                                     axis=None):
            raise DomainError(f"{self.kind} latent entries must be 0 or 1")
        if self.kind == "bernoulli":
            return
        sums = np.add.reduce(values.reshape(
            values.shape[:-1] + (self.n_vars, self.n_categories)), axis=-1)
        if not np.logical_and.reduce(sums == 1.0, axis=None):
            raise DomainError("categorical latent groups must be one-hot")


def _2d(a):
    """A 1D array as a single row; 2D arrays pass through."""
    return a[None, :] if a.ndim == 1 else a


def _batch(x, h, c):
    """2D views of x, h and c, plus the latent rows per datapoint: x and c
    hold one row per datapoint, h one or more, grouped by datapoint."""
    x2, h2 = _2d(x), [_2d(hk) for hk in h]
    c2 = None if c is None else _2d(c)
    n_data, n_rows = x2.shape[0], h2[0].shape[0]
    if n_rows == n_data:
        return x2, h2, c2, 1
    if n_data and n_rows > n_data and n_rows % n_data == 0:
        return x2, h2, c2, n_rows // n_data
    raise ShapeError(f"{n_rows} latent rows do not split evenly over "
                     f"{n_data} datapoints")


def _view(a, m):
    """a as (m, rows per datapoint, width), by the reshape rule; a free
    prior's (width,) vector as it is."""
    return a if a.ndim == 1 else a.reshape(m, -1, a.shape[-1])


def _kept(acts, keep):
    """A net's activation list, or only its output when the caller needs no
    gradient (so the hidden activations are freed at once)."""
    return acts if keep else acts[-1:]


def _slices(nets, start):
    """The parameter slices of nets laid out one after another from start."""
    ends = np.cumsum([start] + [net.n_params for net in nets]).tolist()
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def join_rows(a, b, m):
    """Rows of a and b merged datapoint by datapoint: for each of the m
    datapoints, its rows of a, then its rows of b. Both inputs hold their
    rows grouped by datapoint, as sample_q returns them."""
    tail = a.shape[1:]
    return np.concatenate([a.reshape(m, -1, *tail), b.reshape(m, -1, *tail)],
                          axis=1).reshape(-1, *tail)


@dataclass
class Activations:
    """One model's forward pass over a batch, kept for its gradient.

    Model methods hand it out as a return value (``return_acts=True``) and
    take it back as the ``acts`` argument; no model, net or layer keeps it.
    ``data`` is the activation list of factor 0's net, which reads the
    datapoint itself (encoder net 0, or the prior net of a conditional
    model; None for a free prior), one row per datapoint. ``nets`` holds
    the activation lists of the later factors' nets in factor order
    (decoder nets L-1 ... 0, or encoder nets 1 ... L-1), each over the
    latent rows, which come in ``group`` consecutive rows per datapoint.
    """

    data: list | None
    nets: list
    group: int

    def take(self, rows):
        """The record of the latent rows ``rows``, an (m, k) index array
        whose row j picks rows of datapoint j; the datapoint pass is
        shared."""
        flat = rows.reshape(-1)
        return Activations(self.data,
                           [_each(lambda t: t[flat], a) for a in self.nets],
                           rows.shape[1])

    def join(self, other):
        """Per datapoint, this record's latent rows, then other's. Both
        records must share one datapoint pass."""
        if other.data is not self.data:
            raise ShapeError("joined records must share their datapoint pass")
        nets = [_each(lambda s, t: join_rows(s, t, s.shape[0] // self.group),
                      a, b)
                for a, b in zip(self.nets, other.nets)]
        return Activations(self.data, nets, self.group + other.group)

    def datapoints(self, sel):
        """The datapoint pass of the datapoints ``sel`` alone, with no
        latent rows (for sampling those datapoints again)."""
        return Activations(_each(lambda t: t[sel], self.data), [], 1)


def _each(f, *lists):
    """f over the entries of the activation lists, taken in step. An entry
    that is the array before it (an activation written over its Linear
    output, see LayeredNet.forward) is mapped once and stays shared."""
    out = []
    for i, ts in enumerate(zip(*lists)):
        out.append(out[-1] if i and ts[0] is lists[0][i - 1] else f(*ts))
    return out


class _FactorChain:
    """The input check, forward pass, log-mass sum, weighted backward pass
    and ancestral draw of a chain of ``_factors`` (see the module
    docstring). A subclass sets ``_factors`` and ``_context_last`` and
    defines ``_data_input`` (factor 0's net input) and ``_targets``."""

    def __init__(self, layer_specs, obs_width, params, context_width):
        self.layer_specs = layer_specs
        self.obs_width = obs_width
        self.context_width = context_width
        self.params = params
        self.n_params = params.size

    @property
    def n_layers(self):
        return len(self.layer_specs)

    def _check(self, x, h, c):
        """The checks of every scoring and gradient call."""
        if len(h) != self.n_layers:
            raise ShapeError(f"expected {self.n_layers} latent layers, got {len(h)}")
        for spec, hk in zip(self.layer_specs, h):
            if hk.shape[-1] != spec.width:
                raise ShapeError(
                    f"latent layer width {hk.shape[-1]}, expected {spec.width}")
            if hk.ndim != x.ndim:
                raise ShapeError("x and h must be all 1D or all 2D")
            spec.check_domain(hk)
        if x.shape[-1] != self.obs_width:
            raise ShapeError(
                f"observation width {x.shape[-1]}, expected {self.obs_width}")
        self._check_context(c)

    def _check_context(self, c):
        if self.context_width:
            if c is None:
                raise ShapeError("this model is conditional; context c required")
            if c.shape[-1] != self.context_width:
                raise ShapeError(
                    f"context width {c.shape[-1]}, expected {self.context_width}")
        elif c is not None:
            raise ShapeError("context passed to an unconditional model")

    def _data_pass(self, x2, c2, keep):
        """Factor 0's net over the datapoints (None for a free prior)."""
        net = self._factors[0][1]
        return (None if net is None
                else _kept(net.forward(self._data_input(x2, c2)), keep))

    def _net_input(self, i, prev, c2, group):
        """Factor i's net input: factor i-1's target rows, joined by each
        row's context for the last generative factor."""
        if self._context_last and c2 is not None and i == len(self._factors) - 1:
            return np.concatenate([prev, np.repeat(c2, group, axis=0)], axis=-1)
        return prev

    def _logits(self, acts):
        """Each factor's logits, in factor order: every net's output, or a
        free prior's parameters."""
        _, net, params = self._factors[0]
        first = self.params[params] if net is None else acts.data[-1]
        return [first] + [a[-1] for a in acts.nets]

    def _forward(self, x2, h2, c2, group, keep, data=None):
        """Every net's pass: factor 0's over the datapoints (unless data
        holds it), each later factor's over the latent rows."""
        if data is None:
            data = self._data_pass(x2, c2, keep)
        targets = self._targets(x2, h2)
        nets = [_kept(f[1].forward(self._net_input(i, t, c2, group)), keep)
                for i, (f, t) in enumerate(zip(self._factors[1:], targets), 1)]
        return Activations(data, nets, group)

    def _log_mass(self, acts, targets, m):
        """The log-mass of each latent row: every factor's term, summed in
        factor order."""
        total = 0.0
        for (spec, _, _), a, t in zip(self._factors, self._logits(acts),
                                      targets):
            total = total + spec.log_mass(_view(a, m), _view(t, m))
        return total.ravel()

    def _score(self, x, h, c, acts, return_acts):
        self._check(x, h, c)
        x2, h2, c2, group = _batch(x, h, c)
        rec = self._forward(x2, h2, c2, group, return_acts,
                            None if acts is None else acts.data)
        total = self._log_mass(rec, self._targets(x2, h2), x2.shape[0])
        out = total if x.ndim == 2 else float(total[0])
        return (out, rec) if return_acts else out

    def _grad(self, x, h, c, weights, acts, out):
        self._check(x, h, c)
        x2, h2, c2, group = _batch(x, h, c)
        m, n = x2.shape[0], h2[0].shape[0]
        dtype = self.params.dtype
        w = (np.ones(n, dtype=dtype) if weights is None
             else np.asarray(weights, dtype=dtype))
        if w.shape != (n,):
            raise ShapeError(f"weights shape {w.shape}, expected ({n},)")
        if acts is None:
            acts = self._forward(x2, h2, c2, group, keep=True)
        elif acts.group != group:
            raise ShapeError(f"activations hold {acts.group} rows per "
                             f"datapoint, h holds {group}")
        w = w.reshape(m, group, 1)
        g = grad_buffer(out, self.n_params, dtype)
        passes = [acts.data] + acts.nets
        for i, ((spec, net, params), a, t) in enumerate(
                zip(self._factors, self._logits(acts), self._targets(x2, h2))):
            gout = spec.logit_grad(_view(a, m), _view(t, m), w)
            if net is None:
                # Free prior logits: every latent row adds its gradient.
                g[params] = gout.reshape(-1, spec.width).sum(axis=0)
                continue
            # Factor 0's net ran once per datapoint: sum the output
            # gradients of a datapoint's rows and back-propagate one row.
            gout = gout.sum(axis=1) if i == 0 else gout.reshape(-1, spec.width)
            net.backward(passes[i], gout, g[params])
        return g

    def _sample(self, data, m, group, c2, rng, keep, score):
        """Ancestral draw of group rows per datapoint: factor 0 from its
        logits, each later factor given the row above. Returns the targets
        in factor order and the record of the pass: with keep, every
        activation (for a gradient); with score alone, each net's logits
        (for the log-mass); with neither, no net pass, and each net's
        probabilities overwrite its logits. keep implies score.

        Each draw overwrites the probabilities it was drawn at, except
        where they are a broadcast view: a free prior's, or factor 0's net
        output when a datapoint has several rows."""
        assert score or not keep
        rec = Activations(data, [], group)
        spec = self._factors[0][0]
        first = _view(spec.probs(self._logits(rec)[0]), m)
        own = first.ndim == 3 and group == 1
        probs = np.broadcast_to(first, (m, group, spec.width))
        targets = [spec.sample(probs, rng, out=first if own else None
                               ).reshape(m * group, spec.width)]
        for i, (spec, net, _) in enumerate(self._factors[1:], 1):
            acts = _kept(net.forward(
                self._net_input(i, targets[-1], c2, group)), keep)
            if score:
                rec.nets.append(acts)
                probs = spec.probs(acts[-1])
            else:
                probs = spec.probs(acts[-1], out=acts[-1])
            targets.append(spec.sample(probs, rng, out=probs))
        return targets, rec


class GenerativeModel(_FactorChain):
    """Latent-variable generative model p(x, h) (optionally p(x, h | c)).

    The top layer has either learned free logits (the leading block of
    params) or, in the conditional case, a prior net mapping the context c
    to its distribution. Decoder net k maps h[k] to the distribution
    parameters of h[k-1]; decoder net 0 maps h[0] (concatenated with c when
    conditional) to Bernoulli logits of the observation.
    """

    _context_last = True

    def __init__(self, layer_specs, decoder_nets, obs_width, params,
                 prior_logits=None, prior_net=None, context_width=0):
        assert (prior_logits is None) != (prior_net is None)
        super().__init__(layer_specs, obs_width, params, context_width)
        self.decoder_nets = decoder_nets
        self.prior_logits = prior_logits
        self.prior_net = prior_net
        n_prior = (prior_net.n_params if prior_net is not None
                   else layer_specs[-1].width)
        dec = _slices(decoder_nets, n_prior)
        outs = [StochasticLayerSpec.bernoulli(obs_width)] + list(layer_specs)
        self._factors = [(layer_specs[-1], prior_net, slice(0, n_prior))] + [
            (outs[k], decoder_nets[k], dec[k])
            for k in reversed(range(len(decoder_nets)))]

    def _data_input(self, x2, c2):
        return c2

    def _targets(self, x2, h2):
        return h2[::-1] + [x2]

    def log_joint(self, x, h, c=None, return_acts=False):
        """log p(x, h) (or log p(x, h | c)); float for 1D inputs, one entry
        per latent row for 2D.

        x (and c) may hold fewer rows than h: h's rows then come in equal
        consecutive groups, one group per datapoint. With return_acts the
        result is (log p, acts), the record grad_log_joint reuses.
        """
        return self._score(x, h, c, None, return_acts)

    def grad_log_joint(self, x, h, c=None, weights=None, acts=None,
                       out=None):
        """Gradient of log p(x, h) w.r.t. theta, flat (n_params,).

        For batched inputs the result is sum_i weights[i] * grad_i over the
        latent rows (weights default to all ones); x and c may be grouped as
        in log_joint. acts is the record log_joint returned for exactly
        these rows (Activations.take selects rows of it); without it the
        forward pass is recomputed. The gradient is written into out (a
        contiguous (n_params,) buffer of lam's dtype, every entry
        overwritten) and returned; without out it is a fresh array.
        """
        return self._grad(x, h, c, weights, acts, out)

    def sample_joint(self, rng, n=1, c=None):
        """Ancestral sample of (x, h); always batched: x is (n, obs_width).

        For conditional models n is taken from the rows of c.
        """
        self._check_context(c)
        if self.context_width:
            if c.ndim != 2:
                raise ShapeError("conditional sampling needs a 2D context batch")
            n = c.shape[0]
        targets, _ = self._sample(self._data_pass(None, c, False), n, 1, c,
                                  rng, False, False)
        return targets[-1], targets[-2::-1]


class InferenceModel(_FactorChain):
    """Factorized approximate posterior q(h | x) (or q(h | x, c)).

    Encoder net 0 maps the observation (the full context+observation vector
    when conditional) to the distribution of h[0]; encoder net k maps the
    sampled h[k-1] to the distribution of h[k]. Encoder net 0 runs once per
    datapoint however many latent rows share that datapoint.
    """

    _context_last = False

    def __init__(self, layer_specs, encoder_nets, obs_width, params,
                 context_width=0):
        super().__init__(layer_specs, obs_width, params, context_width)
        self.encoder_nets = encoder_nets
        self._factors = list(zip(layer_specs, encoder_nets,
                                 _slices(encoder_nets, 0)))

    def _data_input(self, x2, c2):
        return x2 if c2 is None else np.concatenate([c2, x2], axis=-1)

    def _targets(self, x2, h2):
        return h2

    def log_q(self, h, x, c=None, acts=None, return_acts=False):
        """log q(h | x); float for 1D inputs, one entry per latent row for
        2D.

        x (and c) may hold fewer rows than h, grouped as in
        GenerativeModel.log_joint. acts is a record from an earlier call on
        the same x and c; its encoder-net-0 pass is reused. With return_acts
        the result is (log q, acts), the record grad_log_q reuses.
        """
        return self._score(x, h, c, acts, return_acts)

    def grad_log_q(self, h, x, c=None, weights=None, acts=None, out=None):
        """Gradient of log q(h | x) w.r.t. phi, flat (n_params,); batched
        latent rows are summed with optional per-row weights. acts is the
        record log_q or sample_q returned for exactly these rows
        (Activations.take selects rows of it); without it the forward pass
        is recomputed. The gradient is written into out (a contiguous
        (n_params,) buffer of lam's dtype, every entry overwritten) and
        returned; without out it is a fresh array."""
        return self._grad(x, h, c, weights, acts, out)

    def sample_q(self, x, c=None, rng=None, return_log_q=False, *,
                 n_samples=1, acts=None, return_acts=False):
        """Ancestral sample h ~ q(. | x), n_samples latent rows per
        datapoint: rows j*n_samples to (j+1)*n_samples - 1 belong to x[j],
        drawn in that order. For 1D x and one sample the layers are 1D.

        acts is a record from an earlier call on the same x and c; its
        encoder-net-0 pass is reused. return_log_q adds log q(h | x);
        return_acts returns (h, log q, acts), the record grad_log_q reuses.
        """
        self._check_context(c)
        x2, c2 = _2d(x), None if c is None else _2d(c)
        m, n = x2.shape[0], n_samples
        data = (self._data_pass(x2, c2, return_acts) if acts is None
                else acts.data)
        score = return_log_q or return_acts
        h, rec = self._sample(data, m, n, c2, rng, return_acts, score)
        logq = self._log_mass(rec, h, m) if score else None
        if x.ndim == 1 and n == 1:
            h = [hk[0] for hk in h]
            logq = None if logq is None else float(logq[0])
        if return_acts:
            return h, logq, rec
        return (h, logq) if return_log_q else h


class ModelPair:
    """A generative model and its inference model sharing one flat parameter
    vector lam = [theta, phi]."""

    def __init__(self, gen: GenerativeModel, inf: InferenceModel,
                 lam: np.ndarray, arch: str):
        if gen.layer_specs != inf.layer_specs:
            raise ShapeError("generative and inference latent stacks differ")
        self.gen = gen
        self.inf = inf
        self.lam = lam
        self.arch = arch
        self.n_theta = gen.n_params
        self.n_phi = inf.n_params
        self.theta = lam[:self.n_theta]
        self.phi = lam[self.n_theta:]

    @property
    def layer_specs(self):
        return self.gen.layer_specs

    @property
    def context_width(self):
        return self.gen.context_width

    @property
    def dtype(self):
        return self.lam.dtype

    def set_lam(self, values):
        """Copies values into lam, cast to lam's dtype."""
        values = np.asarray(values, dtype=self.lam.dtype)
        if values.shape != self.lam.shape:
            raise ShapeError(f"lam shape {values.shape}, expected {self.lam.shape}")
        self.lam[:] = values

    def copy_lam(self):
        return self.lam.copy()


# ---------------------------------------------------------------------------
# Architecture construction

PRESETS = {
    "linear": "enc: 784-200s~B200; dec: B200-784s",
    "nonlinear": "enc: 784-200l-200l-200s~B200; dec: B200-200l-200l-784s",
    "two-layers": "enc: 784-200s~B200-200s~B200; dec: B200-200s~B200-784s",
    "categorical-20x10": "enc: 784-512l-256l-200~C20x10; dec: C20x10-256l-512l-784s",
    "structured-50": ("ctx: 392-200t-200t-50s~B50; enc: 392-200t-200t-50s~B50; "
                      "dec: B50-200t-200t-392s"),
}

_ACT_LAYERS = {"s": Sigmoid, "l": LeakyReLU, "t": Tanh}

# One token: a clause head or ';', a step ('-' width and activation
# letter), a width, a stochastic layer (after '~' or alone), or any other
# character.
_TOKEN = re.compile(r"""\s*(?P<tok>(?P<head>ctx:|enc:|dec:|;)
    | -\s*(?P<w>\d+)(?P<act>[slt]?)
    | (?P<int>\d+)
    | (?P<sep>~?)\s*(?P<stoch>B\s*(?P<b>\d+) | C\s*(?P<n>\d+)x\s*(?P<k>\d+))
    | .)""", re.X | re.S)


def _tokens(text):
    """text's tokens as (kind, value, pos), closed by an "end" token. kind
    is a head or ';'; "-" for a (width, act) step; "int" for a width;
    "stoch" or "~" for a StochasticLayerSpec; or "bad", whose value is the
    error to raise if a parse reaches it."""
    toks = []
    for m in _TOKEN.finditer(text):
        zero = [g for g in ("w", "int", "b", "n", "k")
                if m[g] and not int(m[g])]
        if zero:
            toks.append(("bad", "widths must be positive", m.start(zero[0])))
        elif m["head"]:
            toks.append((m["head"], None, m.start("tok")))
        elif m["w"]:
            toks.append(("-", (int(m["w"]), m["act"]), m.start("w")))
        elif m["int"]:
            toks.append(("int", int(m["int"]), m.start("int")))
        elif m["stoch"]:
            spec = (StochasticLayerSpec.bernoulli(int(m["b"])) if m["b"] else
                    StochasticLayerSpec.categorical(int(m["n"]), int(m["k"])))
            toks.append((m["sep"] or "stoch", spec, m.start("stoch")))
        else:
            toks.append(("bad", f"unexpected character '{m['tok']}'",
                         m.start("tok")))
    return toks + [("end", None, len(text))]


def _take(toks, i, kind, what):
    """The value and position of token i, which must be of the given kind."""
    got, value, pos = toks[i]
    if got != kind:
        raise ArchParseError(value if got == "bad" else f"expected {what}", pos)
    return value, pos


def _read_chain(toks, i):
    """The '-' steps and '~' layers from token i on, and the index of the
    token after them. They come as (run, stoch, pos) items in order: run is
    the (width, act, pos) steps that feed the layer stoch at pos; a chain
    that ends on steps (or has none) ends with stoch None."""
    items, run = [], []
    while toks[i][0] in ("-", "~"):
        kind, value, pos = toks[i]
        if kind == "-":
            run.append(value + (pos,))
        else:
            items.append((run, value, pos))
            run = []
        i += 1
    if run or not items:
        items.append((run, None, toks[i][2]))
    return items, i


def _build_net_layers(in_dim: int, run, terminal, pos: int):
    """Turns a deterministic run plus its terminal stochastic layer (or the
    Bernoulli observation when terminal is None) into ndnet layers. The
    run's last activation names the factor's link, which the factor applies
    itself, so the net ends at the run's last Linear."""
    if not run:
        raise ArchParseError("a stochastic layer needs preceding linear layers",
                             pos)
    layers = []
    cur = in_dim
    for width, act, _ in run[:-1]:
        layers.append(Linear(cur, width))
        if act:
            layers.append(_ACT_LAYERS[act]())
        cur = width
    last_width, last_act, last_pos = run[-1]
    layers.append(Linear(cur, last_width))
    if terminal is None or terminal.kind == "bernoulli":
        if last_act != "s":
            raise ArchParseError(
                "Bernoulli outputs must be produced by a sigmoid layer", last_pos)
        name = "" if terminal is None else f"B{terminal.width}"
    else:
        if last_act != "":
            raise ArchParseError(
                "categorical outputs must come from a plain linear layer",
                last_pos)
        name = f"C{terminal.n_vars}x{terminal.n_categories}"
    if terminal is not None and last_width != terminal.width:
        raise ArchParseError(f"layer width {last_width} does not match {name}",
                             pos)
    return layers


def _parse_arch(text: str):
    """Parses the grammar into (obs_width, context_width, layer_specs,
    prior_layers, enc_layer_lists, dec_layer_lists); prior_layers is None
    without a ctx: clause."""
    toks = _tokens(text)
    clauses, i = {}, 0
    for head, first, what, close in (
            ("ctx:", "int", "an integer", ";"),
            ("enc:", "int", "an integer", ";"),
            ("dec:", "stoch", "stochastic layer 'B<w>' or 'C<n>x<k>'", "end")):
        if head == "ctx:" and toks[0][0] != head:
            continue
        _take(toks, i, head, f"'{head}'")
        start = _take(toks, i + 1, first, what)
        items, i = _read_chain(toks, i + 2)
        _take(toks, i, close, "';'" if close == ";" else "end of string")
        clauses[head] = start, items
        i += 1

    (obs_width, _), enc_items = clauses["enc:"]
    if enc_items[-1][1] is None:
        raise ArchParseError("encoder chain must end at a stochastic layer",
                             enc_items[-1][2])
    layer_specs = [item[1] for item in enc_items]

    (top_spec, top_pos), dec_items = clauses["dec:"]
    dec_stochs = [top_spec] + [item[1] for item in dec_items[:-1]]
    if dec_items[-1][1] is not None:
        raise ArchParseError("decoder chain must end at the observation width",
                             dec_items[-1][2])
    if dec_stochs != list(reversed(layer_specs)):
        raise ArchParseError(
            "decoder latent layers must mirror the encoder's in reverse",
            top_pos)

    # The prior net maps the context to the top latent layer's parameters.
    context_width, prior_layers = 0, None
    if "ctx:" in clauses:
        (context_width, _), ctx_items = clauses["ctx:"]
        run, spec, pos = ctx_items[-1]
        if spec != layer_specs[-1]:
            raise ArchParseError(
                "context chain must end at the top latent layer", pos)
        if len(ctx_items) > 1:
            raise ArchParseError(
                "context chain takes one stochastic layer", ctx_items[0][2])
        prior_layers = _build_net_layers(context_width, run, spec, pos)

    # Encoder net k maps h[k-1] (net 0 [c, x]) to h[k]'s parameters.
    widths = [s.width for s in layer_specs]
    enc_layers = [_build_net_layers(w, *item) for w, item in
                  zip([context_width + obs_width] + widths, enc_items)]
    # Decoder net k maps h[k] (net 0 [h[0], c]) to h[k-1]'s parameters (net
    # 0 to x's); the chain lists the nets from the top down.
    widths[0] += context_width
    dec_layers = [_build_net_layers(w, *item) for w, item in
                  zip(widths[::-1], dec_items)][::-1]
    width, _, pos = dec_items[-1][0][-1]
    if width != obs_width:
        raise ArchParseError(
            f"decoder ends at width {width}, observation is {obs_width}", pos)
    return (obs_width, context_width, layer_specs, prior_layers, enc_layers,
            dec_layers)


def _assemble(arch, obs_width, context_width, layer_specs, prior_layers,
              enc_layer_lists, dec_layer_lists, seed, dtype):
    """Allocates the shared lam vector in dtype and binds every net into it:
    the prior net (or a free prior's logits, which start at zero), the
    decoder nets, then the encoder nets. One seeded generator initializes
    them in that order (float64 draws, each rounded to dtype); with seed
    None, lam stays zero."""
    lists = dec_layer_lists + enc_layer_lists
    n_free = layer_specs[-1].width if prior_layers is None else 0
    if prior_layers is not None:
        lists.insert(0, prior_layers)
    ends = np.cumsum([n_free] + [sum(lay.n_params for lay in lst)
                                 for lst in lists]).tolist()
    lam = np.zeros(ends[-1], dtype=dtype)
    rng = None if seed is None else np.random.default_rng(seed)
    nets = [LayeredNet(lst, rng=rng, buffer=lam[a:b])
            for lst, a, b in zip(lists, ends, ends[1:])]
    n_gen = len(lists) - len(enc_layer_lists)
    prior_net = None if prior_layers is None else nets[0]
    gen = GenerativeModel(layer_specs, nets[n_gen - len(dec_layer_lists):n_gen],
                          obs_width, params=lam[:ends[n_gen]],
                          prior_logits=lam[:n_free] if n_free else None,
                          prior_net=prior_net, context_width=context_width)
    inf = InferenceModel(layer_specs, nets[n_gen:], obs_width,
                         params=lam[ends[n_gen]:], context_width=context_width)
    return ModelPair(gen, inf, lam, arch)


def build_architecture(spec_string: str, seed: int | None = 0,
                       dtype=np.float32) -> ModelPair:
    """Builds a ModelPair from a preset name or an explicit grammar string,
    with lam in dtype: float32 for training and evaluation, float64 for the
    exact and finite-difference oracles.

    The same seed always produces bit-identical initial parameters, and
    the float32 ones are the float64 ones rounded. seed None draws none
    and leaves lam zero, for callers that overwrite it at once.
    """
    name = spec_string.strip()
    return _assemble(name, *_parse_arch(PRESETS.get(name, name)), seed, dtype)
