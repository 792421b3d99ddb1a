"""Dense-array numerics: layered feedforward nets with hand-derived backward
passes, an Adam optimizer, and a central finite-difference oracle.

Adam takes the ascent direction, which is what the training loop holds,
and folds both bias corrections into its step size (Kingma & Ba's
efficient ordering). One step is one walk over cache-sized blocks of the
flat vectors, and it returns the new parameters' sum of squares, taken
during that walk, so the caller's divergence test costs no further pass.

A net's parameters live in one flat vector; each layer holds reshaped
views into it, so in-place updates on the flat vector are immediately
visible to every layer (and vice versa). Nets can also be bound into a
larger caller-owned buffer, which is how a model pair keeps all its
parameters in a single optimizer-ready vector.

The parameter vector's dtype is the dtype of everything computed from it:
a net fed input of that dtype keeps it in every activation, gradient,
Adam moment and scratch buffer. Model pairs train in float32; the
finite-difference oracle and the pairs it checks are float64.

Gradients follow the same layout. LayeredNet.backward writes a net's flat
parameter gradient into a caller-owned slice when given one (out=), so a
model pair's two gradients can land straight in the training step's
buffer. A net's input is data, a context or a sampled discrete latent,
never something a gradient flows into, so backward never forms the
gradient with respect to it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError, StateError

# The numeric carrier: numpy arrays in the dtype of the parameters that
# produce them (float32 or float64).
DenseArray = np.ndarray

# Hidden Sigmoid layers clamp their outputs into [PROB_CLAMP, 1-PROB_CLAMP],
# and clamped entries get zero gradient. No stochastic factor reads a clamped
# value: a net feeding one ends at its logits, and the factor applies its own
# link (models.StochasticLayerSpec).
PROB_CLAMP = 1e-7

DEFAULT_LEAKY_SLOPE = 0.01


@functools.lru_cache(maxsize=None)
def exp_floor(dtype) -> float:
    """The whole number below which exp(-a) overflows in dtype: -709 for
    float64, -88 for float32."""
    return -float(math.floor(math.log(np.finfo(dtype).max)))


def sigmoid(a: DenseArray, out: DenseArray | None = None) -> DenseArray:
    """Elementwise logistic function 1 / (1 + exp(-a)), in one new array, or
    in out (which may be a itself).

    a is floored at exp_floor(a.dtype) (-709 for float64, -88 for float32),
    where exp(-a) is just below overflow, so no input warns: a far below
    the floor gives about 1e-308 (float32: 6e-39) instead of 0. NaN stays
    NaN."""
    out = np.maximum(a, exp_floor(a.dtype), out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def clamped_sigmoid(a: DenseArray) -> DenseArray:
    """sigmoid clamped into [PROB_CLAMP, 1-PROB_CLAMP]. The clamp works in
    the new array, never in a (which may be a read-only parameter view)."""
    out = sigmoid(a)
    return np.clip(out, PROB_CLAMP, 1.0 - PROB_CLAMP, out=out)


def clamped_sigmoid_vjp(out: DenseArray, grad: DenseArray) -> DenseArray:
    """Backward through clamped-sigmoid given its output. Clamped entries get
    zero gradient, matching what finite differences see."""
    interior = (out > PROB_CLAMP) & (out < 1.0 - PROB_CLAMP)
    return grad * out * (1.0 - out) * interior


def group_softmax(a: DenseArray, n_groups: int, group_size: int,
                  out: DenseArray | None = None) -> DenseArray:
    """Softmax applied independently to consecutive groups of the last axis,
    in one new array, or in out (which may be a itself)."""
    shape = a.shape
    g = a.reshape(shape[:-1] + (n_groups, group_size))
    p = np.subtract(g, g.max(axis=-1, keepdims=True),
                    out=None if out is None else out.reshape(g.shape))
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p.reshape(shape)


def group_softmax_vjp(out: DenseArray, grad: DenseArray, n_groups: int,
                      group_size: int) -> DenseArray:
    """Backward through group_softmax given its output. No model calls it:
    a categorical factor's logit gradient is values - probs."""
    shape = out.shape
    p = out.reshape(shape[:-1] + (n_groups, group_size))
    v = grad.reshape(shape[:-1] + (n_groups, group_size))
    dot = (p * v).sum(axis=-1, keepdims=True)
    return (p * (v - dot)).reshape(shape)


def _as2d(x: DenseArray) -> DenseArray:
    return x[None, :] if x.ndim == 1 else x


class Linear:
    """Affine layer. Weight shape (in_dim, out_dim); forward is x @ W + b."""

    def __init__(self, in_dim: int, out_dim: int):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.W: DenseArray | None = None
        self.b: DenseArray | None = None

    @property
    def n_params(self) -> int:
        return self.in_dim * self.out_dim + self.out_dim

    def bind(self, flat: DenseArray) -> None:
        w = self.in_dim * self.out_dim
        self.W = flat[:w].reshape(self.in_dim, self.out_dim)
        self.b = flat[w:]

    def init_params(self, rng: np.random.Generator) -> None:
        a = np.sqrt(6.0 / (self.in_dim + self.out_dim))
        self.W[...] = rng.uniform(-a, a, size=self.W.shape)
        self.b[...] = 0.0

    def forward(self, x: DenseArray) -> DenseArray:
        out = x @ self.W
        out += self.b  # in place: no second output-sized array
        return out

    def backward(self, x_in, x_out, grad_out, param_grad,
                 input_grad: bool = True) -> DenseArray | None:
        """Writes the W and b gradients into param_grad (a contiguous view)
        and returns the gradient w.r.t. x_in, or None without input_grad
        (a net's first layer, whose input nothing differentiates)."""
        x2, g2 = _as2d(x_in), _as2d(grad_out)
        w = self.in_dim * self.out_dim
        np.matmul(x2.T, g2, out=param_grad[:w].reshape(self.in_dim, self.out_dim))
        param_grad[w:] = g2.sum(axis=0)
        return grad_out @ self.W.T if input_grad else None


class LeakyReLU:
    def __init__(self, slope: float = DEFAULT_LEAKY_SLOPE):
        self.slope = slope

    @property
    def n_params(self) -> int:
        return 0

    def bind(self, flat):
        pass

    def init_params(self, rng):
        pass

    def forward(self, x: DenseArray) -> DenseArray:
        return np.where(x > 0, x, self.slope * x)

    def backward(self, x_in, x_out, grad_out, param_grad) -> DenseArray:
        # No mask of Python floats: np.where would make it float64.
        return np.where(x_in > 0, grad_out, self.slope * grad_out)


class Tanh:
    @property
    def n_params(self) -> int:
        return 0

    def bind(self, flat):
        pass

    def init_params(self, rng):
        pass

    def forward(self, x: DenseArray) -> DenseArray:
        return np.tanh(x)

    def backward(self, x_in, x_out, grad_out, param_grad) -> DenseArray:
        return grad_out * (1.0 - x_out * x_out)


class Sigmoid:
    """Hidden logistic activation whose output is clamped into
    [PROB_CLAMP, 1-PROB_CLAMP]."""

    @property
    def n_params(self) -> int:
        return 0

    def bind(self, flat):
        pass

    def init_params(self, rng):
        pass

    def forward(self, x: DenseArray) -> DenseArray:
        return clamped_sigmoid(x)

    def backward(self, x_in, x_out, grad_out, param_grad) -> DenseArray:
        return clamped_sigmoid_vjp(x_out, grad_out)


class LayeredNet:
    """An ordered stack of layers sharing one flat parameter vector.

    forward returns the full activation list [input, out_1, ..., out_L];
    backward consumes that list plus a gradient w.r.t. the final output and
    returns the flat parameter gradient. For batched input (rows are
    samples) the parameter gradient is the sum over rows, so callers scale
    grad_output to get means or weighted sums.
    """

    def __init__(self, layers: list, rng: np.random.Generator | None = None,
                 buffer: DenseArray | None = None):
        if not layers or not isinstance(layers[0], Linear):
            raise ShapeError("a net must start with a Linear layer")
        dim = layers[0].in_dim
        for lay in layers:
            if isinstance(lay, Linear):
                if lay.in_dim != dim:
                    raise ShapeError(
                        f"layer expects input width {lay.in_dim}, got {dim}")
                dim = lay.out_dim
        self.layers = layers
        self.in_dim = layers[0].in_dim
        self.out_dim = dim
        self.n_params = sum(lay.n_params for lay in layers)

        if buffer is None:
            buffer = np.zeros(self.n_params)
        elif buffer.shape != (self.n_params,):
            raise ShapeError(
                f"parameter buffer has size {buffer.shape}, need ({self.n_params},)")
        self.params = buffer

        self.param_slices = []
        off = 0
        for lay in layers:
            sl = slice(off, off + lay.n_params)
            self.param_slices.append(sl)
            lay.bind(self.params[sl])
            off += lay.n_params

        if rng is not None:
            for lay in layers:
                lay.init_params(rng)

    def forward(self, x: DenseArray) -> list:
        if x.ndim not in (1, 2) or x.shape[-1] != self.in_dim:
            raise ShapeError(
                f"input has shape {x.shape}, net expects last dim {self.in_dim}")
        acts = [x]
        for lay in self.layers:
            acts.append(lay.forward(acts[-1]))
        return acts

    def backward(self, activations: list, grad_output: DenseArray,
                 out: DenseArray | None = None) -> DenseArray:
        """Flat parameter gradient, written into out and returned.

        out is a caller-owned (n_params,) contiguous buffer of the
        parameters' dtype (such as a slice of a model pair's step vector),
        every entry of which is overwritten; without it a fresh array is
        returned. The gradient w.r.t. the net's input is never computed.
        """
        if len(activations) != len(self.layers) + 1:
            raise StateError(
                f"activation list has {len(activations)} entries, "
                f"expected {len(self.layers) + 1}")
        if grad_output.shape != activations[-1].shape:
            raise ShapeError(
                f"grad_output shape {grad_output.shape} does not match "
                f"output shape {activations[-1].shape}")
        out = grad_buffer(out, self.n_params, self.params.dtype)
        g = grad_output
        for i in range(len(self.layers) - 1, 0, -1):
            g = self.layers[i].backward(
                activations[i], activations[i + 1], g, out[self.param_slices[i]])
        self.layers[0].backward(activations[0], activations[1], g,
                                out[self.param_slices[0]], input_grad=False)
        return out


def grad_buffer(out: DenseArray | None, n: int, dtype) -> DenseArray:
    """out checked as a gradient destination of n entries of dtype (the
    parameters' dtype), or a fresh uninitialized one when out is None.
    Every writer overwrites all n entries, so no zero fill is needed."""
    if out is None:
        return np.empty(n, dtype=dtype)
    if (out.shape != (n,) or out.dtype != dtype
            or not out.flags.c_contiguous):
        raise ShapeError(
            f"gradient buffer has shape {out.shape} and dtype {out.dtype}, "
            f"need contiguous {np.dtype(dtype)} ({n},)")
    return out


# adam_step walks the vectors in blocks of this many entries, so that each
# block's operands stay in cache across the step's dozen elementwise
# passes (1<<15 was fastest of 1<<13..1<<16 on 0.3M and 1.2M parameters).
ADAM_BLOCK = 1 << 15


@dataclass
class AdamState:
    """First/second moment accumulators for Adam. Ascent convention:
    adam_step moves params along the supplied ascent direction d, and m and
    v are the moments of the descent gradient g = -d, exactly as a
    minimizing Adam fed g would hold them.

    m and v share the parameters' dtype. adam_step works in block-sized
    scratch buffers (two of that dtype, one bool), made on first use and
    kept here; they carry nothing from one step to the next and are not
    part of the optimizer state a checkpoint saves.
    """

    m: DenseArray
    v: DenseArray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr: float = 1e-3
    scratch: tuple = field(default=(), init=False, repr=False, compare=False)

    @classmethod
    def for_size(cls, n: int, lr: float, dtype=np.float64,
                 **kw) -> "AdamState":
        return cls(m=np.zeros(n, dtype=dtype), v=np.zeros(n, dtype=dtype),
                   lr=lr, **kw)


def adam_step(params: DenseArray, ascent: DenseArray,
              state: AdamState) -> float:
    """One Adam step along the ascent direction, in place on the flat
    vector params. Returns the sum of squares of the new params.

    Kingma & Ba's folded form (arXiv:1412.6980, Section 2): with
    g = -ascent,

        m += (1 - beta1)(g - m)     computed as m -= (1 - beta1)(ascent + m)
        v = beta2 v + (1 - beta2) g g
        params -= lr_t * m / (sqrt(v) + eps_t)

    where lr_t = lr sqrt(1 - beta2^t) / (1 - beta1^t) and
    eps_t = eps sqrt(1 - beta2^t) carry both bias corrections. v keeps the
    textbook update, bit for bit: where g*g overflows it stays inf, where
    v += (1 - beta2)(g*g - v) would form inf - inf. m and params agree
    with the textbook m_hat / v_hat form to rounding, not bit for bit.
    The step is one walk over cache-sized blocks, each written through the
    state's scratch buffers, and the sum of squares is taken from each new
    block while it is still in cache. Nothing lam-sized is allocated.

    A non-finite ascent entry raises NumericError before anything is
    written, so params, m, v and step are then unchanged. One dot product
    screens for that; only when it is not finite (a NaN or infinite entry,
    or finite entries whose squares overflow) is every entry tested.

    params, ascent, m and v must share one dtype (a float32 step fed a
    float64 array would compute in float64); the step and the sum of
    squares are taken in that dtype.
    """
    if (params.ndim != 1 or params.shape != ascent.shape
            or params.shape != state.m.shape):
        raise ShapeError(
            f"params {params.shape}, ascent {ascent.shape}, state "
            f"{state.m.shape} must all agree and be flat")
    if not params.dtype == ascent.dtype == state.m.dtype == state.v.dtype:
        raise ShapeError(
            f"params {params.dtype}, ascent {ascent.dtype}, state "
            f"{state.m.dtype}/{state.v.dtype} must share one dtype")
    size = min(params.size, ADAM_BLOCK)
    if not state.scratch or state.scratch[0].size < size:
        state.scratch = (np.empty(size, dtype=params.dtype),
                         np.empty(size, dtype=params.dtype),
                         np.empty(size, dtype=bool))
    with np.errstate(over="ignore"):
        screened = math.isfinite(float(ascent @ ascent))
    if not screened:
        finite = state.scratch[2]
        for lo in range(0, ascent.size, ADAM_BLOCK):
            d = ascent[lo:lo + ADAM_BLOCK]
            if not np.isfinite(d, out=finite[:d.size]).all():
                raise NumericError("non-finite gradient passed to adam_step")
    state.step += 1
    t = state.step
    keep1, keep2 = 1.0 - state.beta1, 1.0 - state.beta2
    root = math.sqrt(1.0 - state.beta2 ** t)
    lr_t = state.lr * root / (1.0 - state.beta1 ** t)
    eps_t = state.eps * root
    sumsq = 0.0
    for lo in range(0, params.size, ADAM_BLOCK):
        blk = slice(lo, lo + ADAM_BLOCK)
        p, d, m, v = params[blk], ascent[blk], state.m[blk], state.v[blk]
        a, b = state.scratch[0][:p.size], state.scratch[1][:p.size]
        np.add(d, m, out=a)
        a *= keep1
        m -= a
        v *= state.beta2
        np.multiply(d, keep2, out=a)
        a *= d
        v += a
        np.multiply(m, lr_t, out=a)
        np.sqrt(v, out=b)
        b += eps_t
        a /= b
        p -= a
        sumsq += float(p @ p)
    return sumsq


def finite_diff_grad(scalar_fn, params: DenseArray, eps: float = 1e-5) -> DenseArray:
    """Central-difference gradient of scalar_fn at params.

    Perturbs params in place and restores each coordinate, so scalar_fn may
    simply close over the array (e.g. a net's flat parameter vector).
    """
    grad = np.zeros(params.size)
    flat = params.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = scalar_fn(params)
        flat[i] = orig - eps
        f_minus = scalar_fn(params)
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    if not np.isfinite(grad).all():
        raise NumericError("finite differences produced non-finite values")
    return grad.reshape(params.shape)
