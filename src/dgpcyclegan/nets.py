"""Desk-scale generators, discriminators and their reverse-mode gradients.

Networks are dense stacks over flattened patches: leaky-rectified hidden
layers (slope 0.2) and a linear output head.  Generators expose two latent
taps, s before z, whose activations are exported on every forward pass and
which accept injected gradients on the backward pass.  Parameters live in
one flat float64 vector per network so the optimizer and checkpoints treat
every net uniformly.

Every pass runs on a row stack: an input of shape (B, ...) holds B samples,
and each layer is one (B, fan_in) @ (fan_in, fan_out) product.  Outputs keep
the input's shape, taps are (B, dim), scores (B,); backward sums parameter
gradients over the rows.  A single sample without the leading axis runs as a
stack of one, and its taps and score drop that axis.

All forward passes cache activations for exactly one matching backward
call; a cache from another network raises CacheMismatch.  Generator.taps
is the stage-limited pass for callers that read only the latents: the same
per-stage arithmetic, run only up to tap_z, keeping only the two tap
activations and no cache, so it is bit for bit forward's s and z.

A training step allocates no parameter-sized array.  backward first runs
the chain: it walks the stack from the output down, forms each stage's
gradient with respect to its pre-activation (dpre) and keeps it with the
cache.  param_grads_from then forms each layer's weight gradient as one
acts.T @ dpre product and its bias gradient as one row sum, over the rows
of every cache it is given, and writes them into a caller-owned flat buffer
(`out=buf`) or a fresh array.  backward(cache, g, out=buf) is the chain and
then param_grads_from(cache, out=buf); param_grads=False stops after the
chain and input_grad=False skips the first layer's input gradient.
The buffer may be a leading slice of one larger array: the trainer forms
each net's gradient there in turn, right before that net's Adam step.
adam_step keeps unnormalised moments and folds both bias corrections into
its step size and epsilon; it updates the moments and the parameter vector
in place, returns that same vector and uses the gradient array as scratch.
save_checkpoint writes each parameter vector's own buffer, without a copy,
and load_checkpoint reads each one straight into its rebuilt net's params.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import os
import struct
import sys

import numpy as np

from .errors import CacheMismatch, MalformedFile, ShapeMismatch
from .fileio import atomic_open

LEAKY_SLOPE = 0.2
# adam_step makes its 10 elementwise passes one block of elements at a time,
# so the four 256 KiB slices they touch stay in a core's L2 cache instead of
# streaming whole 2 MB generator vectors 10 times.  Any size gives the same bits.
ADAM_BLOCK = 32768


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, LEAKY_SLOPE * x)


def _leaky_deriv(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, 1.0, LEAKY_SLOPE)


@dataclass
class FwdCache:
    owner: int
    x_shape: tuple
    lead: tuple  # (B,) for a row stack, () for a single sample
    acts: list  # acts[0] is the (B, width) input, acts[i] the post-activation of stage i
    pres: list  # pre-activations per stage
    dpres: list | None = None  # gradients wrt pres, set by the backward chain


class DenseStack:
    """Flat-parameter dense stack shared by generators and discriminators."""

    def __init__(self, widths, rng=None):
        self.widths = tuple(int(w) for w in widths)
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ValueError(f"bad layer widths {self.widths}")
        self._slices = []
        offset = 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            w_sl = slice(offset, offset + fan_in * fan_out)
            offset += fan_in * fan_out
            b_sl = slice(offset, offset + fan_out)
            offset += fan_out
            self._slices.append((w_sl, b_sl, fan_in, fan_out))
        self.params = np.zeros(offset)
        if rng is not None:
            if not isinstance(rng, np.random.Generator):
                rng = np.random.default_rng(rng)
            # Glorot-uniform weights drawn straight into params, with
            # rng.uniform(-lim, lim)'s arithmetic low + (high - low) * u.
            for w_sl, _, fan_in, fan_out in self._slices:
                lim = np.sqrt(6.0 / (fan_in + fan_out))
                w = self.params[w_sl]
                rng.random(out=w)
                w *= lim - -lim
                w += -lim

    @property
    def n_stages(self) -> int:
        return len(self._slices)

    @property
    def n_params(self) -> int:
        return self.params.size

    def _run(self, x, stages: int | None = None, keep=None) -> FwdCache:
        """Forward through the first `stages` stages (all by default).

        With keep=None every activation and pre-activation goes into the
        cache for backward.  Otherwise the cache holds only acts[i] for i in
        keep (None elsewhere) and no pre-activation, so each stage's arrays
        are freed while the next one runs.
        """
        x = np.asarray(x, dtype=float)
        width = self.widths[0]
        lead = x.shape[:1] if x.ndim > 1 and math.prod(x.shape[1:]) == width else ()
        if not lead and x.size != width:
            raise ShapeMismatch(f"input has {x.size} values, expected {width} per row")
        a = x.reshape(-1, width)
        acts = [a if keep is None or 0 in keep else None]
        pres = []
        last = self.n_stages - 1
        for i, (w_sl, b_sl, fan_in, fan_out) in enumerate(self._slices[:stages]):
            pre = a @ self.params[w_sl].reshape(fan_in, fan_out) + self.params[b_sl]
            a = pre if i == last else _leaky(pre)
            if keep is None:
                pres.append(pre)
            acts.append(a if keep is None or i + 1 in keep else None)
        return FwdCache(owner=id(self), x_shape=x.shape, lead=lead, acts=acts, pres=pres)

    def _backprop(self, cache: FwdCache, grad_out, tap_grads=None, out=None, param_grads=True, input_grad=True):
        """Walk the stack backwards, returning (flat param grads summed over rows, grad wrt input).

        The chain keeps every stage's dpre with the cache.  With param_grads
        the parameter gradients then go into `out` (or a fresh array) through
        param_grads_from; otherwise None stands in their place.  With
        input_grad=False the first layer's input gradient is not formed and
        None stands in for it.
        """
        if cache.owner != id(self):
            raise CacheMismatch("cache was produced by a different network")
        rows = cache.acts[0].shape[0]
        g = np.asarray(grad_out, dtype=float).reshape(rows, -1)
        last = self.n_stages - 1
        cache.dpres = [None] * self.n_stages
        for i in range(last, -1, -1):
            if tap_grads is not None and (i + 1) in tap_grads:
                g = g + np.asarray(tap_grads[i + 1], dtype=float).reshape(rows, -1)
            dpre = g if i == last else g * _leaky_deriv(cache.pres[i])
            cache.dpres[i] = dpre
            if i > 0 or input_grad:
                w_sl, _, fan_in, fan_out = self._slices[i]
                g = dpre @ self.params[w_sl].reshape(fan_in, fan_out).T
        grad_x = g.reshape(cache.x_shape) if input_grad else None
        return (self.param_grads_from(cache, out=out) if param_grads else None), grad_x

    def param_grads_from(self, *caches: FwdCache, out=None) -> np.ndarray:
        """Parameter gradients summed over the rows of every cache, after its backward chain.

        Each layer's weight gradient is one acts.T @ dpre product and its
        bias gradient one row sum over the caches' stacked rows.  They are
        written into `out` when it is given, else into a fresh array, which
        is returned.
        """
        for cache in caches:
            if cache.owner != id(self):
                raise CacheMismatch("cache was produced by a different network")
            if cache.dpres is None:
                raise ValueError("cache has not been through a backward pass")
        if out is None:
            out = np.empty(self.n_params)
        elif out.shape != (self.n_params,) or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ShapeMismatch(f"out must be a contiguous float64 vector of {self.n_params} values")
        for i, (w_sl, b_sl, fan_in, fan_out) in enumerate(self._slices):
            if len(caches) == 1:
                acts, dpre = caches[0].acts[i], caches[0].dpres[i]
            else:
                acts = np.concatenate([c.acts[i] for c in caches])
                dpre = np.concatenate([c.dpres[i] for c in caches])
            np.matmul(acts.T, dpre, out=out[w_sl].reshape(fan_in, fan_out))
            np.sum(dpre, axis=0, out=out[b_sl])
        return out


class Generator(DenseStack):
    """Image-to-image stack with two exported latent taps (s then z)."""

    def __init__(self, in_dim: int, hidden=(128, 32, 32, 128), tap_s: int = 2, tap_z: int = 3, rng=None):
        super().__init__((in_dim, *hidden, in_dim), rng=rng)
        n = self.n_stages
        if not (1 <= tap_s < tap_z <= n - 1):
            raise ValueError(f"taps must satisfy 1 <= tap_s < tap_z <= {n - 1}")
        self.tap_s = int(tap_s)
        self.tap_z = int(tap_z)

    def forward(self, x):
        """Returns (y, s, z, cache) with y shaped like x and taps (B, dim)."""
        cache = self._run(x)
        y = cache.acts[-1].reshape(cache.x_shape)
        s, z = (cache.acts[t].reshape(cache.lead + (-1,)).copy() for t in (self.tap_s, self.tap_z))
        return y, s, z, cache

    def taps(self, x):
        """Returns (s, z) as forward does, from a pass that stops at tap_z and keeps no cache.

        The same stage arithmetic as forward, so the taps are bit for bit
        forward's; the stages after tap_z do not run.
        """
        cache = self._run(x, stages=self.tap_z, keep=(self.tap_s, self.tap_z))
        return tuple(cache.acts[t].reshape(cache.lead + (-1,)) for t in (self.tap_s, self.tap_z))

    def backward(self, cache: FwdCache, grad_y, grad_s=None, grad_z=None, *, out=None,
                 param_grads=True, input_grad=True):
        """Parameter and input gradients from output and tap gradients.

        Returns (param_grads, grad_x); grad_x is shaped like the forward input
        so chained generators can pass it on.  param_grads is `out` when a
        buffer is given, else a fresh array.  param_grads=False and
        input_grad=False leave out either one, with None in its place.
        """
        taps = {}
        if grad_s is not None:
            taps[self.tap_s] = grad_s
        if grad_z is not None:
            taps[self.tap_z] = grad_z
        return self._backprop(cache, grad_y, taps or None, out=out, param_grads=param_grads, input_grad=input_grad)

    def restore(self, x) -> np.ndarray:
        """Evaluation-time translation, clamped to the image range [0, 1]."""
        y, _, _, _ = self.forward(x)
        return np.clip(y, 0.0, 1.0)


class Discriminator(DenseStack):
    """Dense stack ending in a single realness score."""

    def __init__(self, in_dim: int, hidden=(64, 32), rng=None):
        super().__init__((in_dim, *hidden, 1), rng=rng)

    def forward(self, x):
        """Returns (scores, cache); one score per row."""
        cache = self._run(x)
        return cache.acts[-1].reshape(cache.lead), cache

    def backward(self, cache: FwdCache, dscore, *, out=None, param_grads=True, input_grad=True):
        """Returns (param_grads, grad_x) for upstream gradients of the scores.

        `out`, param_grads and input_grad work as in Generator.backward.
        """
        return self._backprop(cache, dscore, out=out, param_grads=param_grads, input_grad=input_grad)


@dataclass
class AdamState:
    """Per-network Adam moments; lr is mutable so schedules can adjust it.

    m and v are the unnormalised moments sum_i beta^(t-i) g_i and
    sum_i beta^(t-i) g_i^2: the textbook ones divided by (1 - beta1) and
    (1 - beta2).
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8

    @staticmethod
    def for_params(params: np.ndarray, lr: float = 2e-4) -> "AdamState":
        return AdamState(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update of params in place; returns params itself.

    The form of Kingma & Ba (2015, section 2) with the bias corrections
    folded into the step size: m = b1 m + g; v = b2 v + g g;
    params -= step m / (sqrt(v) + eps_hat), where k = sqrt((1 - b2) / (1 - b2^t)),
    step = lr (1 - b1) / ((1 - b1^t) k) and eps_hat = eps / k.  That is the
    textbook update lr m_hat / (sqrt(v_hat) + eps) up to rounding, in 10
    elementwise passes with one division.  m, v and params are updated in
    place, block by block; grads is overwritten.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeMismatch("params, grads and moments must share one shape")
    state.t += 1
    k = math.sqrt((1.0 - state.beta2) / (1.0 - state.beta2 ** state.t))
    step = state.lr * (1.0 - state.beta1) / ((1.0 - state.beta1 ** state.t) * k)
    eps = state.eps / k
    for lo in range(0, len(params), ADAM_BLOCK):
        sl = slice(lo, lo + ADAM_BLOCK)
        m, v, g, p = state.m[sl], state.v[sl], grads[sl], params[sl]
        np.multiply(m, state.beta1, out=m)
        np.add(m, g, out=m)
        np.multiply(g, g, out=g)
        np.multiply(v, state.beta2, out=v)
        np.add(v, g, out=v)
        np.sqrt(v, out=g)
        np.add(g, eps, out=g)
        np.divide(m, g, out=g)
        np.multiply(g, step, out=g)
        np.subtract(p, g, out=p)
    return params


# --- checkpoint file -------------------------------------------------------
#
# Layout (little-endian), documented in the README:
#   magic   8 bytes  b"DGPCKPT1"
#   uint32  number of networks
#   uint64  global step count
#   per network:
#     uint32 name length, name utf-8
#     uint8  kind (0 generator, 1 discriminator)
#     uint32 number of widths, uint32 widths[...]
#     int32  tap_s, int32 tap_z   (-1/-1 for discriminators)
#     uint64 parameter count, float64 params[...]

CKPT_MAGIC = b"DGPCKPT1"


def save_checkpoint(path, nets: dict, step: int = 0) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<IQ", len(nets), step))
        for name, net in nets.items():
            raw = name.encode("utf-8")
            is_gen = isinstance(net, Generator)
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", 0 if is_gen else 1))
            fh.write(struct.pack("<I", len(net.widths)))
            fh.write(struct.pack(f"<{len(net.widths)}I", *net.widths))
            tap_s = net.tap_s if is_gen else -1
            tap_z = net.tap_z if is_gen else -1
            fh.write(struct.pack("<ii", tap_s, tap_z))
            fh.write(struct.pack("<Q", net.n_params))
            # The array's own buffer, not a tobytes() copy; the same bytes.
            fh.write(np.ascontiguousarray(net.params, dtype="<f8"))


def load_checkpoint(path):
    """Rebuild the saved networks; returns (nets dict, step).

    The header fields are read from the file one by one and each parameter
    vector straight into its rebuilt net's own `params`, so loading holds
    no second copy of the file.
    """
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size

        def take(fmt):
            size = struct.calcsize(fmt)
            raw = fh.read(size)
            if len(raw) < size:
                raise MalformedFile(f"{path}: truncated checkpoint")
            return struct.unpack(fmt, raw)

        if fh.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
            raise MalformedFile(f"{path}: not a checkpoint file")
        n_nets, step = take("<IQ")
        nets = {}
        for _ in range(n_nets):
            (name_len,) = take("<I")
            name = fh.read(name_len)
            if len(name) < name_len:
                raise MalformedFile(f"{path}: truncated checkpoint")
            name = name.decode("utf-8")
            (kind,) = take("<B")
            (n_widths,) = take("<I")
            widths = take(f"<{n_widths}I")
            tap_s, tap_z = take("<ii")
            (n_params,) = take("<Q")
            if fh.tell() + 8 * n_params > end:
                raise MalformedFile(f"{path}: truncated checkpoint")
            if kind == 0:
                net = Generator(widths[0], hidden=widths[1:-1], tap_s=tap_s, tap_z=tap_z)
            elif kind == 1:
                net = Discriminator(widths[0], hidden=widths[1:-1])
            else:
                raise MalformedFile(f"{path}: unknown network kind {kind}")
            if net.n_params != n_params:
                raise MalformedFile(f"{path}: parameter count mismatch for {name!r}")
            if fh.readinto(net.params.view(np.uint8)) < 8 * n_params:
                raise MalformedFile(f"{path}: truncated checkpoint")
            if sys.byteorder != "little":
                net.params.byteswap(inplace=True)
            nets[name] = net
    return nets, step
