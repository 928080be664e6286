"""Minimal dense-network numerics.

Everything here is plain numpy in double precision: a ReLU trunk with three
output heads (scalar value, bounded action, lower-triangle entries), exact
reverse-mode gradients, Adam, soft target blending, and a binary checkpoint
format. A network's parameters are one flat vector; its layers, the
gradient, Adam's moments and the checkpoint blocks all share its layout.
Forward accepts a single input vector or a batch (rows are samples);
backward takes a batch trace and sums gradients over the batch. Both
allocate their results unless the caller passes buffers to fill, a
`ForwardTrace` and a gradient vector it owns and reuses (the trainer keeps
one set for its update step); the results are bit-identical either way.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointFormatError, DimensionError, NumericsError

_MAGIC = b"NNAFCKP1"
_VERSION = 3
# why an older checkpoint version cannot be read; no converter is shipped
_OLD_VERSIONS = {1: " (it predates the stored run configuration)",
                 2: " (its header restates the layout and Adam's settings)"}
_F8 = np.dtype("<f8")
# Adam's decay rates and denominator guard; no run sets them
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _layer_views(table, flat: np.ndarray):
    """Each layer's (weights, biases) views of `flat`, laid out as `table`."""
    return [(flat[w_at:b_at].reshape(shape), flat[b_at:b_at + n_out])
            for (_, w_at, shape), (_, b_at, (n_out,)) in zip(table[::2], table[1::2])]


class MlpNetwork:
    """ReLU trunk feeding three heads: a linear value (1), the action (m)
    as tanh_weight * tanh, bounded by +/-tanh_weight, and linear scale
    entries (m(m+1)/2).

    `params` is the network's one flat float64 parameter vector, laid out
    as `layout` (its `parameter_layout` table), and `layers` holds each
    layer's (weights, biases) views into it, trunk first, then value,
    action and scale: writing into `params` (an optimizer step, a soft
    update) is what the next forward pass sees.
    `run_config`, its run's configuration (a JSON object or None), is
    opaque: checkpoints store and restore it.
    """

    def __init__(self, widths, action_dim: int, tanh_weight: float,
                 params: np.ndarray | None = None, run_config=None):
        """widths: [input, hidden...]. params defaults to zeros."""
        self.widths = tuple(int(w) for w in widths)
        if len(self.widths) < 2:
            raise DimensionError("need an input width and at least one hidden width")
        if min(self.widths) <= 0:
            raise DimensionError(
                f"layer widths must be positive, got {list(self.widths)}")
        self.action_dim = int(action_dim)
        if self.action_dim < 1:
            raise DimensionError("action dimension must be >= 1")
        self.tanh_weight = float(tanh_weight)
        if not self.tanh_weight > 0:
            raise ValueError("scaled tanh weight must be positive")
        self.layout, count = parameter_layout(self)
        self.params = np.zeros(count) if params is None else params
        if self.params.shape != (count,):
            raise DimensionError(f"flat vector has {self.params.size} entries, "
                                 f"expected {count}")
        self.layers = _layer_views(self.layout, self.params)
        self.run_config = run_config

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    def copy(self) -> "MlpNetwork":
        return MlpNetwork(self.widths, self.action_dim, self.tanh_weight,
                          self.params.copy(), self.run_config)


def init_network(layer_widths, action_dim: int, tanh_weight: float,
                 seed: int) -> MlpNetwork:
    """Build a fresh network: [input, hidden...] trunk widths plus the three heads.

    Trunk weights are fan-in scaled normals (suits ReLU); head weights are
    uniform in +/-1e-3 so initial value and action outputs sit near zero.
    Biases start at zero. Fixed seed gives a bit-identical network.
    """
    net = MlpNetwork(layer_widths, action_dim, tanh_weight)
    rng = np.random.default_rng(seed)
    for weights, _ in net.layers[:-3]:
        weights[...] = rng.normal(0.0, np.sqrt(2.0 / weights.shape[1]),
                                  size=weights.shape)
    for weights, _ in net.layers[-3:]:
        weights[...] = rng.uniform(-1e-3, 1e-3, size=weights.shape)
    return net


# ---------------------------------------------------------------------------
# Forward / backward


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, one row a sample: a 1-D input
    is a batch of one.

    A trace is also a set of output buffers: `forward(..., out=trace)`
    writes a new batch of the same number of rows into its arrays.
    """

    x: np.ndarray                 # (B, in), the last input, not copied
    trunk_post: list[np.ndarray]  # each (B, width), after the ReLU
    value: np.ndarray | None      # (B,); None from an action-only pass
    action: np.ndarray | None     # (B, m); None from a value-only pass
    scale_entries: np.ndarray | None  # (B, m(m+1)/2); None unless all heads ran

    @classmethod
    def empty(cls, net: MlpNetwork, rows: int) -> ForwardTrace:
        """Unfilled buffers for a batch of `rows` samples of `net`."""
        *post, value, action, scale = (np.empty((rows, w.shape[0]))
                                       for w, _ in net.layers)
        return cls(np.empty((rows, net.input_dim)), post, value[:, 0], action,
                   scale)


def apply_layer(layer, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ W.T + b for a (weights, biases) layer on a batch of rows, written
    into `out` when given."""
    weights, biases = layer
    pre = np.matmul(a, weights.T, out=out)
    pre += biases
    return pre


def forward(net: MlpNetwork, x, out: ForwardTrace | None = None,
            head: str | None = None) -> ForwardTrace:
    """Run the network on a batch of rows, or on one vector as a batch of one.

    Without `out`, every output array is allocated anew. With `out`, a
    trace the caller owns (from `ForwardTrace.empty` with as many rows as
    x), the pass writes into its arrays and returns it; the results are
    bit-identical either way. `head` selects the heads to run: None runs
    all three; "value" (what a TD target reads) or "action" (the greedy
    policy, mu) runs the trunk and that head only, and leaves the trace's
    other heads as they were (None on a new trace).
    """
    if head not in (None, "value", "action"):
        raise ValueError(f"unknown head {head!r}")
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    elif arr.ndim != 2:
        raise DimensionError("input must be 1-D or 2-D")
    if arr.shape[1] != net.input_dim:
        raise DimensionError(
            f"input width {arr.shape[1]}, network expects {net.input_dim}")
    *trunk, value, action, scale = net.layers
    if out is None:
        out = ForwardTrace(arr, [None] * len(trunk), None, None, None)
    elif out.x.shape[0] != arr.shape[0] or len(out.trunk_post) != len(trunk):
        raise DimensionError("output trace does not match this input and network")
    out.x = arr

    # each layer writes into its buffer when there is one, and returns it
    a = arr
    for i, layer in enumerate(trunk):
        a = apply_layer(layer, a, out.trunk_post[i])
        out.trunk_post[i] = np.maximum(a, 0.0, out=a)
    if head != "action":
        value_col = None if out.value is None else out.value[:, None]
        out.value = apply_layer(value, a, value_col)[:, 0]
    if head != "value":
        mu = out.action = apply_layer(action, a, out.action)
        np.tanh(mu, out=mu)
        mu *= net.tanh_weight
    if head is None:
        out.scale_entries = apply_layer(scale, a, out.scale_entries)
    return out


def _fill_layer_grad(views, dz, below):
    """Write one layer's batch-summed (weights, biases) gradient into views."""
    np.matmul(dz.T, below, out=views[0])
    dz.sum(axis=0, out=views[1])


def _pull_back(dout: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """dout @ weights. For a one-unit layer that is an outer product, one
    rounded multiplication per entry either way, so it is formed as one."""
    if weights.shape[0] == 1:
        return np.multiply(dout, weights)
    return dout @ weights


def backward(net: MlpNetwork, trace: ForwardTrace, head_grads,
             out: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of sum_b <head_grads_b, head_outputs_b> over a batch.

    head_grads is (d_value (B,), d_action (B, m), d_scale_entries
    (B, m(m+1)/2)). Returns the parameter gradient in the layout of
    `net.params`: a new vector, or `out` filled in place when the caller
    passes one of that shape (every entry is overwritten).
    """
    d_value, d_action, d_scale = (np.asarray(g, dtype=float) for g in head_grads)
    *trunk, value, action, scale = net.layers
    if len(trace.trunk_post) != len(trunk):
        raise DimensionError("trace does not match this network")
    if (d_value.shape, d_action.shape, d_scale.shape) != (
            trace.value.shape, trace.action.shape, trace.scale_entries.shape):
        raise DimensionError("head gradients do not match the trace's heads")
    if out is None:
        out = np.empty_like(net.params)
    elif out.shape != net.params.shape:
        raise DimensionError("gradient buffer does not match the parameters")

    views = _layer_views(net.layout, out)
    top = trace.trunk_post[-1]

    def head_back(layer, layer_views, dout):
        _fill_layer_grad(layer_views, dout, top)
        return _pull_back(dout, layer[0])

    # d(c tanh z)/dz = c - (c tanh z)^2 / c, from the action head's output
    c, mu = net.tanh_weight, trace.action
    da = head_back(value, views[-3], d_value[:, None])
    da += head_back(action, views[-2], d_action * (c - mu * mu / c))
    da += head_back(scale, views[-1], d_scale)

    for i in range(len(trunk) - 1, -1, -1):
        # a ReLU unit passes gradient where its output is positive
        dz = da * (trace.trunk_post[i] > 0.0)
        below = trace.trunk_post[i - 1] if i > 0 else trace.x
        _fill_layer_grad(views[i], dz, below)
        if i > 0:
            da = dz @ trunk[i][0]
    return out


def parameter_layout(net: MlpNetwork):
    """The (name, offset, shape) table of `net.params` and its length, from
    the widths and action dimension alone: the one definition of the layout.
    The trunk's layers over [input, hidden...], then the value, action and
    scale heads, each as its row-major weights and then its biases."""
    w, m = net.widths, net.action_dim
    names = [f"trunk{i}" for i in range(len(w) - 1)] + ["value", "action", "scale"]
    shapes = [*zip(w[1:], w), (1, w[-1]), (m, w[-1]), (m * (m + 1) // 2, w[-1])]
    table, pos = [], 0
    for name, (n_out, n_in) in zip(names, shapes):
        table += [(f"{name}.w", pos, (n_out, n_in)),
                  (f"{name}.b", pos + n_out * n_in, (n_out,))]
        pos += n_out * (n_in + 1)
    return table, pos


# ---------------------------------------------------------------------------
# Optimization


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators for one flat parameter vector, and
    two scratch vectors (not checkpointed) so a step allocates none."""

    m: np.ndarray
    v: np.ndarray
    step: int
    scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (type(self.step) is int and self.step >= 0):
            raise ValueError(f"Adam needs an int step >= 0, got {self.step!r}")
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def fresh(cls, n_params: int) -> "AdamState":
        return cls(np.zeros(n_params), np.zeros(n_params), 0)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float):
    """One Adam update of params and state, in place, at learning rate lr.

    The operations and their order are those of the out-of-place formulas,
    run through the two scratch vectors, so the results are bit-identical
    to them. A non-finite gradient is rejected before anything is written;
    non-finite parameters are reported after the step wrote them.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise DimensionError("params, grads and Adam state must share one shape")
    if not np.isfinite(grads).all():
        raise NumericsError("non-finite gradient passed to Adam")
    state.step += 1
    t = state.step
    a, b = state.scratch
    state.m *= ADAM_BETA1
    state.m += np.multiply(1.0 - ADAM_BETA1, grads, out=a)
    state.v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grads, out=b)
    state.v += np.multiply(b, grads, out=b)
    np.divide(state.m, 1.0 - ADAM_BETA1 ** t, out=a)   # m_hat
    a *= lr
    np.divide(state.v, 1.0 - ADAM_BETA2 ** t, out=b)   # v_hat
    np.sqrt(b, out=b)
    b += ADAM_EPS
    params -= np.divide(a, b, out=a)
    if not np.isfinite(params).all():
        raise NumericsError("Adam step produced non-finite parameters")


def soft_update(target: np.ndarray, main: np.ndarray, rate: float):
    """Blend target toward main in place: target <- rate*main + (1-rate)*target."""
    if target.shape != main.shape:
        raise DimensionError("target and main parameter vectors differ in layout")
    if not 0.0 <= rate <= 1.0:
        raise ValueError("blend rate must be in [0, 1]")
    target *= 1.0 - rate
    target += rate * main


# ---------------------------------------------------------------------------
# Checkpoints


def _header(net: MlpNetwork, step: int) -> bytes:
    """The checkpoint header's bytes: what builds `net`, its `run_config`
    and Adam's step, as one JSON object with sorted keys."""
    return json.dumps({"widths": net.widths, "action_dim": net.action_dim,
                       "tanh_weight": net.tanh_weight, "run_config": net.run_config,
                       "adam_step": step}, sort_keys=True).encode("utf-8")


def save_checkpoint(path, net: MlpNetwork, adam: AdamState):
    """Write the JSON header (see `_header`), then `net.params` and Adam's
    moments as little-endian float64 blocks.

    The write is atomic: the bytes go to a temporary file in the same
    directory, which is flushed, synced to disk and then renamed over
    `path`. A write that fails leaves any previous file at `path` as it was
    and removes the temporary file.
    """
    if adam.m.shape != net.params.shape:
        raise DimensionError("optimizer state does not match network size")
    blob = _header(net, adam.step)
    data = b"".join([_MAGIC, struct.pack("<IQ", _VERSION, len(blob)), blob,
                     *(a.astype(_F8).tobytes() for a in (net.params, adam.m, adam.v))])
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Read a checkpoint back; returns (network, adam state), bit-exact.

    The network is built from the header's widths, action dimension, tanh
    weight and `run_config` (a JSON object or null) over the file's three
    equal float64 blocks, so their length must be the one the widths and
    action dimension give. The file is rejected unless its header bytes are
    the ones `save_checkpoint` writes for that network and Adam step, and
    version 1 and 2 files are rejected by name. The blocks are read straight
    into one array; `net.params` and the Adam moments are views into it, so
    nothing is copied.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(len(_MAGIC) + 12)
        if len(prefix) < len(_MAGIC) + 12 or prefix[:len(_MAGIC)] != _MAGIC:
            raise CheckpointFormatError("bad magic bytes, not a checkpoint file")
        version, header_len = struct.unpack_from("<IQ", prefix, len(_MAGIC))
        if version != _VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}"
                                        f"{_OLD_VERSIONS.get(version, '')}")
        pos = len(prefix) + header_len
        if size < pos:
            raise CheckpointFormatError("truncated header")
        blob = fh.read(header_len)
        total, rest = divmod(size - pos, 3 * _F8.itemsize)
        if rest:
            raise CheckpointFormatError(
                f"file has {size} bytes, not a header and 3 equal float64 blocks")
        block = np.empty(3 * total, dtype=_F8)
        if fh.readinto(block) != block.nbytes:
            raise CheckpointFormatError("file ended inside the parameter block")

    try:
        header = json.loads(blob.decode("utf-8"))
        if not isinstance(header["run_config"], (dict, type(None))):
            raise ValueError("run_config is neither an object nor null")
        net = MlpNetwork(header["widths"], header["action_dim"], header["tanh_weight"],
                         block[:total], header["run_config"])
        adam = AdamState(block[total:2 * total], block[2 * total:], header["adam_step"])
    # a JSON or Unicode error and DimensionError are ValueErrors; int() and
    # float() of an infinite or huge number raise OverflowError, and JSON
    # nested too deep a RecursionError
    except (LookupError, TypeError, ValueError, ArithmeticError, RecursionError) as exc:
        raise CheckpointFormatError(f"malformed header: {exc!r}") from exc
    if _header(net, adam.step) != blob:
        raise CheckpointFormatError("not a header this program writes")
    if not np.isfinite(block).all():
        raise CheckpointFormatError("non-finite value in the parameter or Adam blocks")
    return net, adam
