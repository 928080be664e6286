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

import io
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointFormatError, DimensionError, NumericsError

RELU = "relu"
LINEAR = "linear"
SCALED_TANH = "scaled_tanh"

_ACTIVATIONS = (RELU, LINEAR, SCALED_TANH)

_MAGIC = b"NNAFCKP1"
_VERSION = 1
_F8 = np.dtype("<f8")


@dataclass
class DenseLayer:
    """One fully connected layer: out = act(weights @ x + biases)."""

    weights: np.ndarray  # (out, in)
    biases: np.ndarray   # (out,)
    activation: str = LINEAR
    tanh_weight: float = 0.0  # only read when activation == SCALED_TANH

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.activation == SCALED_TANH and not self.tanh_weight > 0:
            raise ValueError("scaled tanh weight must be positive")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


def _layer_views(specs, flat: np.ndarray):
    """Each layer's (weights, biases) views of a flat parameter vector.

    This is the one definition of the layout: the layers in spec order
    (trunk..., value, action, scale), each as its row-major weights and then
    its biases. Each spec is (out, in, activation, tanh_weight).
    """
    views, pos = [], 0
    for n_out, n_in, _, _ in specs:
        end = pos + n_out * n_in
        views.append((flat[pos:end].reshape(n_out, n_in), flat[end:end + n_out]))
        pos = end + n_out
    return views


class MlpNetwork:
    """ReLU trunk feeding three heads: value (1), action (m), scale entries (m(m+1)/2).

    `params` is the network's one flat float64 parameter vector, and every
    layer's weights and biases are views into it: writing into `params` (an
    optimizer step, a soft update) is what the next forward pass sees.
    """

    def __init__(self, specs, action_dim: int, params: np.ndarray | None = None):
        """specs: one (out, in, activation, tanh_weight) per layer, the trunk
        layers and then the value, action and scale heads. params defaults
        to zeros."""
        m = action_dim
        if m < 1:
            raise DimensionError("action dimension must be >= 1")
        if len(specs) < 4:
            raise DimensionError("network needs at least one hidden layer")
        width = specs[-4][0]
        for (n_out, n_in, _, _), want in zip(specs[-3:], (1, m, m * (m + 1) // 2)):
            if n_in != width:
                raise DimensionError("head input width does not match trunk output")
            if n_out != want:
                raise DimensionError(f"head has {n_out} units, expected {want}")
        for prev, nxt in zip(specs[:-4], specs[1:-3]):
            if nxt[1] != prev[0]:
                raise DimensionError("trunk layer widths are inconsistent")
        count = sum(n_out * (n_in + 1) for n_out, n_in, _, _ in specs)
        self.params = np.zeros(count) if params is None else params
        if self.params.shape != (count,):
            raise DimensionError(f"flat vector has {self.params.size} entries, "
                                 f"expected {count}")
        layers = [DenseLayer(w, b, activation, tanh_weight)
                  for (w, b), (_, _, activation, tanh_weight)
                  in zip(_layer_views(specs, self.params), specs)]
        self.specs = specs
        self.trunk = layers[:-3]
        self.value_head, self.action_head, self.scale_head = layers[-3:]
        self.action_dim = m

    @property
    def input_dim(self) -> int:
        return self.trunk[0].in_dim

    def all_layers(self) -> list[tuple[str, DenseLayer]]:
        named = [(f"trunk{i}", l) for i, l in enumerate(self.trunk)]
        named += [("value", self.value_head), ("action", self.action_head),
                  ("scale", self.scale_head)]
        return named

    def copy(self) -> "MlpNetwork":
        return MlpNetwork(self.specs, self.action_dim, self.params.copy())


def init_network(layer_widths, action_dim: int, tanh_weight: float,
                 seed: int) -> MlpNetwork:
    """Build a fresh network: [input, hidden...] trunk widths plus the three heads.

    Trunk weights are fan-in scaled normals (suits ReLU); head weights are
    uniform in +/-1e-3 so initial value and action outputs sit near zero.
    Biases start at zero. Fixed seed gives a bit-identical network.
    """
    widths = [int(w) for w in layer_widths]
    if len(widths) < 2:
        raise DimensionError("need an input width and at least one hidden width")
    if any(w <= 0 for w in widths):
        raise DimensionError(f"layer widths must be positive, got {widths}")
    m, hidden = action_dim, widths[-1]
    specs = [(n_out, n_in, RELU, 0.0) for n_in, n_out in zip(widths, widths[1:])]
    specs += [(1, hidden, LINEAR, 0.0), (m, hidden, SCALED_TANH, tanh_weight),
              (m * (m + 1) // 2, hidden, LINEAR, 0.0)]
    net = MlpNetwork(specs, m)
    rng = np.random.default_rng(seed)
    for layer in net.trunk:
        layer.weights[...] = rng.normal(0.0, np.sqrt(2.0 / layer.in_dim),
                                        size=layer.weights.shape)
    for layer in (net.value_head, net.action_head, net.scale_head):
        layer.weights[...] = rng.uniform(-1e-3, 1e-3, size=layer.weights.shape)
    return net


# ---------------------------------------------------------------------------
# Forward / backward


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, kept batched internally.

    A trace is also a set of output buffers: `forward(..., out=trace)`
    writes a new batch of the same number of rows into its arrays.
    """

    x: np.ndarray                 # (B, in), the last input, not copied
    trunk_post: list[np.ndarray]  # each (B, width), after the ReLU
    value: np.ndarray             # (B,)
    action: np.ndarray | None     # (B, m); None from a value-only pass
    scale_entries: np.ndarray | None  # (B, m(m+1)/2); likewise
    batched: bool

    @classmethod
    def empty(cls, net: MlpNetwork, rows: int) -> ForwardTrace:
        """Unfilled buffers for a batch of `rows` samples of `net`."""
        return cls(np.empty((rows, net.input_dim)),
                   [np.empty((rows, l.out_dim)) for l in net.trunk],
                   np.empty(rows), np.empty((rows, net.action_head.out_dim)),
                   np.empty((rows, net.scale_head.out_dim)), True)

    @property
    def mu(self):
        return self.action if self.batched else self.action[0]


def apply_layer(layer: DenseLayer, a: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """One layer on a batch of rows; returns the post-activation, written
    into `out` when given. The same operations as act(a @ W.T + b), in
    place."""
    pre = np.matmul(a, layer.weights.T, out=out)
    pre += layer.biases
    if layer.activation == RELU:
        np.maximum(pre, 0.0, out=pre)
    elif layer.activation == SCALED_TANH:
        np.tanh(pre, out=pre)
        pre *= layer.tanh_weight
    return pre


def forward(net: MlpNetwork, x, out: ForwardTrace | None = None,
            value_only: bool = False) -> ForwardTrace:
    """Run the network on one vector or a batch of rows.

    Without `out`, every output array is allocated anew. With `out`, a
    trace the caller owns (from `ForwardTrace.empty` with as many rows as
    x), the pass writes into its arrays and returns it; the results are
    bit-identical either way. `value_only` runs the trunk and the value
    head only; the trace's action and scale entries are then left as they
    were (None on a new trace).
    """
    arr = np.asarray(x, dtype=float)
    batched = arr.ndim == 2
    if not batched:
        if arr.ndim != 1:
            raise DimensionError("input must be 1-D or 2-D")
        arr = arr[None, :]
    if arr.shape[1] != net.input_dim:
        raise DimensionError(
            f"input width {arr.shape[1]}, network expects {net.input_dim}")
    if out is None:
        out = ForwardTrace(arr, [None] * len(net.trunk), None, None, None, batched)
    elif out.value.shape[0] != arr.shape[0] or len(out.trunk_post) != len(net.trunk):
        raise DimensionError("output trace does not match this input and network")
    out.x, out.batched = arr, batched

    # each layer writes into its buffer when there is one, and returns it
    a = arr
    for i, layer in enumerate(net.trunk):
        a = out.trunk_post[i] = apply_layer(layer, a, out.trunk_post[i])
    value_col = None if out.value is None else out.value[:, None]
    out.value = apply_layer(net.value_head, a, value_col)[:, 0]
    if not value_only:
        out.action = apply_layer(net.action_head, a, out.action)
        out.scale_entries = apply_layer(net.scale_head, a, out.scale_entries)
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
    if len(trace.trunk_post) != len(net.trunk):
        raise DimensionError("trace does not match this network")
    if (d_value.shape, d_action.shape, d_scale.shape) != (
            trace.value.shape, trace.action.shape, trace.scale_entries.shape):
        raise DimensionError("head gradients do not match the trace's heads")
    if out is None:
        out = np.empty_like(net.params)
    elif out.shape != net.params.shape:
        raise DimensionError("gradient buffer does not match the parameters")

    views = _layer_views(net.specs, out)
    top = trace.trunk_post[-1]

    def head_back(layer, layer_views, dout, out_post):
        if layer.activation == SCALED_TANH:
            c = layer.tanh_weight
            dout = dout * (c - out_post * out_post / c)
        _fill_layer_grad(layer_views, dout, top)
        return _pull_back(dout, layer.weights)

    da = head_back(net.value_head, views[-3], d_value[:, None],
                   trace.value[:, None])
    da += head_back(net.action_head, views[-2], d_action, trace.action)
    da += head_back(net.scale_head, views[-1], d_scale, trace.scale_entries)

    for i in range(len(net.trunk) - 1, -1, -1):
        # a ReLU unit passes gradient where its output is positive
        dz = da * (trace.trunk_post[i] > 0.0)
        below = trace.trunk_post[i - 1] if i > 0 else trace.x
        _fill_layer_grad(views[i], dz, below)
        if i > 0:
            da = dz @ net.trunk[i].weights
    return out


def parameter_layout(net: MlpNetwork):
    """Fixed (name, offset, shape) table of `net.params`, and its length."""
    # the layer views of an index vector hold their own offsets
    index = np.arange(net.params.size)
    table = []
    for (name, _), (w, b) in zip(net.all_layers(),
                                 _layer_views(net.specs, index)):
        table.append((f"{name}.w", int(w[0, 0]), w.shape))
        table.append((f"{name}.b", int(b[0]), b.shape))
    return table, net.params.size


# ---------------------------------------------------------------------------
# Optimization


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators for one flat parameter vector, and
    two scratch vectors (not checkpointed) so a step allocates none."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1.25e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def fresh(cls, n_params: int, lr: float = 1.25e-5, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(np.zeros(n_params), np.zeros(n_params), 0, lr, beta1, beta2, eps)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState):
    """One Adam update of params and state, in place.

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
    state.m *= state.beta1
    state.m += np.multiply(1.0 - state.beta1, grads, out=a)
    state.v *= state.beta2
    np.multiply(1.0 - state.beta2, grads, out=b)
    state.v += np.multiply(b, grads, out=b)
    np.divide(state.m, 1.0 - state.beta1 ** t, out=a)   # m_hat
    a *= state.lr
    np.divide(state.v, 1.0 - state.beta2 ** t, out=b)   # v_hat
    np.sqrt(b, out=b)
    b += state.eps
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


def _layer_spec(layer: DenseLayer):
    spec = {"out": layer.out_dim, "in": layer.in_dim, "activation": layer.activation}
    if layer.activation == SCALED_TANH:
        spec["tanh_weight"] = layer.tanh_weight
    return spec


def save_checkpoint(path, net: MlpNetwork, adam: AdamState):
    """Write `net.params` and Adam's moments as little-endian float64 blocks."""
    layout, total = parameter_layout(net)
    header = {
        "action_dim": net.action_dim,
        "trunk": [_layer_spec(l) for l in net.trunk],
        "heads": {
            "value": _layer_spec(net.value_head),
            "action": _layer_spec(net.action_head),
            "scale": _layer_spec(net.scale_head),
        },
        "layout": [[name, off, list(shape)] for name, off, shape in layout],
        "param_count": total,
        "adam": {"step": adam.step, "lr": adam.lr, "beta1": adam.beta1,
                 "beta2": adam.beta2, "eps": adam.eps},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    if adam.m.shape != (total,):
        raise DimensionError("optimizer state does not match network size")
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", _VERSION))
    buf.write(struct.pack("<Q", len(blob)))
    buf.write(blob)
    buf.write(net.params.astype(_F8).tobytes())
    buf.write(adam.m.astype(_F8).tobytes())
    buf.write(adam.v.astype(_F8).tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path):
    """Read a checkpoint back; returns (network, adam state), bit-exact.

    The float64 blocks are read straight into one array; `net.params` and
    the Adam moments are views into it, so nothing is copied.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(len(_MAGIC) + 12)
        if len(prefix) < len(_MAGIC) + 12 or prefix[:len(_MAGIC)] != _MAGIC:
            raise CheckpointFormatError("bad magic bytes, not a checkpoint file")
        version, header_len = struct.unpack_from("<IQ", prefix, len(_MAGIC))
        if version != _VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        pos = len(prefix) + header_len
        if size < pos:
            raise CheckpointFormatError("truncated header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointFormatError(f"unreadable header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointFormatError("header is not a JSON object")

        total = header.get("param_count")
        heads = header.get("heads", {})
        try:
            specs = []
            for spec in [*header.get("trunk", []),
                         *(heads[key] for key in ("value", "action", "scale"))]:
                specs.append((spec["out"], spec["in"], spec["activation"],
                              spec.get("tanh_weight", 0.0)))
            declared = sum(n_out * n_in + n_out for n_out, n_in, _, _ in specs)
        except (KeyError, TypeError, AttributeError) as exc:
            raise CheckpointFormatError(f"malformed layer spec in header: {exc!r}") from exc
        if not isinstance(total, int) or declared != total:
            raise CheckpointFormatError(
                f"layout declares {declared} parameters, header says {total}")
        want_bytes = pos + 3 * total * 8
        if size != want_bytes:
            raise CheckpointFormatError(
                f"file has {size} bytes, expected {want_bytes}")
        block = np.empty(3 * total, dtype=_F8)
        if fh.readinto(block) != block.nbytes:
            raise CheckpointFormatError("file ended inside the parameter block")
    if not np.isfinite(block).all():
        raise CheckpointFormatError("non-finite value in the parameter or Adam blocks")

    try:
        net = MlpNetwork(specs, header["action_dim"], block[:total])
        a = header["adam"]
        adam = AdamState(block[total:2 * total], block[2 * total:], a["step"],
                         a["lr"], a["beta1"], a["beta2"], a["eps"])
    except (KeyError, TypeError, ValueError) as exc:  # DimensionError is a ValueError
        raise CheckpointFormatError(f"inconsistent header: {exc!r}") from exc
    return net, adam
