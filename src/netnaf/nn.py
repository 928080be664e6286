"""Minimal dense-network numerics.

Everything here is plain numpy in double precision: a ReLU trunk with three
output heads (scalar value, bounded action, lower-triangle entries), exact
reverse-mode gradients, Adam, soft target blending, and a binary checkpoint
format. Forward and backward accept a single input vector or a batch
(rows are samples); gradients are summed over the batch.
"""

from __future__ import annotations

import io
import json
import os
import struct
from dataclasses import dataclass, replace

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
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise DimensionError("weights must be 2-D and biases 1-D")
        if self.weights.shape[0] != self.biases.shape[0]:
            raise DimensionError(
                f"bias length {self.biases.shape[0]} does not match "
                f"{self.weights.shape[0]} output rows")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.activation == SCALED_TANH and not self.tanh_weight > 0:
            raise ValueError("scaled tanh weight must be positive")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise NumericsError("layer parameters must be finite")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class MlpNetwork:
    """ReLU trunk feeding three heads: value (1), action (m), scale entries (m(m+1)/2)."""

    trunk: list[DenseLayer]
    value_head: DenseLayer
    action_head: DenseLayer
    scale_head: DenseLayer
    action_dim: int

    def __post_init__(self):
        if not self.trunk:
            raise DimensionError("network needs at least one hidden layer")
        m = self.action_dim
        if m < 1:
            raise DimensionError("action dimension must be >= 1")
        width = self.trunk[-1].out_dim
        for head, want in ((self.value_head, 1),
                           (self.action_head, m),
                           (self.scale_head, m * (m + 1) // 2)):
            if head.in_dim != width:
                raise DimensionError("head input width does not match trunk output")
            if head.out_dim != want:
                raise DimensionError(
                    f"head has {head.out_dim} units, expected {want}")
        for prev, nxt in zip(self.trunk, self.trunk[1:]):
            if nxt.in_dim != prev.out_dim:
                raise DimensionError("trunk layer widths are inconsistent")

    @property
    def input_dim(self) -> int:
        return self.trunk[0].in_dim

    @property
    def tanh_weight(self) -> float:
        return self.action_head.tanh_weight

    def copy(self) -> "MlpNetwork":
        def dup(layer):
            return DenseLayer(layer.weights.copy(), layer.biases.copy(),
                              layer.activation, layer.tanh_weight)
        return MlpNetwork([dup(l) for l in self.trunk], dup(self.value_head),
                          dup(self.action_head), dup(self.scale_head),
                          self.action_dim)

    def all_layers(self) -> list[tuple[str, DenseLayer]]:
        named = [(f"trunk{i}", l) for i, l in enumerate(self.trunk)]
        named += [("value", self.value_head), ("action", self.action_head),
                  ("scale", self.scale_head)]
        return named


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
    if action_dim < 1:
        raise DimensionError("action dimension must be >= 1")
    rng = np.random.default_rng(seed)

    trunk = []
    for n_in, n_out in zip(widths, widths[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_out, n_in))
        trunk.append(DenseLayer(w, np.zeros(n_out), RELU))

    hidden = widths[-1]

    def head(units, activation, weight=0.0):
        w = rng.uniform(-1e-3, 1e-3, size=(units, hidden))
        return DenseLayer(w, np.zeros(units), activation, weight)

    m = action_dim
    return MlpNetwork(
        trunk=trunk,
        value_head=head(1, LINEAR),
        action_head=head(m, SCALED_TANH, tanh_weight),
        scale_head=head(m * (m + 1) // 2, LINEAR),
        action_dim=m,
    )


# ---------------------------------------------------------------------------
# Forward / backward


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, kept batched internally."""

    x: np.ndarray                 # (B, in)
    trunk_pre: list[np.ndarray]   # each (B, width)
    trunk_post: list[np.ndarray]
    value: np.ndarray             # (B,)
    action: np.ndarray            # (B, m)
    scale_entries: np.ndarray     # (B, m(m+1)/2)
    batched: bool

    @property
    def v(self):
        return self.value if self.batched else float(self.value[0])

    @property
    def mu(self):
        return self.action if self.batched else self.action[0]

    @property
    def l_entries(self):
        return self.scale_entries if self.batched else self.scale_entries[0]


def apply_layer(layer: DenseLayer, a: np.ndarray):
    """One layer on a batch of rows; returns (pre-activation, post-activation)."""
    pre = a @ layer.weights.T + layer.biases
    if layer.activation == RELU:
        return pre, np.maximum(pre, 0.0)
    if layer.activation == SCALED_TANH:
        return pre, layer.tanh_weight * np.tanh(pre)
    return pre, pre


def forward(net: MlpNetwork, x) -> ForwardTrace:
    """Run the network on one vector or a batch of rows."""
    arr = np.asarray(x, dtype=float)
    batched = arr.ndim == 2
    if not batched:
        if arr.ndim != 1:
            raise DimensionError("input must be 1-D or 2-D")
        arr = arr[None, :]
    if arr.shape[1] != net.input_dim:
        raise DimensionError(
            f"input width {arr.shape[1]}, network expects {net.input_dim}")

    pres, posts = [], []
    a = arr
    for layer in net.trunk:
        pre, a = apply_layer(layer, a)
        pres.append(pre)
        posts.append(a)
    _, value = apply_layer(net.value_head, a)
    _, action = apply_layer(net.action_head, a)
    _, scale = apply_layer(net.scale_head, a)
    return ForwardTrace(arr, pres, posts, value[:, 0], action, scale, batched)


def _as_batch(arr, n_rows, width, name):
    out = np.asarray(arr, dtype=float)
    if width == 0:  # scalar head
        out = out.reshape(n_rows) if out.ndim else np.full(n_rows, float(out))
        return out
    if out.ndim == 1:
        out = out[None, :] if n_rows == 1 else out
    if out.shape != (n_rows, width):
        raise DimensionError(f"{name} gradient has shape {out.shape}, "
                             f"expected {(n_rows, width)}")
    return out


def backward(net: MlpNetwork, trace: ForwardTrace, head_grads):
    """Exact gradient of sum_b <head_grads_b, head_outputs_b>.

    head_grads is (d_value, d_action, d_scale_entries); scalars / 1-D arrays
    are fine for an unbatched trace. Returns (flat parameter gradient in
    layout order, input gradient matching the trace input shape).
    """
    b = trace.x.shape[0]
    m = net.action_dim
    d_value, d_action, d_scale = head_grads
    dv = np.asarray(d_value, dtype=float).reshape(-1)
    if dv.size == 1 and b == 1:
        dv = dv.reshape(1)
    if dv.shape != (b,):
        raise DimensionError(f"value gradient has {dv.size} entries, expected {b}")
    dmu = _as_batch(d_action, b, m, "action")
    dl = _as_batch(d_scale, b, m * (m + 1) // 2, "scale")
    if len(trace.trunk_pre) != len(net.trunk):
        raise DimensionError("trace does not match this network")

    top = trace.trunk_post[-1]
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def head_back(name, layer, dout, out_post):
        if layer.activation == SCALED_TANH:
            c = layer.tanh_weight
            dz = dout * (c - out_post * out_post / c)
        else:
            dz = dout
        grads[name] = (dz.T @ top, dz.sum(axis=0))
        return dz @ layer.weights

    da = head_back("value", net.value_head, dv[:, None], trace.value[:, None])
    da += head_back("action", net.action_head, dmu, trace.action)
    da += head_back("scale", net.scale_head, dl, trace.scale_entries)

    for i in range(len(net.trunk) - 1, -1, -1):
        layer = net.trunk[i]
        dz = da * (trace.trunk_pre[i] > 0.0)
        below = trace.trunk_post[i - 1] if i > 0 else trace.x
        grads[f"trunk{i}"] = (dz.T @ below, dz.sum(axis=0))
        da = dz @ layer.weights

    flat = np.concatenate([
        np.concatenate([grads[name][0].ravel(), grads[name][1]])
        for name, _ in net.all_layers()
    ])
    dx = da if trace.batched else da[0]
    return flat, dx


# ---------------------------------------------------------------------------
# Flat parameter views


def parameter_layout(net: MlpNetwork):
    """Fixed (name, offset, shape) table for the flat parameter vector."""
    table = []
    offset = 0
    for name, layer in net.all_layers():
        table.append((f"{name}.w", offset, layer.weights.shape))
        offset += layer.weights.size
        table.append((f"{name}.b", offset, layer.biases.shape))
        offset += layer.biases.size
    return table, offset


def flatten_params(net: MlpNetwork) -> np.ndarray:
    parts = []
    for _, layer in net.all_layers():
        parts.append(layer.weights.ravel())
        parts.append(layer.biases)
    return np.concatenate(parts)


def set_params(net: MlpNetwork, flat: np.ndarray):
    """Write a flat vector back into the network arrays."""
    _, total = parameter_layout(net)
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (total,):
        raise DimensionError(f"flat vector has {flat.size} entries, expected {total}")
    pos = 0
    for _, layer in net.all_layers():
        n = layer.weights.size
        layer.weights[...] = flat[pos:pos + n].reshape(layer.weights.shape)
        pos += n
        n = layer.biases.size
        layer.biases[...] = flat[pos:pos + n]
        pos += n


def bind_flat_storage(net: MlpNetwork) -> np.ndarray:
    """Re-home all layer arrays as views into one flat buffer.

    After this, writing into the returned vector (e.g. an optimizer step)
    is immediately visible to forward/backward, with no copying.
    """
    flat = flatten_params(net)
    pos = 0
    for _, layer in net.all_layers():
        n = layer.weights.size
        layer.weights = flat[pos:pos + n].reshape(layer.weights.shape)
        pos += n
        n = layer.biases.size
        layer.biases = flat[pos:pos + n]
        pos += n
    return flat


# ---------------------------------------------------------------------------
# Optimization


@dataclass(frozen=True)
class AdamState:
    """Bias-corrected Adam accumulators for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1.25e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(cls, n_params: int, lr: float = 1.25e-5, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(np.zeros(n_params), np.zeros(n_params), 0, lr, beta1, beta2, eps)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState):
    """One Adam update. Pure: returns (new params, new state)."""
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise DimensionError("params, grads and Adam state must share one shape")
    if not np.isfinite(grads).all():
        raise NumericsError("non-finite gradient passed to Adam")
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new = params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    if not np.isfinite(new).all():
        raise NumericsError("Adam step produced non-finite parameters")
    return new, replace(state, m=m, v=v, step=t)


def soft_update(target: np.ndarray, main: np.ndarray, rate: float) -> np.ndarray:
    """Blend target toward main: rate*main + (1-rate)*target, elementwise."""
    target = np.asarray(target, dtype=float)
    main = np.asarray(main, dtype=float)
    if target.shape != main.shape:
        raise DimensionError("target and main parameter vectors differ in layout")
    if not 0.0 <= rate <= 1.0:
        raise ValueError("blend rate must be in [0, 1]")
    return rate * main + (1.0 - rate) * target


# ---------------------------------------------------------------------------
# Checkpoints


def _layer_spec(layer: DenseLayer):
    spec = {"out": layer.out_dim, "in": layer.in_dim, "activation": layer.activation}
    if layer.activation == SCALED_TANH:
        spec["tanh_weight"] = layer.tanh_weight
    return spec


def save_checkpoint(path, net: MlpNetwork, adam: AdamState):
    """Write network and optimizer state as little-endian float64 blocks."""
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
    params = flatten_params(net)
    if adam.m.shape != (total,):
        raise DimensionError("optimizer state does not match network size")
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", _VERSION))
    buf.write(struct.pack("<Q", len(blob)))
    buf.write(blob)
    buf.write(params.astype(_F8).tobytes())
    buf.write(adam.m.astype(_F8).tobytes())
    buf.write(adam.v.astype(_F8).tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _build_layer(spec, params, pos):
    n_w = spec["out"] * spec["in"]
    w = params[pos:pos + n_w].reshape(spec["out"], spec["in"])
    b = params[pos + n_w:pos + n_w + spec["out"]]
    layer = DenseLayer(w, b, spec["activation"], spec.get("tanh_weight", 0.0))
    return layer, pos + n_w + spec["out"]


def load_checkpoint(path):
    """Read a checkpoint back; returns (network, adam state), bit-exact.

    The float64 blocks are read straight into one array; the layer arrays
    and the Adam moments are views into it, so nothing is copied.
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
            specs = list(header.get("trunk", []))
            for key in ("value", "action", "scale"):
                if key not in heads:
                    raise CheckpointFormatError(f"header missing {key} head")
                specs.append(heads[key])
            declared = sum(spec["out"] * spec["in"] + spec["out"] for spec in specs)
        except (KeyError, TypeError) as exc:
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

    params, m, v = block[:total], block[total:2 * total], block[2 * total:]
    try:
        cursor = 0
        layers = []
        for spec in specs:
            layer, cursor = _build_layer(spec, params, cursor)
            layers.append(layer)
        net = MlpNetwork(layers[:-3], *layers[-3:], header["action_dim"])
        a = header["adam"]
        adam = AdamState(m, v, a["step"], a["lr"], a["beta1"], a["beta2"],
                         a["eps"])
    except (KeyError, TypeError, ValueError) as exc:  # DimensionError is a ValueError
        raise CheckpointFormatError(f"inconsistent header: {exc!r}") from exc
    return net, adam
