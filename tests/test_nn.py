import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netnaf import nn
from netnaf.errors import CheckpointFormatError, DimensionError, NumericsError
from netnaf.verify import fd_gradient, rel_err


def small_net(seed=7, widths=(4, 8, 8), m=1, tanh_weight=4.0):
    return nn.init_network(list(widths), m, tanh_weight, seed)


# ---------------------------------------------------------------------------
# init


def test_init_deterministic_under_seed():
    a = small_net(seed=7).params
    b = small_net(seed=7).params
    assert np.array_equal(a, b)


def test_init_head_widths_m1():
    net = small_net(m=1)
    assert net.value_head.out_dim == 1
    assert net.action_head.out_dim == 1
    assert net.scale_head.out_dim == 1


def test_init_head_widths_m3():
    net = small_net(m=3)
    assert net.scale_head.out_dim == 6


def test_init_rejects_bad_widths():
    with pytest.raises(DimensionError):
        nn.init_network([4, 0, 8], 1, 4.0, 0)
    with pytest.raises(DimensionError):
        nn.init_network([4, -2], 1, 4.0, 0)
    with pytest.raises(DimensionError):
        nn.init_network([4], 1, 4.0, 0)


def test_scaled_tanh_weight_must_be_positive():
    with pytest.raises(ValueError):
        nn.DenseLayer(np.eye(2), np.zeros(2), nn.SCALED_TANH, 0.0)


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_network_gives_zero_heads():
    net = small_net()
    net.params[:] = 0.0
    tr = nn.forward(net, np.ones(4))
    assert tr.value[0] == 0.0
    assert np.array_equal(tr.scale_entries[0], np.zeros(1))
    assert np.array_equal(tr.mu, np.zeros(1))


def test_single_linear_layer_is_identity():
    layer = nn.DenseLayer(np.eye(4), np.zeros(4), nn.LINEAR)
    v = np.array([0.3, -1.2, 5.0, 0.0])
    out = nn.apply_layer(layer, v[None, :])
    assert np.array_equal(out[0], v)


def test_action_head_bounded_by_tanh_weight():
    net = small_net(tanh_weight=2.5)
    rng = np.random.default_rng(0)
    xs = rng.normal(0.0, 5.0, size=(1000, 4))
    tr = nn.forward(net, xs)
    assert np.abs(tr.action).max() <= 2.5


def test_forward_dimension_mismatch():
    with pytest.raises(DimensionError):
        nn.forward(small_net(), np.zeros(5))


def test_forward_batch_matches_single():
    # batched matmul may associate differently; agreement to a few ulps
    net = small_net()
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(5, 4))
    batch = nn.forward(net, xs)
    for i, x in enumerate(xs):
        one = nn.forward(net, x)
        assert np.isclose(one.value[0], batch.value[i], rtol=1e-12, atol=0.0)
        assert np.allclose(one.mu, batch.action[i], rtol=1e-12, atol=1e-300)


# ---------------------------------------------------------------------------
# backward


def head_grads_of(rng, m):
    """Random (d_value, d_action, d_scale) for a batch of one row."""
    return (rng.normal(size=1), rng.normal(size=(1, m)),
            rng.normal(size=(1, m * (m + 1) // 2)))


def head_sum(net, x, hg):
    """sum <head_grads, head_outputs> at one input row."""
    t = nn.forward(net, x)
    return float(hg[0] @ t.value + np.sum(hg[1] * t.action)
                 + np.sum(hg[2] * t.scale_entries))


def test_backward_matches_finite_differences():
    net = nn.init_network([6, 8, 8], 2, 4.0, 11)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 6))
    hg = head_grads_of(rng, 2)
    analytic = nn.backward(net, nn.forward(net, x), hg)
    theta0 = net.params.copy()

    def scalar(theta):
        net.params[:] = theta
        return head_sum(net, x, hg)

    fd = fd_gradient(scalar, theta0)
    assert rel_err(analytic, fd) < 1e-4


def test_backward_gradient_has_the_params_layout():
    net = small_net(seed=2)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1, 4))
    hg = head_grads_of(rng, 1)
    grad = nn.backward(net, nn.forward(net, x), hg)
    assert grad.shape == net.params.shape
    layout, _ = nn.parameter_layout(net)
    offset, shape = next((off, shp) for name, off, shp in layout
                         if name == "trunk0.w")
    w_grad = grad[offset:offset + shape[0] * shape[1]].reshape(shape)
    # finite differences in the layer's own array, not in the flat vector
    weights = net.trunk[0].weights
    w0 = weights.copy()

    def scalar(w):
        weights[...] = w.reshape(shape)
        return head_sum(net, x, hg)

    assert rel_err(w_grad.ravel(), fd_gradient(scalar, w0.ravel())) < 1e-4


def test_backward_zero_head_grads_give_zero_gradient():
    net = small_net()
    tr = nn.forward(net, np.ones((1, 4)))
    grad = nn.backward(net, tr, (np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1))))
    assert np.all(grad == 0.0)


def test_relu_blocks_gradient_through_dead_units():
    rng = np.random.default_rng(9)
    net = small_net(seed=4)
    x = rng.normal(size=(1, 4))
    tr = nn.forward(net, x)
    dead = tr.trunk_post[0][0] == 0.0
    assert dead.any(), "test input should kill at least one unit"
    grad = nn.backward(net, tr, (np.ones(1), np.ones((1, 1)), np.ones((1, 1))))
    layout, _ = nn.parameter_layout(net)
    offset, shape = next((off, shp) for name, off, shp in layout
                         if name == "trunk0.w")
    w_grad = grad[offset:offset + shape[0] * shape[1]].reshape(shape)
    assert np.all(w_grad[dead] == 0.0)


def reference_backward(net, trace, head_grads):
    """backward as first written: every pullback through a weight matrix is
    a matmul, and the gradient is a new vector."""
    d_value, d_action, d_scale = head_grads
    grads = []
    top = trace.trunk_post[-1]
    da = None
    for layer, dout, post in ((net.value_head, d_value[:, None], trace.value[:, None]),
                              (net.action_head, d_action, trace.action),
                              (net.scale_head, d_scale, trace.scale_entries)):
        if layer.activation == nn.SCALED_TANH:
            c = layer.tanh_weight
            dout = dout * (c - post * post / c)
        grads.append((dout.T @ top, dout.sum(axis=0)))
        da = dout @ layer.weights if da is None else da + dout @ layer.weights
    trunk = []
    for i in range(len(net.trunk) - 1, -1, -1):
        dz = da * (trace.trunk_post[i] > 0.0)
        below = trace.trunk_post[i - 1] if i > 0 else trace.x
        trunk.insert(0, (dz.T @ below, dz.sum(axis=0)))
        da = dz @ net.trunk[i].weights
    return np.concatenate([part.ravel() for pair in trunk + grads for part in pair])


@pytest.mark.parametrize("m", [1, 2])
def test_rank_one_head_pullback_equals_matmul_bit_for_bit(m):
    net = nn.init_network([6, 16, 16], m, 4.0, 13)
    rng = np.random.default_rng(21 + m)
    heads = [(net.value_head, 1), (net.action_head, m),
             (net.scale_head, m * (m + 1) // 2)]
    for _ in range(10):
        for layer, width in heads:
            dout = rng.normal(size=(32, width))
            assert np.array_equal(nn._pull_back(dout, layer.weights),
                                  dout @ layer.weights)
        x = rng.normal(size=(32, 6))
        hg = (rng.normal(size=32), rng.normal(size=(32, m)),
              rng.normal(size=(32, m * (m + 1) // 2)))
        trace = nn.forward(net, x)
        assert np.array_equal(nn.backward(net, trace, hg),
                              reference_backward(net, trace, hg))


@pytest.mark.parametrize("m", [1, 2])
def test_forward_and_backward_fill_buffers_bit_for_bit(m):
    net = nn.init_network([6, 16, 16], m, 4.0, 17)
    rng = np.random.default_rng(31 + m)
    trace = nn.ForwardTrace.empty(net, 32)
    grad = np.empty_like(net.params)
    for _ in range(5):
        x = rng.normal(size=(32, 6))
        fresh = nn.forward(net, x)
        assert nn.forward(net, x, trace) is trace
        for name in ("value", "action", "scale_entries"):
            assert np.array_equal(getattr(trace, name), getattr(fresh, name))
        assert all(np.array_equal(a, b)
                   for a, b in zip(trace.trunk_post, fresh.trunk_post))
        hg = (rng.normal(size=32), rng.normal(size=(32, m)),
              rng.normal(size=(32, m * (m + 1) // 2)))
        assert nn.backward(net, trace, hg, grad) is grad
        assert np.array_equal(grad, nn.backward(net, fresh, hg))


def test_value_only_forward_leaves_the_other_heads_unwritten():
    net = small_net(m=2)
    x = np.random.default_rng(3).normal(size=(5, 4))
    trace = nn.ForwardTrace.empty(net, 5)
    trace.action[...] = 7.0
    trace.scale_entries[...] = 7.0
    nn.forward(net, x, trace, head="value")
    assert np.array_equal(trace.value, nn.forward(net, x).value)
    assert np.all(trace.action == 7.0) and np.all(trace.scale_entries == 7.0)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("head", ["value", "action"])
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("buffered", [False, True])
def test_one_head_forward_equals_the_full_pass_bit_for_bit(m, head, batched,
                                                          buffered):
    net = small_net(m=m, widths=(6, 16, 8))
    net.params[...] = np.random.default_rng(m).normal(size=net.params.size)
    rng = np.random.default_rng(10 + m)
    other = {"value": ("action", "scale_entries"),
             "action": ("value", "scale_entries")}[head]
    for _ in range(20):
        x = rng.normal(size=(5, 6) if batched else 6) * 10.0 ** rng.uniform(-3, 3)
        full = nn.forward(net, x)
        if buffered:
            trace = nn.ForwardTrace.empty(net, 5 if batched else 1)
            for name in other:
                getattr(trace, name)[...] = 7.0
            assert nn.forward(net, x, trace, head=head) is trace
            assert all(np.all(getattr(trace, name) == 7.0) for name in other)
        else:
            trace = nn.forward(net, x, head=head)
            assert all(getattr(trace, name) is None for name in other)
        picked = "value" if head == "value" else "action"
        assert np.array_equal(getattr(trace, picked), getattr(full, picked))
        if head == "action":
            assert np.array_equal(trace.mu, full.mu)
        assert all(np.array_equal(a, b)
                   for a, b in zip(trace.trunk_post, full.trunk_post))


def test_unknown_head_is_rejected():
    net = small_net()
    for head in ("scale", "mu", "", "Value"):
        with pytest.raises(ValueError):
            nn.forward(net, np.zeros(4), head=head)


def test_buffers_must_match():
    net = small_net()
    with pytest.raises(DimensionError):
        nn.forward(net, np.zeros((3, 4)), nn.ForwardTrace.empty(net, 4))
    tr = nn.forward(net, np.zeros((3, 4)))
    hg = (np.ones(3), np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(DimensionError):
        nn.backward(net, tr, hg, np.empty(net.params.size + 1))


def test_backward_rejects_mismatched_trace():
    net = small_net()
    other = nn.init_network([4, 8, 8, 8], 1, 4.0, 1)
    tr = nn.forward(other, np.zeros((1, 4)))
    with pytest.raises(DimensionError):
        nn.backward(net, tr, (np.ones(1), np.zeros((1, 1)), np.zeros((1, 1))))


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradient_is_noop():
    state = nn.AdamState.fresh(5, lr=1e-3)
    params = np.arange(5.0)
    nn.adam_step(params, np.zeros(5), state)
    assert np.array_equal(params, np.arange(5.0))
    assert state.step == 1


def test_adam_first_step_moves_by_lr_sign():
    lr = 1e-3
    state = nn.AdamState.fresh(3, lr=lr)
    params = np.zeros(3)
    g = np.array([0.5, -2.0, 1e-3])
    nn.adam_step(params, g, state)
    expected = -lr * g / (np.abs(g) + state.eps)
    assert np.allclose(params, expected, rtol=1e-12, atol=0.0)
    assert np.allclose(params, -lr * np.sign(g), rtol=1e-4)


def test_adam_in_place_matches_reference():
    """The in-place step equals the out-of-place formulas bit for bit."""
    rng = np.random.default_rng(31)
    n = 5000
    state = nn.AdamState.fresh(n, lr=2.5e-4)
    params = rng.normal(size=n)
    ref_params, ref_m, ref_v = params.copy(), state.m.copy(), state.v.copy()
    moments = state.m, state.v
    b1, b2 = state.beta1, state.beta2
    for t in range(1, 6):
        g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=n)
        nn.adam_step(params, g, state)
        ref_m = b1 * ref_m + (1.0 - b1) * g
        ref_v = b2 * ref_v + (1.0 - b2) * g * g
        m_hat = ref_m / (1.0 - b1 ** t)
        v_hat = ref_v / (1.0 - b2 ** t)
        ref_params = ref_params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        assert state.step == t
        assert np.array_equal(params, ref_params)
        assert np.array_equal(state.m, ref_m) and np.array_equal(state.v, ref_v)
    assert state.m is moments[0] and state.v is moments[1]


def test_adam_step_allocates_no_parameter_sized_temporary():
    n = 5000
    state = nn.AdamState.fresh(n, lr=1e-3)
    params = np.ones(n)
    g = np.random.default_rng(2).normal(size=n)
    nn.adam_step(params, g, state)
    tracemalloc.start()
    try:
        nn.adam_step(params, g, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * params.itemsize


def test_adam_rejects_nonfinite_gradient():
    state = nn.AdamState.fresh(2)
    params = np.ones(2)
    with pytest.raises(NumericsError):
        nn.adam_step(params, np.array([1.0, np.nan]), state)
    # rejected before anything is written
    assert np.array_equal(params, np.ones(2)) and state.step == 0
    assert not state.m.any() and not state.v.any()


def test_adam_shape_mismatch():
    state = nn.AdamState.fresh(2)
    with pytest.raises(DimensionError):
        nn.adam_step(np.zeros(3), np.zeros(3), state)


# ---------------------------------------------------------------------------
# soft update


def test_soft_update_rate_one_copies_main():
    t = np.array([1.0, 2.0])
    m = np.array([-3.0, 4.0])
    nn.soft_update(t, m, 1.0)
    assert np.array_equal(t, m)


def test_soft_update_rate_zero_is_noop():
    t = np.array([1.0, 2.0])
    m = np.array([-3.0, 4.0])
    nn.soft_update(t, m, 0.0)
    assert np.array_equal(t, [1.0, 2.0])


def test_soft_update_in_place_matches_reference():
    """The in-place blend equals rate*main + (1-rate)*target bit for bit."""
    rng = np.random.default_rng(32)
    target = rng.normal(size=5000)
    ref = target.copy()
    for rate in (0.001, 0.3, 0.001, 1.0, 0.0):
        main = rng.normal(scale=10.0 ** rng.integers(-3, 3), size=5000)
        nn.soft_update(target, main, rate)
        ref = rate * main + (1.0 - rate) * ref
        assert np.array_equal(target, ref)


def test_soft_update_geometric_contraction():
    rng = np.random.default_rng(12)
    target = rng.normal(size=20)
    main = rng.normal(size=20)
    rate = 0.001
    current = target.copy()
    for _ in range(100):
        nn.soft_update(current, main, rate)
    expected = (1.0 - rate) ** 100
    actual = np.linalg.norm(current - main) / np.linalg.norm(target - main)
    assert abs(actual - expected) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
       st.floats(0.0, 1.0),
       st.floats(-10, 10))
def test_soft_update_is_affine(values, rate, shift):
    t = np.asarray(values)
    m = t[::-1].copy()
    shifted = t + shift
    nn.soft_update(t, m, rate)
    nn.soft_update(shifted, m + shift, rate)
    assert np.allclose(shifted - t, shift, atol=1e-9)


def test_soft_update_layout_mismatch():
    with pytest.raises(DimensionError):
        nn.soft_update(np.zeros(3), np.zeros(4), 0.5)


# ---------------------------------------------------------------------------
# flat parameter views


def layer_arrays(net):
    """Every layer's weights then biases, flattened in layer order."""
    return np.concatenate([a for _, l in net.all_layers()
                           for a in (l.weights.ravel(), l.biases)])


@pytest.mark.parametrize("widths,m", [((4, 8), 1), ((4, 8, 8), 2),
                                      ((3, 16, 8, 8), 3)])
def test_flatten_set_roundtrip(widths, m):
    net = nn.init_network(list(widths), m, 4.0, 21)
    flat = net.params.copy()
    assert np.array_equal(layer_arrays(net), flat)
    net.params[:] = flat * 2.0
    assert np.array_equal(layer_arrays(net), flat * 2.0)
    net.params[:] = flat
    assert np.array_equal(layer_arrays(net), flat)


def test_layout_is_value_independent():
    net = small_net()
    layout1, total1 = nn.parameter_layout(net)
    net.params[:] = 0.0
    layout2, total2 = nn.parameter_layout(net)
    assert layout1 == layout2 and total1 == total2


def test_params_writes_seen_by_forward():
    net = small_net()
    net.params[:] = 0.0
    assert nn.forward(net, np.ones(4)).value[0] == 0.0
    layout, _ = nn.parameter_layout(net)
    offset = next(off for name, off, _ in layout if name == "value.b")
    net.params[offset] = 2.5
    assert net.value_head.biases[0] == 2.5
    assert nn.forward(net, np.ones(4)).value[0] == 2.5


def test_copy_shares_no_memory():
    net = small_net()
    dup = net.copy()
    assert np.array_equal(dup.params, net.params)
    assert not np.shares_memory(dup.params, net.params)
    for (_, a), (_, b) in zip(net.all_layers(), dup.all_layers()):
        assert np.shares_memory(b.weights, dup.params)
        assert not np.shares_memory(a.weights, b.weights)
    dup.params[:] = 0.0
    assert np.array_equal(net.params, small_net().params)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    net = nn.init_network([5, 8, 8], 2, 3.0, 33)
    adam = nn.AdamState.fresh(net.params.size, lr=2e-4)
    g = np.random.default_rng(1).normal(size=adam.m.size)
    nn.adam_step(net.params, g, adam)
    path = tmp_path / "net.nnc"
    nn.save_checkpoint(path, net, adam)
    net2, adam2 = nn.load_checkpoint(path)
    assert np.array_equal(net.params, net2.params)
    # the layers and the moments are views into the one block read
    assert np.shares_memory(net2.trunk[0].weights, net2.params)
    assert adam2.m.base is not None and net2.params.base is adam2.m.base
    assert np.array_equal(adam.m, adam2.m)
    assert np.array_equal(adam.v, adam2.v)
    assert adam2.step == adam.step and adam2.lr == adam.lr
    assert net2.action_head.activation == nn.SCALED_TANH
    assert net2.action_head.tanh_weight == 3.0


def test_checkpoint_write_that_fails_midway_keeps_the_previous_file(
        tmp_path, monkeypatch):
    path = tmp_path / "final.nnc"
    net = small_net()
    nn.save_checkpoint(path, net, nn.AdamState.fresh(net.params.size))
    before = path.read_bytes()

    class FailingWrite:
        """A file whose write stores half the bytes, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("No space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        return FailingWrite(open(file, mode, *args, **kwargs))

    # the module's own name `open` shadows the builtin for save_checkpoint
    monkeypatch.setattr(nn, "open", failing_open, raising=False)
    other = small_net(seed=8)
    with pytest.raises(OSError):
        nn.save_checkpoint(path, other, nn.AdamState.fresh(other.params.size))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["final.nnc"]
    # a write that succeeds replaces the file and leaves no temporary file
    nn.save_checkpoint(path, other, nn.AdamState.fresh(other.params.size))
    assert np.array_equal(nn.load_checkpoint(path)[0].params, other.params)
    assert [p.name for p in tmp_path.iterdir()] == ["final.nnc"]


def test_checkpoint_forward_equality_after_load(tmp_path):
    net = nn.init_network([6, 8, 8], 1, 4.0, 3)
    adam = nn.AdamState.fresh(net.params.size)
    path = tmp_path / "net.nnc"
    nn.save_checkpoint(path, net, adam)
    net2, _ = nn.load_checkpoint(path)
    xs = np.random.default_rng(8).normal(size=(100, 6))
    a, b = nn.forward(net, xs), nn.forward(net2, xs)
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.action, b.action)
    assert np.array_equal(a.scale_entries, b.scale_entries)


def test_checkpoint_corrupt_magic(tmp_path):
    net = small_net()
    adam = nn.AdamState.fresh(net.params.size)
    path = tmp_path / "net.nnc"
    nn.save_checkpoint(path, net, adam)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        nn.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    net = small_net()
    adam = nn.AdamState.fresh(net.params.size)
    path = tmp_path / "net.nnc"
    nn.save_checkpoint(path, net, adam)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(CheckpointFormatError):
        nn.load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    net = small_net()
    adam = nn.AdamState.fresh(net.params.size)
    path = tmp_path / "net.nnc"
    nn.save_checkpoint(path, net, adam)
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        nn.load_checkpoint(path)


def checkpoint_with_header(tmp_path, edit):
    """Save a small checkpoint, then replace its JSON header by edit(header)."""
    net = small_net()
    adam = nn.AdamState.fresh(net.params.size)
    path = tmp_path / "net.nnc"
    nn.save_checkpoint(path, net, adam)
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, 12)
    header = edit(json.loads(raw[20:20 + hlen]))
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob
                     + raw[20 + hlen:])
    return path


def test_checkpoint_inconsistent_header(tmp_path):
    def edit(header):
        header["param_count"] += 7
        return header

    with pytest.raises(CheckpointFormatError):
        nn.load_checkpoint(checkpoint_with_header(tmp_path, edit))


def _drop_trunk_in(header):
    del header["trunk"][0]["in"]
    return header


def _drop_activation(header):
    del header["heads"]["value"]["activation"]
    return header


@pytest.mark.parametrize("edit", [_drop_trunk_in, _drop_activation,
                                  lambda header: [header]],
                         ids=["missing_in", "missing_activation", "list"])
def test_checkpoint_malformed_header(tmp_path, edit):
    with pytest.raises(CheckpointFormatError):
        nn.load_checkpoint(checkpoint_with_header(tmp_path, edit))


@pytest.mark.parametrize("block", [0, 1, 2], ids=["params", "adam_m", "adam_v"])
def test_checkpoint_nonfinite_block(tmp_path, block):
    net = small_net()
    adam = nn.AdamState.fresh(net.params.size)
    path = tmp_path / "net.nnc"
    nn.save_checkpoint(path, net, adam)
    raw = bytearray(path.read_bytes())
    # the three float64 blocks end the file; poison the middle of one
    at = len(raw) - (3 - block) * net.params.size * 8 + 8 * 3
    raw[at:at + 8] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="non-finite"):
        nn.load_checkpoint(path)
