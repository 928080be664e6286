import json
import struct

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
    a = nn.flatten_params(small_net(seed=7))
    b = nn.flatten_params(small_net(seed=7))
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
    nn.set_params(net, np.zeros(nn.flatten_params(net).size))
    tr = nn.forward(net, np.ones(4))
    assert tr.v == 0.0
    assert np.array_equal(tr.l_entries, np.zeros(1))
    assert np.array_equal(tr.mu, np.zeros(1))


def test_single_linear_layer_is_identity():
    layer = nn.DenseLayer(np.eye(4), np.zeros(4), nn.LINEAR)
    v = np.array([0.3, -1.2, 5.0, 0.0])
    _, out = nn.apply_layer(layer, v[None, :])
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
        assert np.isclose(one.v, batch.value[i], rtol=1e-12, atol=0.0)
        assert np.allclose(one.mu, batch.action[i], rtol=1e-12, atol=1e-300)


# ---------------------------------------------------------------------------
# backward


def test_backward_matches_finite_differences():
    net = nn.init_network([6, 8, 8], 2, 4.0, 11)
    rng = np.random.default_rng(5)
    x = rng.normal(size=6)
    hg = (rng.normal(), rng.normal(size=2), rng.normal(size=3))
    analytic, _ = nn.backward(net, nn.forward(net, x), hg)
    theta0 = nn.flatten_params(net)

    def scalar(theta):
        nn.set_params(net, theta)
        t = nn.forward(net, x)
        return hg[0] * t.v + hg[1] @ t.mu + hg[2] @ t.l_entries

    fd = fd_gradient(scalar, theta0)
    assert rel_err(analytic, fd) < 1e-4


def test_backward_input_gradient_matches_finite_differences():
    net = small_net(seed=2)
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=4)
    hg = (1.3, np.array([-0.7]), np.array([0.4]))
    _, dx = nn.backward(net, nn.forward(net, x0), hg)

    def scalar(x):
        t = nn.forward(net, x)
        return hg[0] * t.v + hg[1] @ t.mu + hg[2] @ t.l_entries

    assert rel_err(dx, fd_gradient(scalar, x0)) < 1e-4


def test_backward_zero_head_grads_give_zero_gradient():
    net = small_net()
    tr = nn.forward(net, np.ones(4))
    grad, dx = nn.backward(net, tr, (0.0, np.zeros(1), np.zeros(1)))
    assert np.all(grad == 0.0)
    assert np.all(dx == 0.0)


def test_relu_blocks_gradient_through_dead_units():
    rng = np.random.default_rng(9)
    net = small_net(seed=4)
    x = rng.normal(size=4)
    tr = nn.forward(net, x)
    dead = tr.trunk_pre[0][0] < 0.0
    assert dead.any(), "test input should kill at least one unit"
    grad, _ = nn.backward(net, tr, (1.0, np.ones(1), np.ones(1)))
    layout, _ = nn.parameter_layout(net)
    offset, shape = next((off, shp) for name, off, shp in layout
                         if name == "trunk0.w")
    w_grad = grad[offset:offset + shape[0] * shape[1]].reshape(shape)
    assert np.all(w_grad[dead] == 0.0)


def test_backward_rejects_mismatched_trace():
    net = small_net()
    other = nn.init_network([4, 8, 8, 8], 1, 4.0, 1)
    tr = nn.forward(other, np.zeros(4))
    with pytest.raises(DimensionError):
        nn.backward(net, tr, (1.0, np.zeros(1), np.zeros(1)))


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradient_is_noop():
    state = nn.AdamState.fresh(5, lr=1e-3)
    params = np.arange(5.0)
    new, state2 = nn.adam_step(params, np.zeros(5), state)
    assert np.array_equal(new, params)
    assert state2.step == 1


def test_adam_first_step_moves_by_lr_sign():
    lr = 1e-3
    state = nn.AdamState.fresh(3, lr=lr)
    params = np.zeros(3)
    g = np.array([0.5, -2.0, 1e-3])
    new, _ = nn.adam_step(params, g, state)
    expected = params - lr * g / (np.abs(g) + state.eps)
    assert np.allclose(new, expected, rtol=1e-12, atol=0.0)
    assert np.allclose(new, -lr * np.sign(g), rtol=1e-4)


def test_adam_is_pure():
    state = nn.AdamState.fresh(4, lr=1e-2)
    params = np.ones(4)
    g = np.array([1.0, -1.0, 0.5, 2.0])
    a1, s1 = nn.adam_step(params, g, state)
    a2, s2 = nn.adam_step(params, g, state)
    assert np.array_equal(a1, a2)
    assert np.array_equal(s1.m, s2.m) and np.array_equal(s1.v, s2.v)
    assert np.array_equal(params, np.ones(4))


def test_adam_rejects_nonfinite_gradient():
    state = nn.AdamState.fresh(2)
    with pytest.raises(NumericsError):
        nn.adam_step(np.zeros(2), np.array([1.0, np.nan]), state)


def test_adam_shape_mismatch():
    state = nn.AdamState.fresh(2)
    with pytest.raises(DimensionError):
        nn.adam_step(np.zeros(3), np.zeros(3), state)


# ---------------------------------------------------------------------------
# soft update


def test_soft_update_rate_one_copies_main():
    t = np.array([1.0, 2.0])
    m = np.array([-3.0, 4.0])
    assert np.array_equal(nn.soft_update(t, m, 1.0), m)


def test_soft_update_rate_zero_is_noop():
    t = np.array([1.0, 2.0])
    m = np.array([-3.0, 4.0])
    assert np.array_equal(nn.soft_update(t, m, 0.0), t)


def test_soft_update_geometric_contraction():
    rng = np.random.default_rng(12)
    target = rng.normal(size=20)
    main = rng.normal(size=20)
    rate = 0.001
    current = target.copy()
    for _ in range(100):
        current = nn.soft_update(current, main, rate)
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
    base = nn.soft_update(t, m, rate)
    shifted = nn.soft_update(t + shift, m + shift, rate)
    assert np.allclose(shifted - base, shift, atol=1e-9)


def test_soft_update_layout_mismatch():
    with pytest.raises(DimensionError):
        nn.soft_update(np.zeros(3), np.zeros(4), 0.5)


# ---------------------------------------------------------------------------
# flat parameter views


@pytest.mark.parametrize("widths,m", [((4, 8), 1), ((4, 8, 8), 2),
                                      ((3, 16, 8, 8), 3)])
def test_flatten_set_roundtrip(widths, m):
    net = nn.init_network(list(widths), m, 4.0, 21)
    flat = nn.flatten_params(net)
    nn.set_params(net, flat * 2.0)
    assert np.array_equal(nn.flatten_params(net), flat * 2.0)
    nn.set_params(net, flat)
    assert np.array_equal(nn.flatten_params(net), flat)


def test_layout_is_value_independent():
    net = small_net()
    layout1, total1 = nn.parameter_layout(net)
    nn.set_params(net, np.zeros(total1))
    layout2, total2 = nn.parameter_layout(net)
    assert layout1 == layout2 and total1 == total2


def test_bind_flat_storage_views():
    net = small_net()
    flat = nn.bind_flat_storage(net)
    flat[:] = 0.0
    tr = nn.forward(net, np.ones(4))
    assert tr.v == 0.0


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    net = nn.init_network([5, 8, 8], 2, 3.0, 33)
    adam = nn.AdamState.fresh(nn.flatten_params(net).size, lr=2e-4)
    g = np.random.default_rng(1).normal(size=adam.m.size)
    _, adam = nn.adam_step(nn.flatten_params(net), g, adam)
    path = tmp_path / "net.nnc"
    nn.save_checkpoint(path, net, adam)
    net2, adam2 = nn.load_checkpoint(path)
    assert np.array_equal(nn.flatten_params(net), nn.flatten_params(net2))
    assert np.array_equal(adam.m, adam2.m)
    assert np.array_equal(adam.v, adam2.v)
    assert adam2.step == adam.step and adam2.lr == adam.lr
    assert net2.action_head.activation == nn.SCALED_TANH
    assert net2.action_head.tanh_weight == 3.0


def test_checkpoint_forward_equality_after_load(tmp_path):
    net = nn.init_network([6, 8, 8], 1, 4.0, 3)
    adam = nn.AdamState.fresh(nn.flatten_params(net).size)
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
    adam = nn.AdamState.fresh(nn.flatten_params(net).size)
    path = tmp_path / "net.nnc"
    nn.save_checkpoint(path, net, adam)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError):
        nn.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    net = small_net()
    adam = nn.AdamState.fresh(nn.flatten_params(net).size)
    path = tmp_path / "net.nnc"
    nn.save_checkpoint(path, net, adam)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(CheckpointFormatError):
        nn.load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    net = small_net()
    adam = nn.AdamState.fresh(nn.flatten_params(net).size)
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
    adam = nn.AdamState.fresh(nn.flatten_params(net).size)
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
