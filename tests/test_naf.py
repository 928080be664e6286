import numpy as np
import pytest

from netnaf import naf
from netnaf.errors import DimensionError
from netnaf.verify import fd_gradient, rel_err


def naf_q_oracle(v, mu, l_entries, u, m):
    """Q from first principles: build L row by row, P = L L^T, quadratic form."""
    L = np.zeros((m, m))
    idx = 0
    for i in range(m):
        for j in range(i + 1):
            L[i, j] = np.exp(l_entries[idx]) if i == j else l_entries[idx]
            idx += 1
    P = L @ L.T
    d = np.asarray(u, dtype=float) - np.asarray(mu, dtype=float)
    return float(v - 0.5 * d @ P @ d)


def head1(v, mu, entries, u):
    """quadratic_head on one row; returns (Q, pullback of a scalar dq)."""
    q, pullback = naf.quadratic_head(
        np.array([float(v)]), np.array([mu], dtype=float),
        np.array([entries], dtype=float), np.array([u], dtype=float))

    def grads(dq):
        dv, dmu, dl = pullback(np.array([float(dq)]))
        return float(dv[0]), dmu[0], dl[0]

    return float(q[0]), grads


def head_rows(v, mu, entries, us):
    """Q for many actions against one (V, mu, L) row."""
    n = us.shape[0]
    q, _ = naf.quadratic_head(np.full(n, float(v)), np.tile(mu, (n, 1)),
                              np.tile(entries, (n, 1)), us)
    return q


# ---------------------------------------------------------------------------
# scale matrix assembly


def test_assemble_m1_zero_entry():
    L = naf.assemble_scale_matrix(np.array([0.0]), 1)
    assert np.array_equal(L, np.array([[1.0]]))


def test_assemble_m2_zeros_give_identity():
    L = naf.assemble_scale_matrix(np.zeros(3), 2)
    assert np.array_equal(L, np.eye(2))


def test_assemble_m2_layout():
    entries = np.array([np.log(2.0), 3.0, np.log(5.0)])
    L = naf.assemble_scale_matrix(entries, 2)
    assert np.allclose(L, np.array([[2.0, 0.0], [3.0, 5.0]]), rtol=1e-15)
    assert L[0, 1] == 0.0


def test_assemble_length_mismatch():
    with pytest.raises(DimensionError):
        naf.assemble_scale_matrix(np.zeros(4), 2)


def test_assemble_clamps_extreme_diagonals():
    L = naf.assemble_scale_matrix(np.array([1e4]), 1)
    assert L[0, 0] == np.exp(naf.EXP_CLAMP)
    L = naf.assemble_scale_matrix(np.array([-1e4]), 1)
    assert L[0, 0] == np.exp(-naf.EXP_CLAMP)


# ---------------------------------------------------------------------------
# Q = V + A


def test_advantage_zero_at_mu():
    u = np.array([0.5, -0.2])
    q, _ = head1(1.25, u, [0.3, -1.0, 0.1], u)
    assert q == 1.25


def test_advantage_m1_hand_case():
    q, _ = head1(0.0, [0.0], [0.0], [2.0])
    assert q == -2.0


def test_advantage_m2_hand_case():
    # L = [[2, 0], [3, 5]], d = (1, 0): L^T d = (2, 0), A = -2
    q, _ = head1(0.0, [0.0, 0.0], [np.log(2.0), 3.0, np.log(5.0)], [1.0, 0.0])
    assert q == pytest.approx(-2.0, rel=1e-15)


def test_advantage_dimension_mismatch():
    with pytest.raises(DimensionError):
        naf.quadratic_head(np.zeros(1), np.zeros((1, 2)), np.zeros((1, 3)),
                           np.zeros((1, 3)))
    with pytest.raises(DimensionError):
        naf.quadratic_head(np.zeros(2), np.zeros((1, 2)), np.zeros((1, 3)),
                           np.zeros((1, 2)))
    with pytest.raises(DimensionError):
        naf.quadratic_head(np.zeros(1), np.zeros((1, 2)), np.zeros((2, 3)),
                           np.zeros((1, 2)))


def test_q_value_cases():
    # a batch of rows, each against the first-principles oracle
    rng = np.random.default_rng(3)
    m, b = 2, 8
    v = rng.normal(size=b)
    mu = rng.normal(size=(b, m))
    entries = rng.normal(size=(b, naf.tri_size(m)))
    u = rng.normal(size=(b, m))
    q, _ = naf.quadratic_head(v, mu, entries, u)
    for i in range(b):
        assert np.isclose(q[i], naf_q_oracle(v[i], mu[i], entries[i], u[i], m),
                          rtol=1e-12, atol=1e-15)


def test_q_maximum_found_by_monte_carlo():
    rng = np.random.default_rng(17)
    for m in (1, 2):
        v = float(rng.normal())
        mu = rng.normal(size=m)
        entries = rng.normal(0.0, 0.7, size=naf.tri_size(m))
        L = naf.assemble_scale_matrix(entries, m)
        us = mu + rng.uniform(-1.0, 1.0, size=(10_000, m))
        q = head_rows(v, mu, entries, us)
        # best sampled Q never beats V and comes within the quadratic bound
        # for the closest sample
        assert q.max() <= v
        d_min = np.linalg.norm(us - mu, axis=1).min()
        lam_max = np.linalg.eigvalsh(L @ L.T).max()
        assert v - q.max() <= 0.5 * lam_max * d_min ** 2 + 1e-12


def test_argmax_consistency_exact():
    rng = np.random.default_rng(29)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        v = float(rng.normal())
        mu = rng.normal(size=m)
        entries = rng.normal(size=naf.tri_size(m))
        u = mu + rng.normal(size=m)
        q = head_rows(v, mu, entries, np.vstack([mu, u]))
        assert q[0] == v
        if not np.array_equal(u, mu):
            assert q[1] < v


# ---------------------------------------------------------------------------
# structural properties


def test_p_symmetric_positive_definite_over_randoms():
    rng = np.random.default_rng(31)
    for _ in range(300):
        m = int(rng.integers(1, 4))
        entries = rng.normal(0.0, 2.0, size=naf.tri_size(m))
        L = naf.assemble_scale_matrix(entries, m)
        assert np.all(np.diag(L) > 0.0)
        assert np.array_equal(np.triu(L, 1), np.zeros((m, m)))
        p = L @ L.T
        assert np.array_equal(p, p.T)
        assert np.linalg.eigvalsh(p).min() > 0.0


def test_advantage_nonpositive_and_strictly_concave():
    rng = np.random.default_rng(37)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        entries = rng.normal(size=naf.tri_size(m))
        mu = rng.normal(size=m)
        u = rng.normal(0.0, 3.0, size=m)
        q, _ = head1(0.0, mu, entries, u)
        assert q <= 0.0
        if np.linalg.norm(u - mu) > 0:
            assert q < 0.0


# ---------------------------------------------------------------------------
# gradients


def test_head_gradients_at_mu():
    mu = np.array([0.4, -0.1])
    _, grads = head1(0.0, mu, [0.2, 1.0, -0.3], mu.copy())
    dv, dmu, dl = grads(2.5)
    assert dv == 2.5
    assert np.array_equal(dmu, np.zeros(2))
    assert np.array_equal(dl, np.zeros(3))


def test_head_gradients_m1_hand_case():
    # A = -0.5 exp(2l) d^2, at l=0, d=2: dA/dmu = P d = 2
    _, grads = head1(0.0, [0.0], [0.0], [2.0])
    dv, dmu, dl = grads(1.0)
    assert dv == 1.0
    assert np.allclose(dmu, [2.0], rtol=1e-15)
    assert np.allclose(dl, [-4.0], rtol=1e-15)
    # beyond the clamp the diagonal no longer moves Q
    _, grads = head1(0.0, [0.0], [2 * naf.EXP_CLAMP], [2.0])
    _, dmu, dl = grads(1.0)
    assert dmu[0] > 0.0 and dl[0] == 0.0


def test_head_gradients_match_finite_differences():
    rng = np.random.default_rng(43)
    for m in (1, 2, 3):
        for _ in range(34):
            q = naf.tri_size(m)
            mu = rng.normal(size=m)
            entries = rng.normal(0.0, 0.8, size=q)
            u = mu + rng.normal(size=m)
            dq = float(rng.normal())
            v = float(rng.normal())
            dv, dmu, dl = head1(v, mu, entries, u)[1](dq)

            packed = np.concatenate([[v], mu, entries])

            def q_of(vec):
                return dq * naf_q_oracle(vec[0], vec[1:1 + m], vec[1 + m:], u, m)

            fd = fd_gradient(q_of, packed)
            analytic = np.concatenate([[dv], dmu, dl])
            assert rel_err(analytic, fd) < 1e-4


def test_head_gradients_batched_matches_loop():
    rng = np.random.default_rng(47)
    m, b = 2, 6
    v = rng.normal(size=b)
    mu = rng.normal(size=(b, m))
    entries = rng.normal(size=(b, naf.tri_size(m)))
    u = rng.normal(size=(b, m))
    dq = rng.normal(size=b)
    q, pullback = naf.quadratic_head(v, mu, entries, u)
    dv, dmu, dl = pullback(dq)
    for i in range(b):
        q1, grads = head1(v[i], mu[i], entries[i], u[i])
        dv1, dmu1, dl1 = grads(dq[i])
        assert np.isclose(q[i], q1, rtol=1e-14)
        assert np.isclose(dv[i], dv1, rtol=1e-14)
        assert np.allclose(dmu[i], dmu1, rtol=1e-12)
        assert np.allclose(dl[i], dl1, rtol=1e-12)


def old_dense_d_scale(action, entries, u, dq, m):
    """The packed-entry pullback as first written: the full (B, m, m) dL
    tensor, indexed at the lower triangle afterwards."""
    rows, cols = np.tril_indices(m)
    diag = np.flatnonzero(rows == cols)
    L = naf.assemble_scale_matrix(entries, m)
    d = u - action
    s = np.einsum("bij,bi->bj", L, d)
    dL = -dq[:, None, None] * d[:, :, None] * s[:, None, :]
    d_scale = dL[:, rows, cols]
    d_scale[:, diag] *= np.where(np.abs(entries[:, diag]) < naf.EXP_CLAMP,
                                 np.diagonal(L, axis1=1, axis2=2), 0.0)
    return d_scale


@pytest.mark.parametrize("m", [1, 2, 3])
def test_packed_d_scale_equals_dense_formula_bit_for_bit(m):
    rng = np.random.default_rng(53 + m)
    b = 64
    for _ in range(10):
        v = rng.normal(size=b)
        mu = rng.normal(size=(b, m))
        entries = rng.normal(0.0, 3.0, size=(b, naf.tri_size(m)))
        entries[::7] *= 8.0  # some diagonals beyond the exp clamp
        u = rng.normal(size=(b, m))
        dq = rng.normal(size=b)
        _, pullback = naf.quadratic_head(v, mu, entries, u)
        assert np.array_equal(pullback(dq)[2],
                              old_dense_d_scale(mu, entries, u, dq, m))


def test_tri_indices_are_shared_and_read_only():
    for m in (1, 2, 3):
        first, again = naf._tri_indices(m), naf._tri_indices(m)
        assert all(a is b for a, b in zip(first, again))
        rows, cols = np.tril_indices(m)
        assert np.array_equal(first[0], rows) and np.array_equal(first[1], cols)
        assert np.array_equal(first[2], np.flatnonzero(rows == cols))
        for idx in first:
            with pytest.raises(ValueError):
                idx[0] = 1
