"""Quadratic advantage head on top of the raw network outputs.

The scale head emits the m(m+1)/2 entries of a lower-triangular matrix in
row-major lower-triangle order, diagonal entries stored pre-exponentiation.
From those come L (diagonal exponentiated, so it is always positive), the
positive definite P = L L^T and

    Q = V - 0.5 (u-mu)^T P (u-mu) = V - 0.5 ||L^T (u-mu)||^2.

The squared-norm form keeps Q <= V in floating point and makes u = mu the
exact argmax of Q. `quadratic_head` is the one place Q and its gradients
are computed; it builds L once for both.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError

# Raw diagonal entries are clipped to this exponent range before exp, so a
# wild early-training output cannot overflow P.
EXP_CLAMP = 10.0


def tri_size(m: int) -> int:
    return m * (m + 1) // 2


@functools.cache
def _tri_indices(m: int):
    """(rows, cols) of the packed lower triangle and the packed positions of
    its diagonal; built once per m and read-only, since every call shares them."""
    rows, cols = np.tril_indices(m)
    diag = np.flatnonzero(rows == cols)
    for idx in (rows, cols, diag):
        idx.flags.writeable = False
    return rows, cols, diag


def assemble_scale_matrix(l_entries, m: int) -> np.ndarray:
    """Lower-triangular L from its packed entries; diagonal exponentiated.

    Packing is row-major over the lower triangle, e.g. for m=2 the order is
    (0,0), (1,0), (1,1). Takes one sample or a batch (leading axis).
    """
    entries = np.asarray(l_entries, dtype=float)
    batched = entries.ndim == 2
    if entries.ndim not in (1, 2) or entries.shape[-1] != tri_size(m):
        raise DimensionError(f"l_entries must have {tri_size(m)} entries per "
                             f"sample, got shape {entries.shape}")
    if not batched:
        entries = entries[None, :]
    rows, cols, diag = _tri_indices(m)
    vals = entries.copy()
    vals[:, diag] = np.exp(np.clip(vals[:, diag], -EXP_CLAMP, EXP_CLAMP))
    L = np.zeros((entries.shape[0], m, m))
    L[:, rows, cols] = vals
    return L if batched else L[0]


def quadratic_head(value, action, scale_entries, u):
    """Q over a batch of (head outputs, action) rows, and its pullback.

    value is (B,), action and u are (B, m), scale_entries is (B, m(m+1)/2).
    Returns (q, pullback). pullback(dq) takes a (B,) vector and returns
    (d_value, d_action, d_scale): dq times the partials of Q with respect to
    the raw head outputs, shaped to feed nn.backward. The exp on the
    diagonal, and its clamp (flat outside the clip range), is accounted for.
    """
    b, m = action.shape
    if value.shape != (b,) or u.shape != (b, m) or len(scale_entries) != b:
        raise DimensionError(
            f"value {value.shape}, action {action.shape}, scale entries "
            f"{np.shape(scale_entries)} and u {u.shape} do not describe one batch")
    L = assemble_scale_matrix(scale_entries, m)
    d = u - action
    s = np.einsum("bij,bi->bj", L, d)          # L^T d
    q = value - 0.5 * np.einsum("bj,bj->b", s, s)

    def pullback(dq):
        rows, cols, diag = _tri_indices(m)
        d_action = dq[:, None] * np.einsum("bij,bj->bi", L, s)  # dq * P d
        # dq * dQ/dL[i, j] = -dq * d_i * s_j, on the packed entries only
        d_scale = -dq[:, None] * d[:, rows] * s[:, cols]
        d_scale[:, diag] *= np.where(np.abs(scale_entries[:, diag]) < EXP_CLAMP,
                                     np.diagonal(L, axis1=1, axis2=2), 0.0)
        return dq, d_action, d_scale

    return q, pullback
