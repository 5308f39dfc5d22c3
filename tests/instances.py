"""Admissible instance generators and test helpers shared across test modules."""

from __future__ import annotations

import numpy as np


def fail_first_solve(monkeypatch) -> None:
    """Make the next ``np.linalg.lstsq`` call raise LAPACK's breakdown error.

    That call is the first linear solve of the next Gauss-Newton solve in
    ``opsys.constructions``.
    """
    real = np.linalg.lstsq
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", flaky)


def staircase_instance(k: int, seed: int) -> np.ndarray:
    """k^2 Hermitian matrices in M_(k^2+k-1): matrix i supported on its
    leading i x i block with a 1 in the (i, i) entry."""
    n = k * k + k - 1
    rng = np.random.default_rng(seed)
    mats = []
    for i in range(1, k * k + 1):
        a = np.zeros((n, n), dtype=np.complex128)
        block = rng.standard_normal((i, i)) + 1j * rng.standard_normal((i, i))
        block = (block + block.conj().T) / 2
        block[i - 1, i - 1] = 1.0
        a[:i, :i] = block
        mats.append(a)
    return np.stack(mats)


def chain_instance(k: int, seed: int, dependent: bool) -> np.ndarray:
    """A chain of k^4+k^3 matrices in M_(k^4+k^3+k-1): matrix c (1-based) has
    a nonzero (c+1, c) pivot and off-diagonal support only in its leading
    (c+1) x (c+1) block; diagonals are free.

    With ``dependent`` the last matrix of each window gets its trailing
    diagonal overwritten by an exact combination of the window-mates', so
    every block's tails are linearly dependent and the staircase reduction
    must run end to end.
    """
    n = k**4 + k**3 + k - 1
    m = k**4 + k**3
    stride = k * k + k
    rng = np.random.default_rng(seed)
    mats = np.zeros((m, n, n), dtype=np.complex128)
    idx = np.arange(n)
    for c in range(m):
        size = c + 2
        block = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        block = (block + block.conj().T) / 2
        a = np.zeros((n, n), dtype=np.complex128)
        a[:size, :size] = block
        if abs(a[c + 1, c]) < 0.3:
            a[c + 1, c] = 0.5 + 0.25j
            a[c, c + 1] = np.conj(a[c + 1, c])
        a[idx, idx] = rng.standard_normal(n)
        mats[c] = a
    if dependent:
        for j in range(1, k * k + 1):
            lo = (j - 1) * stride
            start = j * stride
            tails = np.stack(
                [np.diagonal(mats[lo + r])[start:] for r in range(stride - 2)]
            )
            coeff = rng.standard_normal(stride - 2)
            ii = np.arange(start, n)
            mats[lo + stride - 2][ii, ii] = coeff @ tails
    return mats
