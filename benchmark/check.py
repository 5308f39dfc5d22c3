"""Independent output checker for the benchmark.

Uses numpy only and never imports opsys: every quantity is recomputed from
plain arrays (basis stacks, projection frames, algebra layouts) that the
workload code extracts from opsys objects.  A check returns ``None`` when the
output is correct and a one-line reason when it is not.
"""

from __future__ import annotations

import numpy as np

RANK_REL = 1e-9
CERT_REL = 1e-11


def _ranks(rows: np.ndarray) -> tuple[int, int]:
    """Numerical rank of the row stack at the search and certification cutoffs."""
    s = np.linalg.svd(rows, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0, 0
    return int(np.count_nonzero(s > RANK_REL * s[0])), int(np.count_nonzero(s > CERT_REL * s[0]))


def _compressed_rows(stack: np.ndarray, frame: np.ndarray) -> np.ndarray:
    comp = np.einsum("ia,mij,jb->mab", frame.conj(), stack, frame)
    return comp.reshape(stack.shape[0], -1)


def _frame_problem(frame: np.ndarray, n: int, k: int) -> str | None:
    if frame.shape != (n, k):
        return f"frame shape {frame.shape} is not ({n}, {k})"
    if np.linalg.norm(frame.conj().T @ frame - np.eye(k)) > 1e-8 * max(1, k):
        return "frame columns are not orthonormal"
    return None


def certificate(basis: np.ndarray, frame: np.ndarray, k: int, kind: str, dim: int) -> str | None:
    """dim(PVP) recomputed at both cutoffs must give the certificate's kind and dimension."""
    bad = _frame_problem(frame, basis.shape[1], k)
    if bad:
        return bad
    d_search, d_cert = _ranks(_compressed_rows(basis, frame))
    if d_search != d_cert:
        want = "neither"
    elif d_cert == k * k:
        want = "clique"
    elif d_cert == 1:
        want = "anticlique"
    else:
        want = "neither"
    if kind != want:
        return f"kind {kind} but dim(PVP) is {d_search}/{d_cert} at the two cutoffs (k={k})"
    if want != "neither" and dim != d_cert:
        return f"compressed_dim {dim} but dim(PVP) is {d_cert}"
    return None


def algebra_basis(blocks, coords, n: int) -> np.ndarray:
    """Orthonormal basis of the block algebra ⊕ M_{n_i} ⊗ I_{d_i} laid out by ``coords``."""
    units = []
    for (ni, di), cs in zip(blocks, coords):
        for a in range(ni):
            for b in range(ni):
                u = np.zeros((n, n), dtype=np.complex128)
                u[cs[a, :], cs[b, :]] = 1.0 / np.sqrt(di)
                units.append(u)
    return np.stack(units)


def generalized_certificate(
    basis: np.ndarray,
    blocks,
    coords,
    frame: np.ndarray,
    k: int,
    kind: str,
    dim: int,
    commutant_dim: int,
) -> str | None:
    """P must lie in the algebra; PVP is compared with PM'P at both cutoffs."""
    n = basis.shape[1]
    bad = _frame_problem(frame, n, k)
    if bad:
        return bad
    alg = algebra_basis(blocks, coords, n)
    comm = algebra_basis([(d, m) for m, d in blocks], [cs.T for cs in coords], n)
    pm = frame @ frame.conj().T
    flat = alg.reshape(alg.shape[0], -1)
    resid = pm.ravel() - flat.T @ (flat.conj() @ pm.ravel())
    if np.linalg.norm(resid) > 1e-9 * max(1.0, np.linalg.norm(pm)):
        return "projection does not lie in the algebra"
    if max(np.linalg.norm(pm @ x - x @ pm) for x in comm) > 1e-9 * max(1.0, np.linalg.norm(pm)):
        return "projection does not commute with the commutant"
    rows_v = _compressed_rows(basis, frame)
    rows_c = _compressed_rows(comm, frame)
    dv = _ranks(rows_v)
    dc = _ranks(rows_c)
    du = _ranks(np.concatenate([rows_v, rows_c]))
    if (dv[0], dc[0], du[0]) != (dv[1], dc[1], du[1]):
        want = "neither"
    elif dv[1] == k * k:
        want = "clique"
    elif dv[1] == dc[1] == du[1]:
        want = "anticlique"
    else:
        want = "neither"
    if kind != want:
        return f"kind {kind} but dims PVP {dv}, PM'P {dc}, joint {du} (k={k})"
    if want != "neither" and (dim, commutant_dim) != (dv[1], dc[1]):
        return f"dims ({dim}, {commutant_dim}) recorded but ({dv[1]}, {dc[1]}) recomputed"
    return None


def operator_system(basis: np.ndarray, n: int, dim: int | None = None) -> str | None:
    """HS-orthonormal basis of a unital, adjoint-closed subspace of M_n."""
    if basis.ndim != 3 or basis.shape[1:] != (n, n):
        return f"basis shape {basis.shape} does not live in M_{n}"
    if dim is not None and basis.shape[0] != dim:
        return f"dimension {basis.shape[0]}, expected {dim}"
    flat = basis.reshape(basis.shape[0], -1)
    if np.linalg.norm(flat @ flat.conj().T - np.eye(flat.shape[0])) > 1e-9 * flat.shape[0]:
        return "basis is not HS-orthonormal"
    members = [("identity", np.eye(n).ravel())]
    members += [(f"adjoint of element {i}", b.conj().T.ravel()) for i, b in enumerate(basis)]
    for name, m in members:
        if np.linalg.norm(m - flat.T @ (flat.conj() @ m)) > 1e-8 * max(1.0, np.linalg.norm(m)):
            return f"{name} is not in the span"
    return None


def same_span(basis_a: np.ndarray, basis_b: np.ndarray) -> str | None:
    """The two HS-orthonormal stacks span the same space: equal orthogonal projectors."""
    fa = basis_a.reshape(basis_a.shape[0], -1)
    fb = basis_b.reshape(basis_b.shape[0], -1)
    if fa.shape[1] != fb.shape[1]:
        return "ambient dimensions differ"
    pa = fa.T @ fa.conj()
    pb = fb.T @ fb.conj()
    if np.linalg.norm(pa - pb) > 1e-8 * max(1.0, np.sqrt(fa.shape[0])):
        return "spans differ after the round trip"
    return None


def same_frame(a: np.ndarray, b: np.ndarray) -> str | None:
    if a.shape != b.shape or not np.allclose(a, b, rtol=0.0, atol=1e-14):
        return "projection frame changed in the round trip"
    return None


def same_layout(blocks_a, coords_a, blocks_b, coords_b) -> str | None:
    if [tuple(x) for x in blocks_a] != [tuple(x) for x in blocks_b] or not all(
        np.array_equal(x, y) for x, y in zip(coords_a, coords_b)
    ):
        return "algebra layout changed in the round trip"
    return None


def separator(a1: np.ndarray, a2: np.ndarray, b: np.ndarray, c: np.ndarray) -> str | None:
    """Rank-2 Hermitian C with Tr C = Tr A1C = Tr A2C = 0 and Tr BC = Tr B²."""
    scale = max(np.abs(c).max(), 1e-300)
    if np.abs(c - c.conj().T).max() > 1e-9 * scale:
        return "separator is not Hermitian"
    for name, m in (("I", np.eye(c.shape[0])), ("A1", a1), ("A2", a2)):
        if abs(np.trace(m @ c)) > 1e-7 * scale * max(1.0, np.abs(m).max()):
            return f"Tr({name} C) is not zero"
    target = np.trace(b @ b).real
    if abs(np.trace(b @ c).real - target) > 1e-6 * target:
        return "Tr(B C) differs from Tr(B^2)"
    lam = np.linalg.eigvalsh(c)
    if np.count_nonzero(np.abs(lam) > 1e-8 * np.abs(lam).max()) != 2:
        return "separator is not rank 2"
    return None


def _complex(entries) -> np.ndarray:
    pairs = np.asarray(entries, dtype=float).reshape(-1, 2)
    return pairs[:, 0] + 1j * pairs[:, 1]


def system_from_wire(obj: dict) -> np.ndarray:
    """Basis stack of an operator-system JSON file, read without opsys."""
    n = int(obj["n"])
    return np.stack([_complex(m["entries"]).reshape(n, n) for m in obj["basis"]])


def certificate_from_wire(obj: dict) -> tuple[str, int, int, np.ndarray]:
    """(kind, k, compressed_dim, frame) of a certificate JSON file, read without opsys."""
    frame = np.stack([_complex(c["entries"]) for c in obj["projection"]["frame"]], axis=1)
    return str(obj["kind"]), int(obj["k"]), int(obj["compressed_dim"]), frame
