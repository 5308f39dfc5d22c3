"""The three benchmark workloads: inputs built from a seed, and one round of operations.

A workload builder takes the benchmark seed and returns one round: a list of
operations in a fixed order.  Every run repeats whole rounds, so each run
attempts the same operations in the same proportions whatever the seed; the
seed only changes the generated inputs.  opsys receives the generated inputs
and nothing else.

Every operation carries a check that reads its output back as plain arrays and
hands them to :mod:`check`, which recomputes the answer with numpy alone.
Layers are reached through module attributes at call time (``ramsey.find...``)
so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

import check
from opsys import cli, constructions, quantum_graphs, ramsey, serialize, systems
from opsys.constructions import SimpleGraph, graph_operator_system
from opsys.quantum_graphs import MatrixAlgebra, QuantumGraph, commutant
from opsys.ramsey import SearchParams


@dataclass
class Op:
    family: str  # what the operation exercises; the warm-up runs one of each
    label: str  # instance description, for failure reports
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _seeds(rng: np.random.Generator):
    while True:
        yield int(rng.integers(2**31))


# ---------------------------------------------------------------------------
# search: the dichotomy search on large random systems
# ---------------------------------------------------------------------------

# (n, dim) pairs; with k in {2, 3} each gives two operations.  The three
# n = 32 systems make a block of equal-cost operations with four cheaper ones
# below and two dearer ones above, so the median operation is always an
# n = 32 search and the p50 does not jump between size classes.
SEARCH_SIZES = [(16, 48), (24, 120), (32, 200), (32, 200), (32, 200), (48, 400)]


def _find(v, k: int, seed: int):
    return ramsey.find_clique_or_anticlique(v, k, SearchParams.for_k(k, seed=seed))


def _check_plain(basis: np.ndarray, k: int, cert) -> str | None:
    if cert.k != k:
        return f"certificate rank {cert.k}, asked for {k}"
    return check.certificate(basis, cert.projection.frame, k, cert.kind.value, cert.compressed_dim)


def build_search(seed: int, work: Path) -> list[Op]:
    seeds = _seeds(np.random.default_rng([seed, 1]))
    ops = []
    for n, d in SEARCH_SIZES:
        v = systems.random_system(n, d, next(seeds))
        for k in (2, 3):
            ops.append(
                Op("find", f"find n={n} dim={d} k={k}", partial(_find, v, k, next(seeds)),
                   partial(_check_plain, v.basis, k))
            )
    return ops


# ---------------------------------------------------------------------------
# construct: the certified constructions at desk scale
# ---------------------------------------------------------------------------

# Each family runs once per entry below in every round.  The least-squares
# families (anticlique_lowdim, diagonal_route at dims 2..4, rank2_separator)
# vary in cost from instance to instance, so a round holds many instances of
# them, and run-to-run spread from the seed stays small.  Chains with
# independent tails all cost the same; there are enough of them that the
# median operation is always one of them.
DIAGONAL_DIMS = list(range(1, 8)) * 12  # random diagonal systems, n = 7, k = 2
ANTICLIQUE_SHAPES = [(5, 2), (7, 2), (9, 3)] * 4  # every dim within (n - k) / (k - 1)
TWO_CLIQUE_NS = list(range(3, 11)) * 4  # random systems, dim uniform in 4..n^2
CHAIN_TAILS = [True] * 4 + [False] * 40  # chain instances, k = 2, dependent / independent tails
SEPARATOR_NS = [3, 4, 5, 6] * 4


def _verdict(want: set[str], basis: np.ndarray, k: int, cert) -> str | None:
    if cert.kind.value not in want:
        return f"verdict {cert.kind.value}, the theorem guarantees {sorted(want)}"
    return _check_plain(basis, k, cert)


def chain_instance(k: int, rng: np.random.Generator, dependent: bool) -> np.ndarray:
    """k^4+k^3 matrices in M_(k^4+k^3+k-1) meeting the blocks2_clique chain hypotheses.

    Matrix c (1-based) has a nonzero (c+1, c) pivot and off-diagonal support in
    its leading (c+1) x (c+1) block only; diagonals are free.  With
    ``dependent`` each window's trailing diagonals are made linearly dependent,
    so the staircase reduction runs end to end instead of the diagonal shortcut.
    """
    n = k**4 + k**3 + k - 1
    m = k**4 + k**3
    stride = k * k + k
    mats = np.zeros((m, n, n), dtype=np.complex128)
    idx = np.arange(n)
    for c in range(m):
        size = c + 2
        block = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        a = np.zeros((n, n), dtype=np.complex128)
        a[:size, :size] = (block + block.conj().T) / 2
        if abs(a[c + 1, c]) < 0.3:
            a[c + 1, c] = 0.5 + 0.25j
            a[c, c + 1] = np.conj(a[c + 1, c])
        a[idx, idx] = rng.standard_normal(n)
        mats[c] = a
    if dependent:
        for j in range(1, k * k + 1):
            lo, start = (j - 1) * stride, j * stride
            tails = np.stack([np.diagonal(mats[lo + r])[start:] for r in range(stride - 2)])
            ii = np.arange(start, n)
            mats[lo + stride - 2][ii, ii] = rng.standard_normal(stride - 2) @ tails
    return mats


def _hermitian_orthogonal(rng: np.random.Generator, n: int, against: list[np.ndarray]) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (z + z.conj().T) / 2
    for a in against:
        h = h - (np.vdot(a, h) / np.vdot(a, a)) * a
    return h


def _separator_inputs(rng: np.random.Generator, n: int) -> tuple[np.ndarray, ...]:
    """A1, A2 Hermitian and trace-orthogonal to I; B Hermitian, orthogonal to I, A1, A2."""
    eye = np.eye(n, dtype=np.complex128)
    a1 = _hermitian_orthogonal(rng, n, [eye])
    a2 = _hermitian_orthogonal(rng, n, [eye, a1])
    b = _hermitian_orthogonal(rng, n, [eye, a1, a2])
    return a1, a2, b


def build_construct(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    seeds = _seeds(rng)
    ops = []
    for d in DIAGONAL_DIMS:
        v = systems.random_diagonal_system(7, d, next(seeds))
        s = next(seeds)
        ops.append(Op("diagonal_route", f"diagonal_route n=7 dim={d}",
                      partial(ramsey.diagonal_route, v, 2, seed=s),
                      partial(_verdict, {"clique", "anticlique"}, v.basis, 2)))
    for n, k in ANTICLIQUE_SHAPES:
        for d in range(1, (n - k) // (k - 1) + 1):
            v = systems.random_system(n, d, next(seeds))
            s = next(seeds)
            ops.append(Op("anticlique_lowdim", f"anticlique_lowdim n={n} k={k} dim={d}",
                          partial(constructions.anticlique_lowdim, v, k, seed=s),
                          partial(_verdict, {"anticlique"}, v.basis, k)))
    for n in TWO_CLIQUE_NS:
        d = int(rng.integers(4, n * n + 1))
        v = systems.random_system(n, d, next(seeds))
        s = next(seeds)
        ops.append(Op("two_clique", f"two_clique n={n} dim={d}",
                      partial(constructions.two_clique, v, seed=s),
                      partial(_verdict, {"clique"}, v.basis, 2)))
    for dependent in CHAIN_TAILS:
        chain = chain_instance(2, rng, dependent)
        v = systems.from_span(list(chain), chain.shape[1])
        s = next(seeds)
        ops.append(Op("blocks2_clique", f"blocks2_clique k=2 dependent={dependent}",
                      partial(constructions.blocks2_clique, v, chain, 2, seed=s),
                      partial(_verdict, {"clique"}, v.basis, 2)))
    for n in SEPARATOR_NS:
        a1, a2, b = _separator_inputs(rng, n)
        s = next(seeds)
        ops.append(Op("rank2_separator", f"rank2_separator n={n}",
                      partial(constructions.rank2_separator, a1, a2, b, seed=s),
                      partial(check.separator, a1, a2, b)))
    return ops


# ---------------------------------------------------------------------------
# roundtrip: quantum graphs and the wire formats
# ---------------------------------------------------------------------------

# Graph systems on the diagonal algebra D_n: (n, edge share, k).  The edge
# count is fixed per entry and only the edges are drawn, so the dimension
# n + 2|E|, and with it the cost, does not depend on the seed.  The eight
# n = 8 graphs sit between the cheaper and the dearer operations of the
# round, so the median operation is always one of them.
GRAPHS = [(6, 0.4, 2), (6, 0.6, 3)] + [(8, 0.5, k) for k in (2, 3)] * 4 + [(10, 0.5, 2), (10, 0.5, 3)]
TENSOR_ROUTE_DIMS = [4, 9]  # W in M_3, V = W (x) M_2 over M_3 (x) I_2, k = 3
MULTIPLICITY_DIMS = [2, 4]  # W in M_2, V = W (x) M_3 over M_2 (x) I_3, k = 2
CLI_SIZES = [(8, 24), (16, 96), (24, 120)]  # opsys gen --kind random --n N --dim D


def _units(n: int) -> np.ndarray:
    return np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)


def random_graph(rng: np.random.Generator, n: int, share: float) -> SimpleGraph:
    pairs = list(combinations(range(1, n + 1), 2))
    count = round(share * len(pairs))
    picked = rng.choice(len(pairs), size=count, replace=False)
    return SimpleGraph.from_edges(n, [pairs[i] for i in picked])


def _tensor_graph(blocks, w, side: int) -> QuantumGraph:
    """V = W (x) M_side over the contiguous layout ``blocks``, whose commutant is I (x) M_side."""
    mats = [np.kron(a, e) for a in w.basis for e in _units(side)]
    m = MatrixAlgebra.from_blocks(blocks)
    return QuantumGraph(m, systems.from_span(mats, m.n))


def _commutant_layout_graph() -> QuantumGraph:
    """V = M_2 (x) I_3 over commutant(M_2 (x) I_3): a valid graph on an interleaved layout."""
    mats = [np.kron(e, np.eye(3)) for e in _units(2)]
    return QuantumGraph(commutant(MatrixAlgebra.from_blocks([(2, 3)])), systems.from_span(mats, 6))


def _qgraph_roundtrip(qg: QuantumGraph, k: int, seed: int, stem: Path):
    cert = quantum_graphs.general_find(qg, k, SearchParams.for_k(k, seed=seed))
    recert = quantum_graphs.generalized_certify(qg, cert.projection, cert.k)
    serialize.write_json(stem.with_suffix(".qgraph.json"), serialize.qgraph_to_json(qg))
    serialize.write_json(stem.with_suffix(".cert.json"), serialize.certificate_to_json(cert))
    back = serialize.qgraph_from_json(serialize.read_json(stem.with_suffix(".qgraph.json")))
    cert_back = serialize.certificate_from_json(serialize.read_json(stem.with_suffix(".cert.json")))
    return cert, recert, back, cert_back


def _check_qgraph(qg: QuantumGraph, out) -> str | None:
    cert, recert, back, cert_back = out
    m = qg.algebra
    frame = cert.projection.frame
    return (
        check.generalized_certificate(qg.system.basis, m.blocks, m.coords, frame, cert.k,
                                      cert.kind.value, cert.compressed_dim, cert.commutant_dim)
        or (None if recert.kind is cert.kind else "re-certification changed the verdict")
        or check.same_span(qg.system.basis, back.system.basis)
        or check.same_layout(m.blocks, m.coords, back.algebra.blocks, back.algebra.coords)
        or check.same_frame(frame, cert_back.projection.frame)
        or (None if (cert_back.kind, cert_back.k, cert_back.compressed_dim, cert_back.commutant_dim)
            == (cert.kind, cert.k, cert.compressed_dim, cert.commutant_dim)
            else "certificate fields changed in the round trip")
    )


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _read(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _check_gen(vpath: Path, n: int, d: int, out) -> str | None:
    rc, _ = out
    if rc != 0:
        return f"gen exited {rc}"
    return check.operator_system(check.system_from_wire(_read(vpath)), n, d)


def _check_find(vpath: Path, cpath: Path, out) -> str | None:
    rc, _ = out
    kind, k, dim, frame = check.certificate_from_wire(_read(cpath))
    if rc != (2 if kind == "neither" else 0):
        return f"find exited {rc} with a {kind} certificate"
    return check.certificate(check.system_from_wire(_read(vpath)), frame, k, kind, dim)


def _check_verify(cpath: Path, out) -> str | None:
    rc, text = out
    kind, _, dim, _ = check.certificate_from_wire(_read(cpath))
    if text.strip() != f"kind={kind} compressed_dim={dim}":
        return f"verify printed {text.strip()!r} for a {kind} certificate of dim {dim}"
    if rc != (2 if kind == "neither" else 0):
        return f"verify exited {rc} for a {kind} certificate"
    return None


def build_roundtrip(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    seeds = _seeds(rng)
    graphs = []
    for n, share, k in GRAPHS:
        qg = QuantumGraph(MatrixAlgebra.diagonal(n), graph_operator_system(random_graph(rng, n, share)))
        graphs.append((f"graph n={n} edges={share} k={k}", qg, k))
    for d in TENSOR_ROUTE_DIMS:
        w = systems.random_system(3, d, next(seeds))
        graphs.append((f"tensor route W dim={d} k=3", _tensor_graph([(3, 2)], w, 2), 3))
    for d in MULTIPLICITY_DIMS:
        w = systems.random_system(2, d, next(seeds))
        graphs.append((f"multiplicity 3 W dim={d} k=2", _tensor_graph([(2, 3)], w, 3), 2))
    # Fixed input, independent of the seed: it fails in every run until the
    # wire format carries the layout (the read-back is "not a bimodule").
    graphs.append(("commutant layout M_2 (x) I_3", _commutant_layout_graph(), 2))

    ops = []
    for i, (label, qg, k) in enumerate(graphs):
        ops.append(Op("qgraph", label, partial(_qgraph_roundtrip, qg, k, next(seeds), work / f"g{i}"),
                      partial(_check_qgraph, qg)))
    for n, d in CLI_SIZES:
        vpath, cpath = work / f"cli{n}.system.json", work / f"cli{n}.cert.json"
        s = str(next(seeds))
        gen = ["gen", "--kind", "random", "--n", str(n), "--dim", str(d), "--seed", s, "--out", str(vpath)]
        find = ["find", str(vpath), "--k", "2", "--seed", s, "--out", str(cpath)]
        ops += [
            Op("cli gen", f"gen n={n} dim={d}", partial(_cli, gen), partial(_check_gen, vpath, n, d)),
            Op("cli find", f"find n={n} dim={d}", partial(_cli, find), partial(_check_find, vpath, cpath)),
            Op("cli verify", f"verify n={n} dim={d}", partial(_cli, ["verify", str(vpath), str(cpath)]),
               partial(_check_verify, cpath)),
        ]
    return ops


BUILDERS = {"search": build_search, "construct": build_construct, "roundtrip": build_roundtrip}
