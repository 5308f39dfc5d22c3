"""JSON wire formats for every object the CLI reads or writes.

Complex data is carried as [re, im] pairs, row-major for matrices; all
dumps are compact and deterministic (sorted keys, no whitespace, one
trailing newline) so identical inputs produce byte-identical files.  Every
float is written as its shortest round-tripping repr, so a file loads back
bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .constructions import SimpleGraph
from .linalg import Projection, Tolerance
from .quantum_graphs import MatrixAlgebra, QuantumGraph
from .ramsey import SearchParams
from .systems import Certificate, Kind, OperatorSystem, from_span

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
    "system_to_json",
    "system_from_json",
    "projection_to_json",
    "projection_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "graph_to_json",
    "graph_from_json",
    "algebra_to_json",
    "algebra_from_json",
    "qgraph_to_json",
    "qgraph_from_json",
    "params_to_json",
    "params_from_json",
    "dumps",
    "write_json",
    "read_json",
]


def _pairs(a: np.ndarray) -> list[list[float]]:
    """Row-major ``[re, im]`` pairs of a complex128 array."""
    return np.ascontiguousarray(a).view(np.float64).reshape(-1, 2).tolist()


def _complex_array(obj: dict[str, Any], count: int, what: str) -> np.ndarray:
    entries = obj["entries"]
    if len(entries) != count:
        raise ValueError(f"{what} expects {count} entries, got {len(entries)}")
    try:
        parts = np.asarray(entries)
    except ValueError as exc:  # ragged pairs
        raise ValueError(f"{what} entries must be [re, im] pairs") from exc
    # strings and null make a str or object array: only JSON numbers pass
    if parts.shape != (count, 2) or parts.dtype.kind not in "iuf":
        raise ValueError(f"{what} entries must be [re, im] pairs of numbers")
    parts = parts.astype(np.float64, copy=False)
    if not np.all(np.isfinite(parts)):
        raise ValueError(f"{what} contains non-finite entries")
    return parts.view(np.complex128).reshape(count)


def matrix_to_json(a: np.ndarray) -> dict[str, Any]:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    return {"n": int(a.shape[0]), "entries": _pairs(a)}


def matrix_from_json(obj: dict[str, Any]) -> np.ndarray:
    n = int(obj["n"])
    if n < 1:
        raise ValueError("matrix dimension must be positive")
    return _complex_array(obj, n * n, "matrix").reshape(n, n)


def vector_to_json(x: np.ndarray) -> dict[str, Any]:
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    return {"n": int(x.size), "entries": _pairs(x)}


def vector_from_json(obj: dict[str, Any]) -> np.ndarray:
    n = int(obj["n"])
    if n < 1:
        raise ValueError("vector dimension must be positive")
    return _complex_array(obj, n, "vector")


def system_to_json(v: OperatorSystem) -> dict[str, Any]:
    return {"n": int(v.n), "basis": [matrix_to_json(a) for a in v.basis]}


def system_from_json(obj: dict[str, Any]) -> OperatorSystem:
    n = int(obj["n"])
    mats = [matrix_from_json(m) for m in obj["basis"]]
    for a in mats:
        if a.shape != (n, n):
            raise ValueError("system basis element has the wrong dimension")
    # A written system loads as itself; a hand-written span is closed and
    # orthonormalized instead.
    try:
        return OperatorSystem(n, np.stack(mats))
    except ValueError:
        return from_span(mats, n)


def projection_to_json(p: Projection) -> dict[str, Any]:
    return {"frame": [vector_to_json(p.frame[:, a]) for a in range(p.k)]}


def projection_from_json(obj: dict[str, Any]) -> Projection:
    if "projection" in obj:  # accept a full certificate file
        obj = obj["projection"]
    cols = [vector_from_json(c) for c in obj["frame"]]
    if not cols:
        raise ValueError("projection frame is empty")
    return Projection.from_frame(np.stack(cols, axis=1))


def certificate_to_json(c: Certificate) -> dict[str, Any]:
    return {
        "kind": c.kind.value,
        "k": int(c.k),
        "compressed_dim": int(c.compressed_dim),
        "projection": projection_to_json(c.projection),
        "seed": None if c.seed is None else int(c.seed),
        "trace": list(c.trace),
        "tol": {"rank_rel": c.tol.rank_rel, "cert_rel": c.tol.cert_rel},
        "commutant_dim": int(c.commutant_dim),
    }


def certificate_from_json(obj: dict[str, Any]) -> Certificate:
    tol_obj = obj.get("tol")
    tol = (
        Tolerance(float(tol_obj["rank_rel"]), float(tol_obj["cert_rel"]))
        if tol_obj
        else Tolerance()
    )
    seed = obj.get("seed")
    return Certificate(
        projection=projection_from_json(obj["projection"]),
        kind=Kind(obj["kind"]),
        compressed_dim=int(obj["compressed_dim"]),
        k=int(obj["k"]),
        tol=tol,
        seed=None if seed is None else int(seed),
        trace=tuple(str(t) for t in obj.get("trace", ())),
        commutant_dim=int(obj.get("commutant_dim", 1)),
    )


def graph_to_json(g: SimpleGraph) -> dict[str, Any]:
    return {"n": int(g.n_vertices), "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_json(obj: dict[str, Any]) -> SimpleGraph:
    return SimpleGraph.from_edges(int(obj["n"]), [tuple(e) for e in obj["edges"]])


def algebra_to_json(m: MatrixAlgebra) -> dict[str, Any]:
    """Block shapes, plus ``coords`` when the layout is not the contiguous one."""
    obj: dict[str, Any] = {"blocks": [list(b) for b in m.blocks]}
    if m != MatrixAlgebra.from_blocks(m.blocks):
        obj["coords"] = [cs.tolist() for cs in m.coords]
    return obj


def algebra_from_json(obj: dict[str, Any]) -> MatrixAlgebra:
    """Inverse of :func:`algebra_to_json`; without ``coords`` the layout is contiguous."""
    if "coords" not in obj:
        return MatrixAlgebra.from_blocks(obj["blocks"])
    coords = tuple(np.asarray(cs) for cs in obj["coords"])
    if any(cs.dtype.kind != "i" for cs in coords):
        raise ValueError("algebra coordinates must be integers")
    return MatrixAlgebra(tuple((int(a), int(b)) for a, b in obj["blocks"]), coords)


def qgraph_to_json(qg: QuantumGraph) -> dict[str, Any]:
    return {"algebra": algebra_to_json(qg.algebra), "system": system_to_json(qg.system)}


def qgraph_from_json(obj: dict[str, Any]) -> QuantumGraph:
    return QuantumGraph(algebra_from_json(obj["algebra"]), system_from_json(obj["system"]))


def params_to_json(p: SearchParams) -> dict[str, Any]:
    return {
        "orbit_threshold": int(p.orbit_threshold),
        "phase1_steps": int(p.phase1_steps),
        "phase2_steps": int(p.phase2_steps),
        "retry_budget": int(p.retry_budget),
        "seed": int(p.seed),
    }


def params_from_json(obj: dict[str, Any]) -> SearchParams:
    return SearchParams(
        int(obj["orbit_threshold"]),
        int(obj["phase1_steps"]),
        int(obj["phase2_steps"]),
        int(obj.get("retry_budget", 16)),
        int(obj.get("seed", 0)),
    )


def dumps(obj: Any) -> str:
    """Compact JSON text of ``obj``: sorted keys, no whitespace, one trailing newline.

    Without an indent Python uses its C encoder; files written with an indent
    parse the same way, so they keep loading.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def read_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))
