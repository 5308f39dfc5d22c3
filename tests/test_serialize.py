import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opsys.constructions import SimpleGraph, diagonal_system
from opsys.linalg import Projection, Tolerance
from opsys.quantum_graphs import MatrixAlgebra, QuantumGraph, commutant
from opsys.ramsey import SearchParams, find_clique_or_anticlique
from opsys.serialize import (
    algebra_from_json,
    algebra_to_json,
    certificate_from_json,
    certificate_to_json,
    dumps,
    graph_from_json,
    graph_to_json,
    matrix_from_json,
    matrix_to_json,
    params_from_json,
    params_to_json,
    projection_from_json,
    projection_to_json,
    qgraph_from_json,
    qgraph_to_json,
    read_json,
    system_from_json,
    system_to_json,
    vector_from_json,
    vector_to_json,
    write_json,
)
from opsys.systems import Kind, certify, from_span, random_projection, random_system

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestMatrixVector:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        obj = matrix_to_json(a)
        assert obj["n"] == 3 and len(obj["entries"]) == 9
        assert np.array_equal(matrix_from_json(obj), a)

    def test_row_major_order(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        obj = matrix_to_json(a)
        assert obj["entries"][1] == [2.0, 0.0]
        assert obj["entries"][2] == [3.0, 0.0]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=16))
    @example([(1.0, -2.5)])
    @example([(-0.0, -0.0), (0.0, -0.0)])
    @example([(5e-324, -5e-324)])
    @example([(1.7976931348623157e308, -1.7976931348623157e308)])
    @example([(1e-300, 0.1)])
    def test_vector_round_trip(self, pairs):
        x = np.array([complex(r, i) for r, i in pairs])
        back = vector_from_json(json.loads(dumps(vector_to_json(x))))
        # bit for bit, through the wire text: -0.0 keeps its sign bit
        assert back.tobytes() == x.tobytes()

    def test_rejects_entry_count_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            matrix_from_json({"n": 2, "entries": [[1.0, 0.0]] * 3})

    @pytest.mark.parametrize(
        "entries",
        [
            [["1.5", "2"]],
            [[1.0]],
            [[1, 2, 3]],
            [[None, 0]],
            [[True, False]],
            [[1.0, 0.0], [1.0]],
            [1.0, 0.0],
        ],
    )
    def test_rejects_entries_that_are_not_number_pairs(self, entries):
        with pytest.raises(ValueError, match="pairs"):
            vector_from_json({"n": len(entries), "entries": entries})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            vector_from_json({"n": 1, "entries": [[float("nan"), 0.0]]})
        with pytest.raises(ValueError, match="finite"):
            matrix_from_json({"n": 1, "entries": [[float("inf"), 0.0]]})


class TestSystem:
    def test_round_trip_preserves_span(self):
        v = random_system(4, 6, seed=1)
        w = system_from_json(system_to_json(v))
        assert w.n == v.n and w.dim == v.dim
        for b in v.basis:
            assert w.contains(b)

    def test_round_trip_keeps_the_basis(self):
        v = random_system(8, 24, seed=3)
        w = system_from_json(json.loads(dumps(system_to_json(v))))
        assert np.array_equal(w.basis, v.basis)

    def test_find_agrees_on_the_round_trip(self):
        # a low-dimension case whose verdict changes under a rotation of the
        # basis, so only a bit-exact load keeps it
        v = random_system(7, 2, seed=72)
        w = system_from_json(json.loads(dumps(system_to_json(v))))
        params = SearchParams.for_k(3, seed=1)
        a = find_clique_or_anticlique(v, 3, params)
        b = find_clique_or_anticlique(w, 3, params)
        assert a.kind is b.kind is Kind.ANTICLIQUE
        assert np.array_equal(a.projection.frame, b.projection.frame)

    def test_parse_completes_the_span(self):
        # a basis that is not an operator system is closed on parse: identity
        # and adjoints are adjoined, so a bare off-diagonal unit grows to a
        # 3-dim system
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1.0
        v = system_from_json({"n": 2, "basis": [matrix_to_json(e01)]})
        assert v.dim == 3
        assert v.contains(np.eye(2)) and v.contains(e01.conj().T)

    def test_loads_an_indented_file(self, tmp_path):
        # files written before dumps became compact keep loading, bit for bit
        v = random_system(6, 10, seed=4)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(system_to_json(v), indent=2, sort_keys=True) + "\n")
        assert system_from_json(read_json(path)).basis.tobytes() == v.basis.tobytes()

    def test_rejects_wrong_dimension_entries(self):
        obj = {"n": 3, "basis": [matrix_to_json(np.eye(2, dtype=complex))]}
        with pytest.raises(ValueError, match="dimension"):
            system_from_json(obj)


class TestProjection:
    def test_round_trip(self):
        p = random_projection(5, 2, seed=3)
        q = projection_from_json(projection_to_json(p))
        assert q.n == 5 and q.k == 2
        assert np.allclose(p.matrix, q.matrix, atol=1e-12)

    def test_accepts_certificate_payload(self):
        # verify-style inputs may hand the whole certificate file
        v = diagonal_system(4)
        cert = certify(v, Projection.coordinate(4, [0]), 1)
        obj = certificate_to_json(cert)
        p = projection_from_json(obj)
        assert p.k == 1

    def test_rejects_non_orthonormal_frame(self):
        obj = {
            "frame": [
                {"n": 2, "entries": [[1.0, 0.0], [0.0, 0.0]]},
                {"n": 2, "entries": [[1.0, 0.0], [0.0, 0.0]]},
            ]
        }
        with pytest.raises(ValueError):
            projection_from_json(obj)


class TestCertificate:
    def round_trip(self, cert):
        obj = certificate_to_json(cert)
        back = certificate_from_json(obj)
        assert back.kind is cert.kind
        assert back.compressed_dim == cert.compressed_dim
        assert back.k == cert.k
        assert back.seed == cert.seed
        assert back.trace == cert.trace
        assert back.commutant_dim == cert.commutant_dim
        assert back.tol == cert.tol
        assert np.allclose(back.projection.matrix, cert.projection.matrix, atol=1e-12)
        return obj

    def test_round_trip_fields(self):
        v = random_system(4, 16, seed=0)
        cert = certify(v, random_projection(4, 2, seed=1), 2, seed=7, trace=("a", "b"))
        obj = self.round_trip(cert)
        assert obj["kind"] == "clique"
        assert obj["k"] == 2
        assert obj["compressed_dim"] == 4
        assert obj["seed"] == 7
        assert list(obj["projection"]["frame"][0]["entries"][0])

    def test_round_trip_custom_tolerance(self):
        v = random_system(3, 1, seed=0)
        tol = Tolerance(rank_rel=1e-7, cert_rel=1e-10)
        cert = certify(v, random_projection(3, 2, seed=0), 2, tol)
        obj = self.round_trip(cert)
        assert obj["tol"] == {"rank_rel": 1e-7, "cert_rel": 1e-10}

    def test_parse_revalidates_invariants(self):
        v = random_system(4, 16, seed=0)
        cert = certify(v, random_projection(4, 2, seed=1), 2)
        obj = certificate_to_json(cert)
        obj["compressed_dim"] = 3  # clique with dim != k^2 is contradictory
        with pytest.raises(ValueError):
            certificate_from_json(obj)
        obj = certificate_to_json(cert)
        obj["k"], obj["compressed_dim"] = 3, 9  # consistent, but the frame has rank 2
        with pytest.raises(ValueError):
            certificate_from_json(obj)


class TestGraphAlgebra:
    def test_graph_round_trip(self):
        g = SimpleGraph.from_edges(5, [(4, 2), (1, 5), (2, 3)])
        obj = graph_to_json(g)
        assert obj["edges"] == [[1, 5], [2, 3], [2, 4]]  # sorted, normalized
        assert graph_from_json(obj).edges == g.edges

    def test_algebra_round_trip(self):
        m = MatrixAlgebra.from_blocks([(2, 2), (1, 3)])
        obj = algebra_to_json(m)
        assert obj == {"blocks": [[2, 2], [1, 3]]}
        assert algebra_from_json(obj) == m

    def test_commutant_round_trips_with_its_layout(self):
        # a commutant uses interleaved coordinates, which travel as "coords"
        m = commutant(MatrixAlgebra.from_blocks([(2, 2)]))
        obj = algebra_to_json(m)
        assert obj["coords"] == [[[0, 2], [1, 3]]]
        back = algebra_from_json(obj)
        assert back == m
        assert back != MatrixAlgebra.from_blocks([(2, 2)])

    def test_rejects_non_integer_coords(self):
        obj = {"blocks": [[2, 1]], "coords": [[[0.0], [1.0]]]}
        with pytest.raises(ValueError, match="integers"):
            algebra_from_json(obj)
        obj["coords"] = [[[1], [1]]]  # not a partition of 0..n-1
        with pytest.raises(ValueError, match="partition"):
            algebra_from_json(obj)

    def test_qgraph_round_trip_keeps_commutant_layout(self):
        # V = M_2 (x) I_3 is a bimodule over the interleaved commutant of
        # M_2 (x) I_3 but not over the contiguous layout of the same shape
        mats = [np.kron(e, np.eye(3)) for e in np.eye(4).reshape(4, 2, 2)]
        qg = QuantumGraph(commutant(MatrixAlgebra.from_blocks([(2, 3)])), from_span(mats, 6))
        back = qgraph_from_json(json.loads(dumps(qgraph_to_json(qg))))
        assert back.algebra == qg.algebra
        fa = qg.system.basis.reshape(qg.system.dim, -1)
        fb = back.system.basis.reshape(back.system.dim, -1)
        assert np.allclose(fa.T @ fa.conj(), fb.T @ fb.conj(), atol=1e-10)

    def test_qgraph_round_trip(self):
        m = MatrixAlgebra.full(3)
        qg = QuantumGraph(m, random_system(3, 4, seed=2))
        back = qgraph_from_json(qgraph_to_json(qg))
        assert back.algebra == m
        assert back.system.dim == 4

    def test_qgraph_parse_revalidates(self):
        obj = {
            "algebra": {"blocks": [[2, 1], [2, 1]]},
            "system": system_to_json(random_system(4, 3, seed=0)),
        }
        with pytest.raises(ValueError, match="bimodule"):
            qgraph_from_json(obj)


class TestParams:
    def test_round_trip(self):
        p = SearchParams(100, 5, 9, retry_budget=3, seed=17)
        assert params_from_json(params_to_json(p)) == p

    def test_parse_validates(self):
        obj = params_to_json(SearchParams(1, 1, 1))
        obj["phase1_steps"] = 0
        with pytest.raises(ValueError):
            params_from_json(obj)


class TestDumps:
    def test_byte_deterministic(self):
        v = random_system(3, 4, seed=5)
        assert dumps(system_to_json(v)) == dumps(system_to_json(v))

    def test_sorted_keys_and_trailing_newline(self):
        s = dumps({"b": 1, "a": 2})
        assert s.index('"a"') < s.index('"b"')
        assert s.endswith("\n")

    def test_compact_form(self):
        v = random_system(16, 96, seed=0)
        s = dumps(system_to_json(v))
        assert s.count("\n") == 1 and s.endswith("\n")
        assert len(s.encode()) <= 50 * v.dim * v.n**2

    def test_compact_text_parses_to_the_same_object(self):
        v = random_system(4, 16, seed=0)
        cert = certify(v, random_projection(4, 2, seed=1), 2, seed=7, trace=("a", "b"))
        mats = [np.kron(e, np.eye(3)) for e in np.eye(4).reshape(4, 2, 2)]
        qg = QuantumGraph(commutant(MatrixAlgebra.from_blocks([(2, 3)])), from_span(mats, 6))
        for obj in (
            certificate_to_json(cert),
            qgraph_to_json(qg),
            params_to_json(SearchParams(100, 5, 9, retry_budget=3, seed=17)),
        ):
            assert json.loads(dumps(obj)) == obj
        assert "coords" in qgraph_to_json(qg)["algebra"]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "sys.json"
        v = random_system(3, 2, seed=0)
        write_json(path, system_to_json(v))
        obj = read_json(path)
        assert system_from_json(obj).dim == 2
        # the bytes on disk parse as plain JSON too
        assert json.loads(path.read_text())["n"] == 3
