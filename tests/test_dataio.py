"""Round-trip fidelity of the file formats."""

import numpy as np
import pytest

from slowreg import (
    ProblemInstance,
    SimilarityGraph,
    SynthParams,
    build_quadform,
    make_synthetic_dataset,
)
from slowreg.dataio import (
    dump_dataset,
    read_data_csv,
    read_edge_list,
    read_metadata,
    write_beta_csv,
    write_data_csv,
    write_edge_list,
    write_metadata,
)

from util import make_instance


class TestDataCsv:
    def test_round_trip_identical_quadform(self, tmp_path):
        instance = make_instance(T=3, D=4, N=11, seed=50, lambda_delta=0.8)
        path = tmp_path / "d.csv"
        write_data_csv(path, instance.x_blocks, instance.y_blocks)
        xs, ys = read_data_csv(path)
        back = ProblemInstance(
            graph=instance.graph,
            x_blocks=tuple(xs),
            y_blocks=tuple(ys),
            lambda_beta=instance.lambda_beta,
            lambda_delta=instance.lambda_delta,
        )
        qa, qb = build_quadform(instance), build_quadform(back)
        np.testing.assert_allclose(qb.mu, qa.mu, atol=1e-12)
        assert qb.const_term == pytest.approx(qa.const_term, abs=1e-12)
        np.testing.assert_array_equal(qb.degrees, qa.degrees)
        v = np.random.default_rng(50).standard_normal(qa.mu.size)
        np.testing.assert_allclose(qb.matvec(v), qa.matvec(v), atol=1e-12)
        # repr round-trips floats exactly, so the arrays are bit-identical
        for xa, xb in zip(instance.x_blocks, xs):
            np.testing.assert_array_equal(xa, xb)

    def test_ragged_row_counts(self, tmp_path):
        rng = np.random.default_rng(51)
        xs = [rng.standard_normal((n, 3)) for n in (4, 7, 2)]
        ys = [rng.standard_normal(n) for n in (4, 7, 2)]
        path = tmp_path / "r.csv"
        write_data_csv(path, xs, ys)
        back_x, back_y = read_data_csv(path)
        assert [x.shape[0] for x in back_x] == [4, 7, 2]
        for a, b in zip(xs, back_x):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(ys, back_y):
            np.testing.assert_array_equal(a, b)

    def test_header_must_match(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("vertex,target,x0\n0,1.0,2.0\n")
        with pytest.raises(ValueError):
            read_data_csv(path)
        path.write_text("vertex,y,x1,x0\n0,1.0,2.0,3.0\n")
        with pytest.raises(ValueError):
            read_data_csv(path)

    def test_missing_vertex_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("vertex,y,x0\n0,1.0,2.0\n2,1.0,2.0\n")
        with pytest.raises(ValueError, match="have no rows"):
            read_data_csv(path)

    def test_field_count_and_type_errors(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("vertex,y,x0\n0,1.0\n")
        with pytest.raises(ValueError, match="expected 3 fields"):
            read_data_csv(path)
        path.write_text("vertex,y,x0\nzero,1.0,2.0\n")
        with pytest.raises(ValueError):
            read_data_csv(path)
        path.write_text("vertex,y,x0\n-1,1.0,2.0\n")
        with pytest.raises(ValueError, match="negative"):
            read_data_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_data_csv(path)
        path.write_text("vertex,y,x0\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_data_csv(path)

    def test_interleaved_vertices_keep_file_order(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "vertex,y,x0,x1\n"
            "1,10.0,1.0,2.0\n"
            "0,20.0,3.0,4.0\n"
            "1,30.0,5.0,6.0\n"
            "2,40.0,7.0,8.0\n"
            "0,50.0,9.0,0.5\n"
            "1,60.0,0.25,0.125\n"
        )
        xs, ys = read_data_csv(path)
        assert [y.tolist() for y in ys] == [[20.0, 50.0], [10.0, 30.0, 60.0], [40.0]]
        np.testing.assert_array_equal(xs[0], [[3.0, 4.0], [9.0, 0.5]])
        np.testing.assert_array_equal(xs[1], [[1.0, 2.0], [5.0, 6.0], [0.25, 0.125]])
        np.testing.assert_array_equal(xs[2], [[7.0, 8.0]])
        assert all(x.flags.c_contiguous for x in xs)
        assert all(y.flags.c_contiguous for y in ys)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_wide_rows_move_in_several_chunks(self, tmp_path, shuffled):
        # D=700 moves 187 rows a chunk, so 400 rows take three chunks
        rng = np.random.default_rng(31)
        vertex = np.sort(rng.integers(0, 7, size=400))
        vertex[:7] = np.arange(7)
        rows = np.column_stack([vertex, rng.standard_normal((400, 701))])
        if shuffled:
            rows = rows[rng.permutation(400)]
        path = tmp_path / "wide.csv"
        header = ",".join(["vertex", "y"] + [f"x{j}" for j in range(700)])
        np.savetxt(path, rows, delimiter=",", header=header, comments="", fmt="%.17g")
        xs, ys = read_data_csv(path)
        for v, (x, y) in enumerate(zip(xs, ys)):
            mine = rows[rows[:, 0] == v]
            np.testing.assert_array_equal(x, mine[:, 2:])
            np.testing.assert_array_equal(y, mine[:, 1])
            assert x.flags.c_contiguous and y.flags.c_contiguous

    def test_fractional_vertex_id_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("vertex,y,x0\n0,1.0,2.0\n1.5,1.0,2.0\n")
        with pytest.raises(ValueError, match=r"frac.csv:3: .*'1.5'"):
            read_data_csv(path)

    def test_comment_line_rejected(self, tmp_path):
        path = tmp_path / "comment.csv"
        path.write_text("vertex,y,x0\n0,1.0,2.0\n# a note\n1,1.0,2.0\n")
        with pytest.raises(ValueError, match=r"comment.csv:3: expected 3 fields, got 1"):
            read_data_csv(path)

    def test_ragged_row_mid_file(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(
            "vertex,y,x0,x1\n0,1.0,2.0,3.0\n1,1.0,2.0\n1,1.0,2.0,3.0\n"
        )
        with pytest.raises(ValueError, match=r"ragged.csv:3: expected 4 fields, got 3"):
            read_data_csv(path)

    def test_unparsable_value_names_its_line(self, tmp_path):
        path = tmp_path / "word.csv"
        path.write_text("vertex,y,x0\n0,1.0,2.0\n0,one,2.0\n")
        with pytest.raises(ValueError, match=r"word.csv:3: .*'one'"):
            read_data_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "NaN"])
    @pytest.mark.parametrize("column", [1, 2, 3])
    def test_non_finite_value_names_its_line(self, tmp_path, value, column):
        row = ["1", "1.0", "2.0", "3.0"]
        row[column] = value
        path = tmp_path / "nonfinite.csv"
        path.write_text("vertex,y,x0,x1\n0,1.0,2.0,3.0\n" + ",".join(row) + "\n")
        with pytest.raises(ValueError, match=rf"nonfinite.csv:3: non-finite value '{value}'"):
            read_data_csv(path)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_line_endings_and_trailing_blank_lines(self, tmp_path, eol):
        lines = ["vertex,y,x0", "0,0.1,1e-300", "1,-2.5,3.0", "0,7.0,-0.0", "", ""]
        path = tmp_path / "eol.csv"
        path.write_bytes(eol.join(lines).encode())
        xs, ys = read_data_csv(path)
        assert [y.tolist() for y in ys] == [[0.1, 7.0], [-2.5]]
        assert xs[0].tolist() == [[1e-300], [-0.0]]
        assert xs[1].tolist() == [[3.0]]

    def test_written_file_has_crlf_and_reads_back(self, tmp_path):
        rng = np.random.default_rng(52)
        xs = [rng.standard_normal((3, 2)) for _ in range(2)]
        ys = [rng.standard_normal(3) for _ in range(2)]
        path = tmp_path / "w.csv"
        write_data_csv(path, xs, ys)
        assert b"\r\n" in path.read_bytes()
        back_x, back_y = read_data_csv(path)
        for a, b in zip(xs + ys, back_x + back_y):
            assert a.tobytes() == b.tobytes()

    def test_huge_vertex_id_reports_missing_vertices(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("vertex,y,x0\n0,1.0,2.0\n1000000000000,1.0,2.0\n")
        with pytest.raises(ValueError, match=r"vertices \[1, 2, .*, 10\] and "
                                             r"999999999989 more have no rows"):
            read_data_csv(path)


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        graph = SimilarityGraph(5, ((0, 1), (1, 4), (2, 3)))
        path = tmp_path / "g.txt"
        write_edge_list(path, graph)
        back = read_edge_list(path, 5)
        assert back == graph

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n\n1 2\n")
        assert read_edge_list(path, 3).edges == ((0, 1), (1, 2))

    def test_malformed_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(ValueError):
            read_edge_list(path, 3)
        path.write_text("a b\n")
        with pytest.raises(ValueError):
            read_edge_list(path, 3)

    def test_out_of_range_edge(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 9\n")
        with pytest.raises(ValueError):
            read_edge_list(path, 3)


class TestMetadata:
    def test_round_trip_and_none_omitted(self, tmp_path):
        path = tmp_path / "m.txt"
        write_metadata(
            path, {"mode": "temporal", "n": 300, "xi": 2.5, "k_g": None}
        )
        back = read_metadata(path)
        assert back == {"mode": "temporal", "n": "300", "xi": "2.5"}
        assert "k_g" not in back

    def test_float_precision(self, tmp_path):
        path = tmp_path / "m.txt"
        value = 1.0 / 3.0
        write_metadata(path, {"lam": value})
        assert float(read_metadata(path)["lam"]) == value

    def test_rejects_bad_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("just words\n")
        with pytest.raises(ValueError):
            read_metadata(path)


class TestBetaCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(52)
        beta = rng.standard_normal(12)
        path = tmp_path / "b.csv"
        write_beta_csv(path, beta, 3)
        got = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:].ravel()
        np.testing.assert_array_equal(got, beta)


class TestDumpDataset:
    def test_dump_and_reload_matches_quadform(self, tmp_path):
        ds = make_synthetic_dataset(
            SynthParams(n=15, t=4, d=5, k_l=2, k_c=1, sigma_v=0.1, xi=2.0, seed=56)
        )
        paths = dump_dataset(tmp_path / "run", ds)
        assert set(paths) == {"train", "test", "beta", "graph", "meta"}
        xs, ys = read_data_csv(paths["train"])
        inst = ProblemInstance(
            graph=read_edge_list(paths["graph"], len(xs)),
            x_blocks=tuple(xs),
            y_blocks=tuple(ys),
            lambda_beta=ds.instance.lambda_beta,
            lambda_delta=ds.instance.lambda_delta,
        )
        qa, qb = build_quadform(ds.instance), build_quadform(inst)
        np.testing.assert_array_equal(qb.mu, qa.mu)
        assert qb.const_term == qa.const_term
        np.testing.assert_array_equal(qb.degrees, qa.degrees)
        for xa, xb in zip(qa.x_blocks, qb.x_blocks):
            np.testing.assert_array_equal(xb, xa)
        beta = np.loadtxt(paths["beta"], delimiter=",", skiprows=1)[:, 1:].ravel()
        np.testing.assert_array_equal(beta, ds.beta_true)
        meta = read_metadata(paths["meta"])
        assert meta["mode"] == "temporal"
        assert int(meta["realized_k_g"]) == ds.metadata["realized_k_g"]

    def test_test_split_round_trips(self, tmp_path):
        ds = make_synthetic_dataset(
            SynthParams(n=9, t=3, d=4, k_l=1, k_c=0, xi=2.0, seed=57)
        )
        paths = dump_dataset(tmp_path / "run", ds)
        xs, ys = read_data_csv(paths["test"])
        for (xa, ya), xb, yb in zip(ds.test_blocks, xs, ys):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)
