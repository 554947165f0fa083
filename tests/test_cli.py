"""Command-line surface: output formats, exit codes, round trips."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import graphspectra
from graphspectra import cli, load_edge_list
from graphspectra.cli import main
from graphspectra.data import karate_factions_path, karate_net_path

KARATE = str(karate_net_path())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestInfo:
    def test_karate(self, capsys):
        out = run_json(capsys, "info", KARATE)
        assert out["n"] == 34
        assert (out["d_min"], out["d_max"]) == (1.0, 17.0)
        assert out["component_count"] == 1
        assert out["class"] == {"j": 1, "k": 17}
        assert out["region"] == "normal"


class TestGen:
    def test_roundtrip_star(self, capsys, tmp_path):
        target = tmp_path / "star.txt"
        code, _, _ = run(capsys, "gen", "star", "18", "-o", str(target))
        assert code == 0
        g = load_edge_list(target.read_text())
        assert g.n == 18
        assert g.weights.sum() / 2 == 17

    def test_graphc_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "graphc", "3")
        assert code == 0
        g = load_edge_list(out)
        assert g.n == 21

    def test_bipartiteb(self, capsys):
        code, out, _ = run(capsys, "gen", "bipartiteb")
        assert code == 0
        assert load_edge_list(out).n == 34

    def test_missing_size_is_domain_error(self, capsys):
        code, _, err = run(capsys, "gen", "star")
        assert code == 1
        assert "size" in err


class TestSpectra:
    def test_csv_roundtrip(self, capsys, karate):
        """Re-parsed CSV values agree with the in-process spectrum to 12 digits."""
        code, out, _ = run(capsys, "spectra", KARATE, "--kind", "A")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,value"
        parsed = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert len(parsed) == 34
        from graphspectra import RepresentationKind, spectrum

        computed = spectrum(karate, RepresentationKind.ADJACENCY).values
        np.testing.assert_allclose(parsed, computed, rtol=1e-12, atol=1e-300)

    def test_json_output(self, capsys):
        out = run_json(capsys, "spectra", KARATE, "--kind", "Lrw", "--format", "json")
        assert out["support"] == [0.0, 2.0]
        assert len(out["values"]) == 34

    def test_lrw_on_isolated_vertex_is_domain_error(self, capsys, tmp_path):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("nodes 3\n0 1\n")
        code, _, err = run(capsys, "spectra", str(graph_file), "--kind", "Lrw")
        assert code == 1
        assert "d_min" in err


class TestBoundsAndGaps:
    def test_karate_bounds_rendering(self, capsys):
        out = run_json(capsys, "bounds", KARATE)
        assert out["rendered"] == "(8.00, 1.78, 2.67)"
        assert out["bounds"]["e_prime_ALrw"] == 2.0
        for pair in ("A_L", "L_Lrw", "A_Lrw"):
            assert out["pairs"][pair]["within_bound"]

    def test_gaps_karate(self, capsys):
        out = run_json(capsys, "gaps", KARATE)
        assert out["gap_bounds"]["g_AL"] == pytest.approx(16 / 34)
        assert out["pairs"]["L_Lrw"]["primed_within_bound"]

    def test_isolated_vertex_graph_skips_lrw_pairs(self, capsys, tmp_path):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("nodes 3\n0 1\n")
        out = run_json(capsys, "bounds", str(graph_file))
        assert out["bounds"]["e_LLrw"] is None
        assert out["pairs"]["L_Lrw"] is None
        assert out["rendered"].startswith("(0.50, ")

    def test_tiny_weights_keep_the_lrw_pairs(self, capsys, tmp_path):
        """A vertex is isolated only at degree 0, however small the weights."""
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("nodes 3\n0 1 1e-13\n1 2 1e-13\n")
        out = run_json(capsys, "bounds", str(graph_file))
        assert out["bounds"]["e_LLrw"] == pytest.approx(2 / 3)
        assert out["pairs"]["L_Lrw"]["within_bound"] and out["pairs"]["A_Lrw"]["within_bound"]

    @pytest.mark.parametrize("gen,rendered", [(("star", "16"), "(7.00, 1.75, 2.63)"),
                                              (("graphc", "18"), "(8.00, 1.78, 2.67)")])
    def test_rendering_rounds_ties_half_up_like_table(self, capsys, tmp_path, gen, rendered):
        """star(16) is class (1, 15): e(A,Lrw) = 2.625 exactly, which table prints as 2.63."""
        graph_file = tmp_path / "g.txt"
        run(capsys, "gen", *gen, "-o", str(graph_file))
        assert run_json(capsys, "bounds", str(graph_file))["rendered"] == rendered

    def test_non_dyadic_tie_renders_like_table(self, capsys, tmp_path):
        """Class (39, 41): e(A,Lrw) = 0.075 exactly, a float just below 0.075."""
        lines = ["nodes 42"] + [f"{u} {v}" for u in range(42) for v in range(u + 1, 42)
                                if (u, v) not in ((0, 1), (0, 2))]
        graph_file = tmp_path / "k42.txt"
        graph_file.write_text("\n".join(lines) + "\n")
        out = run_json(capsys, "bounds", str(graph_file))
        assert (out["d_min"], out["d_max"]) == (39.0, 41.0)
        assert out["rendered"] == "(1.00, 0.05, 0.08)"
        table = run_json(capsys, "table", "--json", "--dmin-max", "39", "--dmax-max", "41")
        cell = next(c for c in table["cells"] if (c["d_min"], c["d_max"]) == (39, 41))
        assert cell["rendered"] == "(1, 0.05, 0.08)"


class TestEdgeless:
    """No edges: d_min = d_max = 0, so f1's shift is 0 but the scale 2/(d_max + d_min) is not."""

    @pytest.fixture(params=["nodes 3\n", "nodes 0\n"], ids=["nodes3", "nodes0"])
    def edgeless(self, request, tmp_path):
        graph_file = tmp_path / "edgeless.txt"
        graph_file.write_text(request.param)
        return str(graph_file)

    def test_bounds(self, capsys, edgeless):
        out = run_json(capsys, "bounds", edgeless)
        assert out["bounds"] == {"e_AL": 0.0, "e_LLrw": None, "e_ALrw": None,
                                 "e_prime_ALrw": None}
        assert out["rendered"] == "(0.00, ·, ·)"
        assert out["pairs"]["A_L"] == {"bound": 0.0, "max_abs_delta": 0.0, "within_bound": True}
        assert out["pairs"]["L_Lrw"] is None and out["pairs"]["A_Lrw"] is None

    def test_weyl(self, capsys, edgeless):
        out = run_json(capsys, "weyl", edgeless)
        assert out["ok"] is True
        assert out["lower"] == out["upper"] == 0.0

    def test_a_l_crossover_and_plotdata(self, capsys, edgeless):
        assert run_json(capsys, "crossover", edgeless, "--pair", "A_L")["indices"] == []
        code, out, err = run(capsys, "plotdata", edgeless, "--figure", "eigs", "--pair", "A_L")
        assert code == 0, err
        assert "# bound=0" in out

    @pytest.mark.parametrize("argv", [("gaps",), ("crossover", "--pair", "L_Lrw"),
                                      ("plotdata", "--figure", "eigs", "--pair", "A_Lrw")])
    def test_gaps_and_lrw_pairs_stay_domain_errors(self, capsys, edgeless, argv):
        code, out, err = run(capsys, argv[0], edgeless, *argv[1:])
        assert code == 1
        assert out == "" and err.startswith("error:")


class TestEigendecompositionCount:
    """Each command decomposes each representation matrix it needs once."""

    @pytest.mark.parametrize("argv,expected", [
        (("bounds",), 3), (("gaps",), 3), (("weyl",), 2), (("polymap", "--pair", "A_Lrw"), 2),
    ])
    def test_karate(self, capsys, monkeypatch, argv, expected):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(m):
            calls.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        code, _, err = run(capsys, argv[0], KARATE, *argv[1:])
        assert code == 0, err
        assert len(calls) == expected


class TestTable:
    def test_named_cells(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        assert "(0.5, 0.22, 0.33)" in out  # d_max 5, d_min 4
        assert "(0.5, 0.67, 1)" in out
        assert "(1, 1, 1.5)" in out
        assert "(3.5, ·, ·)" in out

    def test_json_matches_closed_form(self, capsys):
        out = run_json(capsys, "table", "--json")
        cells = {(c["d_min"], c["d_max"]): c for c in out["cells"]}
        assert cells[(4, 5)]["e_LLrw"] == pytest.approx(2 / 9)
        assert cells[(0, 7)]["e_LLrw"] is None
        assert cells[(3, 3)]["e_AL"] == 0.0


class TestRegion:
    def test_from_extremes(self, capsys):
        out = run_json(capsys, "region", "--dmin", "1", "--dmax", "2")
        assert out["region"] == "bold"
        assert out["ordering"] == "e(A,L) < e(L,Lrw) < e(A,Lrw)"

    def test_from_file(self, capsys):
        out = run_json(capsys, "region", KARATE)
        assert out["region"] == "normal"

    def test_missing_arguments_is_usage_error(self, capsys):
        code, _, err = run(capsys, "region")
        assert code == 2
        assert "dmin" in err


class TestCluster:
    def test_karate_with_truth(self, capsys):
        out = run_json(capsys, "cluster", KARATE, "--kind", "A", "--k", "2",
                       "--truth", str(karate_factions_path()))
        assert out["comparison"]["misplaced"] == 0
        assert out["vertex_ids"][0] == 1  # pajek graphs report 1-based

    def test_karate_lrw_truth_comparison(self, capsys):
        out = run_json(capsys, "cluster", KARATE, "--kind", "Lrw", "--k", "2",
                       "--truth", str(karate_factions_path()))
        assert out["comparison"]["misplaced"] == 1
        assert out["comparison"]["misplaced_ids"] == [3]

    def test_negative_seed_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "cluster", KARATE, "--kind", "A", "--k", "2", "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_same_output_at_any_blas_thread_count(self, capsys, tmp_path):
        """C(18) with k = 2 takes one vector from a 9-fold eigenspace, so its
        labels depend on the exact basis the solver returns."""
        graph_file = tmp_path / "c18.txt"
        run(capsys, "gen", "graphc", "18", "-o", str(graph_file))
        src = str(Path(graphspectra.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "graphspectra", "cluster", str(graph_file),
                 "--kind", "A", "--k", "2"],
                capture_output=True, env=env, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestImportCost:
    def test_info_and_bounds_do_not_load_scipy(self):
        """scipy is loaded only where two clusterings are compared."""
        src = str(Path(graphspectra.__file__).resolve().parents[1])
        script = (
            "import sys\n"
            "import graphspectra\n"
            "import graphspectra.cli\n"
            f"assert graphspectra.cli.main(['info', {KARATE!r}]) == 0\n"
            f"assert graphspectra.cli.main(['bounds', {KARATE!r}]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "sys.exit(f'scipy modules loaded: {loaded}' if loaded else 0)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr


class TestPrecheckCost:
    """info and region need degrees and components only: O(n + m), no n x n matrix."""

    N = 3000

    @pytest.fixture(scope="class")
    def ring_file(self, tmp_path_factory):
        n = self.N
        rng = np.random.default_rng(3)
        chords = {(min(u, v), max(u, v)) for u, v in rng.integers(0, n, size=(3 * n, 2)) if u != v}
        ring = {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)}
        path = tmp_path_factory.mktemp("precheck") / "ring.txt"
        lines = [f"nodes {n}"] + [f"{u} {v}" for u, v in sorted(ring | chords)]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize("command", ["info", "region"])
    def test_never_builds_the_dense_matrix(self, capsys, ring_file, command):
        dense_bytes = self.N * self.N * 8
        tracemalloc.start()
        try:
            code = main([command, ring_file])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["d_min"] >= 2.0
        assert peak < dense_bytes / 8, f"peak {peak} bytes, dense matrix {dense_bytes}"


class TestCrossoverPolymapWeyl:
    def test_crossover_graph_c(self, capsys, tmp_path):
        graph_file = tmp_path / "c18.txt"
        run(capsys, "gen", "graphc", "18", "-o", str(graph_file))
        out = run_json(capsys, "crossover", str(graph_file), "--pair", "A_L")
        assert out["indices"] == [1, 19]

    def test_polymap_karate(self, capsys):
        out = run_json(capsys, "polymap", KARATE, "--pair", "A_L")
        assert out["unstable"] is True
        assert out["min_input_gap"] < 1e-12
        assert out["output_span_over_degenerate_inputs"] > 2.0

    @pytest.mark.parametrize("argv", [
        ("crossover", "--pair", "A_L", "--tol", "nan"),
        ("polymap", "--pair", "A_L", "--merge-tol", "nan"),
    ])
    def test_non_finite_tolerance_is_domain_error(self, capsys, tmp_path, argv):
        graph_file = tmp_path / "c18.txt"
        run(capsys, "gen", "graphc", "18", "-o", str(graph_file))
        code, out, err = run(capsys, argv[0], str(graph_file), *argv[1:])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "tolerance must be finite" in err

    def test_polymap_single_vertex_is_strict_json(self, capsys, tmp_path):
        graph_file = tmp_path / "one.txt"
        graph_file.write_text("nodes 1\n")
        code, out, err = run(capsys, "polymap", str(graph_file), "--pair", "A_L")
        assert code == 0, err

        parsed = json.loads(out, parse_constant=_reject_constant)
        assert parsed["min_input_gap"] is None
        assert parsed["unstable"] is False

    def test_polymap_overflow_is_strict_json(self, capsys, tmp_path):
        """On the 1000-vertex path the fitted polynomial overflows where it is
        evaluated: exit 0, no numpy warning, the residual named in a string."""
        graph_file = tmp_path / "path.txt"
        graph_file.write_text("nodes 1000\n" + "".join(f"{i} {i + 1}\n" for i in range(999)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "polymap", str(graph_file), "--pair", "A_L")
        assert (code, err) == (0, "")
        parsed = json.loads(out, parse_constant=_reject_constant)
        assert parsed["unstable"] is False
        assert parsed["max_residual"] == "Infinity"
        assert len(parsed["coefficients"]) == 1000

    def test_non_finite_floats_are_named(self):
        assert [cli._json_float(v) for v in (1.5, -0.0, math.inf, -math.inf, math.nan)] == [
            1.5, -0.0, "Infinity", "-Infinity", "NaN"]

    def test_weyl_karate(self, capsys):
        out = run_json(capsys, "weyl", KARATE)
        assert out["ok"] is True
        assert (out["lower"], out["upper"]) == (-8.0, 8.0)
        assert len(out["differences"]) == 34


class TestPlotdata:
    def test_eigs_interval_invariant(self, capsys):
        """interval_high - interval_low = 2 * bound, centred on the pair average."""
        code, out, _ = run(capsys, "plotdata", KARATE, "--figure", "eigs", "--pair", "A_L")
        assert code == 0
        lines = out.strip().splitlines()
        meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        bound = float(meta["bound"])
        header = next(line for line in lines if line.startswith("index,"))
        assert header == "index,raw,transformed,center,interval_low,interval_high"
        for line in lines[lines.index(header) + 1:]:
            _, raw, transformed, center, low, high = map(float, line.split(","))
            assert high - low == pytest.approx(2 * bound, abs=1e-9)
            assert center == pytest.approx((raw + transformed) / 2, abs=1e-9)

    def test_a_lrw_has_inner_interval(self, capsys):
        code, out, _ = run(capsys, "plotdata", KARATE, "--figure", "eigs", "--pair", "A_Lrw")
        assert code == 0
        assert "inner_low,inner_high" in out
        assert "# inner_bound=2" in out

    def test_gaps_figure(self, capsys):
        code, out, _ = run(capsys, "plotdata", KARATE, "--figure", "gaps", "--pair", "L_Lrw")
        assert code == 0
        lines = out.strip().splitlines()
        meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        assert float(meta["bound"]) == pytest.approx(32 / 17)
        assert float(meta["inner_bound"]) == pytest.approx(16 / 9)


class TestSweep:
    def test_k18_flags(self, capsys):
        code, out, _ = run(capsys, "sweep", "--graphc", "17..18")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        lap_largest = [r for r in rows if r[0] == "18" and r[1] == "L" and "largest" in r[4]]
        assert [r[2] for r in lap_largest] == ["19"]
        flagged = [r for r in rows if r[0] == "18" and r[1] == "Lrw" and "k+9" in r[4]]
        assert [r[2] for r in flagged] == ["27"]

    def test_bad_range_is_domain_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--graphc", "18")
        assert code == 1
        assert "range" in err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert "usage" in err

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "info", "no-such-file.txt")
        assert code == 1
        assert "error" in err

    def test_unallocatable_graph_is_domain_error(self, capsys, tmp_path):
        """numpy refuses a 71 PiB request up front, before touching memory."""
        graph_file = tmp_path / "huge.txt"
        graph_file.write_text("nodes 100000000\n")
        code, out, err = run(capsys, "info", str(graph_file))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_oversized_pajek_header_is_domain_error(self, capsys, tmp_path):
        graph_file = tmp_path / "huge.net"
        graph_file.write_text("*Vertices 100000000\n*Edges\n1 2\n")
        code, out, err = run(capsys, "region", str(graph_file))
        assert (code, out) == (1, "")
        assert err.startswith("error: line 1: 100000000 vertices need a ")
        assert len(err.splitlines()) == 1

    def test_kmeans_inertia_increase_is_one_error_line(self, capsys, monkeypatch, tmp_path):
        real_argmin = np.argmin
        calls = []

        def farthest_after_first(a, axis=None):
            calls.append(axis)
            return real_argmin(a, axis=axis) if len(calls) == 1 else np.argmax(a, axis=axis)

        graph_file = tmp_path / "c18.txt"
        assert main(["gen", "graphc", "18", "-o", str(graph_file)]) == 0
        monkeypatch.setattr(np, "argmin", farthest_after_first)
        code, out, err = run(capsys, "cluster", str(graph_file), "--kind", "L", "--k", "19")
        assert (code, out) == (1, "")
        assert err.startswith("error: k-means inertia increased")
        assert len(err.splitlines()) == 1

    def test_non_numeric_truth_label_names_the_line(self, capsys, tmp_path):
        truth_file = tmp_path / "truth.txt"
        truth_file.write_text("# vertex label\n1 a\n")
        code, _, err = run(capsys, "cluster", KARATE, "--kind", "A", "--k", "2",
                           "--truth", str(truth_file))
        assert code == 1
        assert err == "error: truth file line 2: non-numeric label 'a'\n"

    def test_malformed_graph_is_domain_error(self, capsys, tmp_path):
        graph_file = tmp_path / "bad.txt"
        graph_file.write_text("nodes 2\n0 0\n")
        code, _, err = run(capsys, "info", str(graph_file))
        assert code == 1
        assert "self-loop" in err
