"""Command-line surface: output formats, exit codes, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphspectra
from graphspectra import load_edge_list
from graphspectra.cli import main
from graphspectra.data import karate_factions_path, karate_net_path

KARATE = str(karate_net_path())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_malformed_graph_is_domain_error(self, capsys, tmp_path):
        graph_file = tmp_path / "bad.txt"
        graph_file.write_text("nodes 2\n0 0\n")
        code, _, err = run(capsys, "info", str(graph_file))
        assert code == 1
        assert "self-loop" in err
