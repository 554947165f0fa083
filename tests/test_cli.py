"""Command-line surface: output formats, exit codes, round trips."""

import argparse
import ast
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import graphspectra
from graphspectra import cli, load_edge_list
from graphspectra.cli import main
from graphspectra.data import karate_factions_path, karate_net_path, load_truth_labels
from graphspectra.graphs import _write_edge_list
from test_golden import ISOLATED

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


class TestTinyWeights:
    """A path whose two weights are 1e-10: its degree extremes are near 0 but
    not 0, so no integer class applies."""

    @pytest.fixture
    def tiny_path(self, tmp_path):
        graph_file = tmp_path / "tiny.txt"
        graph_file.write_text("nodes 3 base 0\n0 1 1e-10\n1 2 1e-10\n")
        return str(graph_file)

    def test_info_reports_no_class(self, capsys, tiny_path):
        out = run_json(capsys, "info", tiny_path)
        assert (out["d_min"], out["d_max"]) == (1e-10, 2e-10)
        assert (out["class"], out["region"], out["ordering"]) == (None, None, None)

    def test_region_is_one_error_line(self, capsys, tiny_path):
        code, out, err = run(capsys, "region", tiny_path)
        assert (code, out) == (1, "")
        assert err == "error: degree extremes are not integers; no integer class applies\n"


class TestGen:
    def test_roundtrip_star(self, capsys, tmp_path):
        target = tmp_path / "star.txt"
        code, _, _ = run(capsys, "gen", "star", "18", "-o", str(target))
        assert code == 0
        g = load_edge_list(target.read_text())
        assert g.n == 18
        assert g.edge_weights.sum() == 17

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

    @pytest.mark.parametrize("kind", ["star", "complete", "graphc"])
    def test_oversized_graph_is_one_error_line_at_once(self, capsys, kind):
        """The loaders' size rule, applied before a single edge is built."""
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", kind, "99999999999999999999")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "vertices need a " in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("gen", "star", str(10**200)),
        ("sweep", "--graphc", f"3..{10**200}"),
        ("info", "{file}"),
    ])
    def test_size_past_the_float_range_is_one_error_line(self, capsys, tmp_path, argv):
        """The size in GiB is formatted exactly, so a 200-digit size is no OverflowError."""
        graph_file = tmp_path / "huge.txt"
        graph_file.write_text(f"nodes {10**200}\n0 1\n")
        code, out, err = run(capsys, *(arg.format(file=graph_file) for arg in argv))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and " GiB dense matrix, more than the " in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, edges", [
        (("gen", "complete", "1500"), 1124250),
        (("gen", "graphc", "1500"), 1124259),
        (("sweep", "--graphc", "3..1500"), 1124259),
    ])
    def test_too_many_edges_is_one_error_line_at_once(self, capsys, monkeypatch, argv, edges):
        """The dense matrix of 1500 vertices fits 128 MiB, their edges do not."""
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**15}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
        start = time.perf_counter()
        result = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert result == (1, "", f"error: {edges} edges need about 0.2 GiB to build, "
                                 "more than the 0.1 GiB of physical memory\n")


class TestFileFormat:
    """The first line, not the file name, says whether a file is Pajek or an edge list."""

    @pytest.fixture(scope="class")
    def sources(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("sources")
        texts = {
            "c18": _write_edge_list(graphspectra.gen_graph_c(18)),
            "c4w": "nodes 4\n0 1 0.5\n1 2 1\n2 3 0.25\n3 0 0.75\n",
            "isolated": "nodes 3\n0 1\n",
        }
        for name, text in texts.items():
            (tmp / f"{name}.txt").write_text(text)
        return {"karate": Path(KARATE), **{name: tmp / f"{name}.txt" for name in texts}}

    @pytest.mark.parametrize("name, suffixes", [
        ("karate", [".net", ".paj", ".txt"]),
        ("c18", [".txt", ".net"]),
        ("c4w", [".txt", ".net"]),
        ("isolated", [".txt", ".net"]),
    ])
    @pytest.mark.parametrize("command", ["info", "bounds"])
    def test_every_name_gives_the_same_output(self, capsys, tmp_path, sources, name, suffixes,
                                              command):
        code, expected, _ = run(capsys, command, str(sources[name]))
        assert code == 0
        for suffix in suffixes:
            copy = tmp_path / f"{name}{suffix}"
            copy.write_text(sources[name].read_text())
            assert run(capsys, command, str(copy)) == (0, expected, "")

    @pytest.mark.parametrize("name", ["karate", "c4w"])
    def test_leading_byte_order_mark_is_ignored(self, capsys, tmp_path, sources, name):
        code, expected, _ = run(capsys, "info", str(sources[name]))
        assert code == 0
        copy = tmp_path / "bom.txt"
        copy.write_bytes(b"\xef\xbb\xbf" + sources[name].read_bytes())
        assert run(capsys, "info", str(copy)) == (0, expected, "")

    @pytest.mark.parametrize("argv", [
        ["info", KARATE], ["spectra", KARATE, "--kind", "A"], ["bounds", KARATE],
        ["gaps", KARATE], ["region", KARATE], ["cluster", KARATE, "--kind", "A", "--k", "2"],
        ["crossover", KARATE, "--pair", "A_L"], ["polymap", KARATE, "--pair", "A_L"],
        ["weyl", KARATE], ["plotdata", KARATE, "--figure", "eigs", "--pair", "A_L"],
    ], ids=lambda argv: argv[0])
    def test_input_format_option_is_gone(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--input-format", "pajek")
        assert (code, out) == (2, "")
        assert err.startswith("usage: ")
        assert err.endswith("error: unrecognized arguments: --input-format pajek\n")


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

    @pytest.mark.parametrize("argv, message", [
        (("--json", "--dmin-max", "200", "--dmax-max", "1000"),
         "a table of 201,000 cells needs about 0.4 GiB"),
        (("--dmin-max", "999", "--dmax-max", "1000"), "a table of 1,000,000 cells needs about 0.2 GiB"),
    ])
    def test_oversized_grid_is_one_error_line_before_any_cell(self, capsys, monkeypatch, argv, message):
        """128 MiB of memory holds neither grid, so no cell is computed."""
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**15}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])

        def no_cell(j, k):
            raise AssertionError(f"cell ({j}, {k}) computed")

        monkeypatch.setattr(cli, "_exact_bounds", no_cell)  # every cell of both grids
        assert run(capsys, "table", *argv) == (
            1, "", f"error: {message}, more than the 0.1 GiB of physical memory\n")

    def test_grid_beyond_the_float_range_is_one_error_line(self, capsys, monkeypatch):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**15}
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
        code, out, err = run(capsys, "table", "--dmin-max", "9", "--dmax-max", str(10**400))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: a table of {10**401:,} cells needs about ")
        assert err.endswith(" GiB, more than the 0.1 GiB of physical memory\n")


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

    @pytest.mark.parametrize("argv", [(KARATE, "--dmin", "3"),
                                      (KARATE, "--dmin", "3", "--dmax", "3"),
                                      ("--dmin", "3")],
                             ids=["file_and_dmin", "file_and_both", "dmin_alone"])
    def test_file_xor_both_extremes(self, capsys, argv):
        """A FILE given with --dmin or --dmax would silently ignore the extremes."""
        code, out, err = run(capsys, "region", *argv)
        assert (code, out) == (2, "")
        assert err == "error: region needs a FILE or both --dmin and --dmax\n"

    @pytest.mark.parametrize("dmax", ["0", "1"])
    def test_no_ordering_for_zero_dmin(self, capsys, dmax):
        """d_min = 0 leaves e(L,Lrw) and e(A,Lrw) undefined, so there is nothing to order."""
        code, out, err = run(capsys, "region", "--dmin", "0", "--dmax", dmax)
        assert (code, out) == (1, "")
        assert err == ("error: no bound ordering for d_min = 0: "
                       "e(L,Lrw) and e(A,Lrw) are undefined\n")

    @pytest.mark.parametrize("dmin, dmax", [("5", "3"), ("-1", "3"), ("0", str(10**400))],
                             ids=["dmin_above_dmax", "negative_dmin", "dmax_beyond_float"])
    def test_impossible_extremes_are_one_error_line(self, capsys, dmin, dmax):
        code, out, err = run(capsys, "region", "--dmin", dmin, "--dmax", dmax)
        assert (code, out) == (1, "")
        assert err == "error: region needs 0 <= --dmin <= --dmax, both finite as floats\n"


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

    @pytest.mark.parametrize("base", [0, 1])
    def test_truth_ids_are_numbered_as_in_the_graph(self, capsys, tmp_path, base):
        graph_file, truth_file = tmp_path / "graph.txt", tmp_path / "truth.txt"
        graph_file.write_text(f"nodes 4 base {base}\n{base} {base + 1}\n{base + 2} {base + 3}\n")
        labels = [0, 0, 1, 0]  # against the clusters {0, 1} and {2, 3}, vertex 3 is misplaced
        truth_file.write_text("".join(f"{v + base} {label}\n" for v, label in enumerate(labels)))
        out = run_json(capsys, "cluster", str(graph_file), "--kind", "L", "--k", "2",
                       "--truth", str(truth_file))
        assert out["vertex_ids"] == [base, base + 1, base + 2, base + 3]
        assert out["comparison"] == {"misplaced": 1, "misplaced_ids": [base + 3]}

    def test_truth_file_with_byte_order_mark(self, capsys, tmp_path):
        truth_file = tmp_path / "truth.txt"
        truth_file.write_bytes(b"\xef\xbb\xbf" + karate_factions_path().read_bytes())
        golden = Path(__file__).parent / "golden" / "cluster_truth_A_2_karate.out"
        assert run(capsys, "cluster", KARATE, "--kind", "A", "--k", "2",
                   "--truth", str(truth_file)) == (0, golden.read_text(), "")

    @pytest.mark.parametrize("truth, message", [
        ("x 0\n", "truth file line 1: non-numeric vertex id 'x'"),
        ("9 0\n", "truth file line 1: vertex id 9 out of range"),
    ])
    def test_bad_truth_vertex_id_is_a_plain_value_error(self, truth, message):
        """A truth file is no graph file, so none of its errors is a GraphFormatError."""
        with pytest.raises(ValueError) as info:
            load_truth_labels(truth, 4)
        assert (type(info.value), str(info.value)) == (ValueError, message)

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


class TestPublicNamespace:
    def test_every_exported_name_resolves(self):
        for name in graphspectra.__all__:
            getattr(graphspectra, name)
        namespace = {}
        exec("from graphspectra import *", namespace)
        assert set(graphspectra.__all__) <= set(namespace)

    def test_every_exported_name_is_its_defining_modules_object(self):
        for name in graphspectra.__all__:
            obj = getattr(graphspectra, name)
            assert obj is getattr(sys.modules[obj.__module__], name), name

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            graphspectra.no_such_name  # noqa: B018
        assert not hasattr(graphspectra, "numpy")


class TestBenchmarkSurface:
    """What the benchmark's workloads use of the package stays: every ``gs.<name>``
    in ``perfbench/workloads.py`` is exported, every ``cli("<subcommand>", ...)``
    is a subcommand, and the records its self-test perturbs with
    ``dataclasses.replace`` stay dataclasses. Removing any of them fails the
    benchmark's ops, so it waits on moving the workloads off them (ROADMAP item 1a)."""

    WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

    def _uses(self):
        tree = ast.parse(self.WORKLOADS.read_text())
        names = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "gs"}
        subcommands = {node.args[0].value for node in ast.walk(tree)
                       if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                       and node.func.id == "cli" and node.args
                       and isinstance(node.args[0], ast.Constant)}
        return names, subcommands

    def test_every_used_name_is_exported(self):
        names, _ = self._uses()
        assert {"Graph", "weyl_check", "pair_differences", "cluster"} <= names
        assert names <= set(graphspectra.__all__), sorted(names - set(graphspectra.__all__))

    def test_every_used_subcommand_is_parsed(self):
        _, used = self._uses()
        subcommands = next(action for action in cli.build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        assert {"weyl", "bounds", "cluster"} <= used
        assert used <= set(subcommands.choices), sorted(used - set(subcommands.choices))

    def test_perturbed_records_stay_dataclasses(self):
        for name in ("PairDifferences", "WeylReport", "ClusteringResult"):
            assert dataclasses.is_dataclass(getattr(graphspectra, name)), name


class TestReadme:
    def test_command_list_is_the_parsers_subcommands(self):
        """The first words of the README's command block after 'exposes:' are the
        subcommands of the parser, in its order."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("exposes:", 1)[1].split("```", 2)[1]
        listed = [line.split()[0] for line in block.splitlines() if line.strip()]
        subcommands = next(action for action in cli.build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        assert listed == list(subcommands.choices)


class TestSource:
    def test_every_imported_name_is_used(self):
        """Each name a package module imports, __future__ aside, occurs in it as a Name."""
        for path in sorted(Path(graphspectra.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    imported |= {alias.asname or alias.name for alias in node.names}
            assert imported <= used, f"{path.name} imports unused {sorted(imported - used)}"


class TestImportCost:
    def test_no_command_loads_scipy(self, tmp_path):
        """The README session, every command the cli_session benchmark runs,
        comparing clusterings included, leaves no scipy module loaded."""
        src = str(Path(graphspectra.__file__).resolve().parents[1])
        c18, sweep = str(tmp_path / "c18.txt"), str(tmp_path / "sweep.csv")
        commands = [
            ["gen", "graphc", "18", "-o", c18],
            ["bounds", c18],
            ["crossover", c18, "--pair", "A_L"],
            ["cluster", c18, "--kind", "Lrw", "--k", "27"],
            ["sweep", "--graphc", "3..18", "-o", sweep],
            ["info", KARATE],
            ["bounds", KARATE],
            ["gaps", KARATE],
            ["weyl", KARATE],
            ["polymap", KARATE, "--pair", "A_L"],
            ["polymap", KARATE, "--pair", "A_Lrw"],
            ["plotdata", KARATE, "--figure", "eigs", "--pair", "A_Lrw"],
            ["cluster", KARATE, "--kind", "A", "--k", "2", "--truth", str(karate_factions_path())],
        ]
        script = (
            "import sys\n"
            "import graphspectra.cli\n"
            f"for argv in {commands!r}:\n"
            "    assert graphspectra.cli.main(argv) == 0, argv\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "sys.exit(f'scipy modules loaded: {loaded}' if loaded else 0)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert '"misplaced": 0' in proc.stdout


SMOKE_COMMANDS = Path(__file__).resolve().parent / "smoke_commands.txt"

# Runs the steps in argv[1], a JSON list, in the current directory: ["write", FILE, TEXT]
# writes a file, any other list is one cli.main call. scipy, pytest and hypothesis are
# refused on import. Prints what each call returned and wrote to stderr, every warning
# and every refused import, as JSON.
_RUN_SMOKE_STEPS = """\
import contextlib, io, json, sys, warnings

BLOCKED = ("scipy", "pytest", "hypothesis")
refused = []


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in BLOCKED:
            refused.append(name)
            raise ModuleNotFoundError(f"{name} is refused here")
        return None


sys.meta_path.insert(0, Refuse())
from graphspectra import cli

calls = []
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    for step in json.loads(sys.argv[1]):
        if step[0] == "write":
            with open(step[1], "w") as f:
                f.write(step[2])
            continue
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(step)
        calls.append([step, code, err.getvalue()])
loaded = sorted(m for m in sys.modules if m.split(".")[0] in BLOCKED)
print(json.dumps({"calls": calls, "warnings": [str(w.message) for w in caught],
                  "refused": refused, "loaded": loaded}))
"""


def smoke_steps() -> list[list[str]]:
    """The lines of the smoke list as argument lists, $data resolved and each write's \\n a newline."""
    data = str(karate_net_path().parent)
    steps = []
    for line in SMOKE_COMMANDS.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            words = shlex.split(line.replace("$data", data))
            if words[0] == "write":
                words[2] = words[2].replace("\\n", "\n")
            steps.append(words)
    return steps


class TestSmokeList:
    """The smoke list that CI runs one process per command, run in one interpreter."""

    def test_every_command_runs_with_numpy_alone(self, tmp_path):
        steps = smoke_steps()
        src = str(Path(graphspectra.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _RUN_SMOKE_STEPS, json.dumps(steps)],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        report = json.loads(proc.stdout)
        assert len(report["calls"]) == sum(step[0] != "write" for step in steps)
        for argv, code, err in report["calls"]:
            assert (code, err) == (0, ""), argv
        assert report["warnings"] == []
        assert report["refused"] == [] and report["loaded"] == []

    def test_every_subcommand_is_on_the_list(self):
        subcommands = next(action for action in cli.build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        listed = {step[0] for step in smoke_steps()}
        assert set(subcommands.choices) <= listed


# A sitecustomize module for a child interpreter: when numpy is first imported,
# write the OPENBLAS_THREAD_TIMEOUT that OpenBLAS is about to read to stderr.
_REPORT_SPIN_AT_NUMPY_IMPORT = """\
import os
import sys


class _ReportAtNumpyImport:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(repr(os.environ.get("OPENBLAS_THREAD_TIMEOUT")), file=sys.stderr)
        return None


sys.meta_path.insert(0, _ReportAtNumpyImport())
"""


class TestBlasSpinTimeout:
    """The CLI shortens OpenBLAS's idle spin before numpy loads; a value the user set wins."""

    @staticmethod
    def spin_timeout_numpy_sees(tmp_path, **variables):
        (tmp_path / "sitecustomize.py").write_text(_REPORT_SPIN_AT_NUMPY_IMPORT)
        src = str(Path(graphspectra.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        env.update(variables, PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
        proc = subprocess.run([sys.executable, "-m", "graphspectra", "bounds", KARATE],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        (reported,) = proc.stderr.splitlines()
        return ast.literal_eval(reported)

    def test_set_before_numpy_loads(self, tmp_path):
        assert self.spin_timeout_numpy_sees(tmp_path) == cli._OPENBLAS_SPIN_EXPONENT

    def test_users_value_reaches_numpy_unchanged(self, tmp_path):
        assert self.spin_timeout_numpy_sees(tmp_path, OPENBLAS_THREAD_TIMEOUT="30") == "30"

    def test_in_process_caller_with_numpy_loaded_keeps_its_environment(self, capsys, monkeypatch):
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
        assert "numpy" in sys.modules
        before = dict(os.environ)
        assert run(capsys, "bounds", KARATE)[0] == 0
        assert dict(os.environ) == before


def _info(n, d_min, d_max, components, rescaled, tag=None, region=None, ordering=None):
    return {"n": n, "d_min": d_min, "d_max": d_max, "component_count": components,
            "rescaled": rescaled, "class": tag and {"j": tag[0], "k": tag[1]},
            "region": region, "ordering": ordering}


_REGULAR = ("regular", "e(A,L) = e(L,Lrw) = e(A,Lrw) = 0")
_NOT_INTEGRAL = "error: degree extremes are not integers; no integer class applies\n"
_NO_ORDERING = "error: no bound ordering for d_min = 0: e(L,Lrw) and e(A,Lrw) are undefined\n"
_UNDERFLOW = "error: a weight underflows to 0 when divided by the maximum weight 1e+308\n"


class TestPrecheckEdgeCases:
    """info and region on the inputs at the edges of the loaders and the class rule.

    Each case pins stdout, stderr and the exit status byte for byte:
    (file text, info's JSON or error, region's JSON or error).
    """

    CASES = {
        "nodes_0": ("nodes 0\n", _info(0, 0.0, 0.0, 0, False, (0, 0)), _NO_ORDERING),
        "empty_file": ("", "error: missing 'nodes N' header\n",
                       "error: missing 'nodes N' header\n"),
        "vertices_0": ("*Vertices 0\n", _info(0, 0.0, 0.0, 0, False, (0, 0)), _NO_ORDERING),
        "rescale_underflows": ("nodes 3\n0 1 1e308\n1 2 1e-308\n", _UNDERFLOW, _UNDERFLOW),
        "denormal_weight": ("nodes 2\n0 1 5e-324\n",
                            _info(2, 5e-324, 5e-324, 1, False), _NOT_INTEGRAL),
        "rescaled_weight_2": ("nodes 2\n0 1 2\n", _info(2, 1.0, 1.0, 1, True, (1, 1), *_REGULAR),
                              {"d_min": 1.0, "d_max": 1.0, "region": _REGULAR[0],
                               "ordering": _REGULAR[1]}),
        "two_components_base_1": ("nodes 4 base 1\n1 2\n3 4\n",
                                  _info(4, 1.0, 1.0, 2, False, (1, 1), *_REGULAR),
                                  {"d_min": 1.0, "d_max": 1.0, "region": _REGULAR[0],
                                   "ordering": _REGULAR[1]}),
        "arcs_rescaled_isolated": ("*Vertices 5\n1 \"a\"\n*Arcs\n1 2 3\n2 1 3\n2 3 1.5\n"
                                   "*Edges\n3 4 0.5\n",
                                   _info(5, 0.0, 1.5, 2, True), _NOT_INTEGRAL),
    }

    @pytest.mark.parametrize("command", ["info", "region"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_exit_status_and_error(self, capsys, tmp_path, case, command):
        text, info, region = self.CASES[case]
        expected = info if command == "info" else region
        graph_file = tmp_path / "graph"
        graph_file.write_text(text)
        if isinstance(expected, dict):
            expected = (0, json.dumps(expected, indent=2) + "\n", "")
        else:
            expected = (1, "", expected)
        assert run(capsys, command, str(graph_file)) == expected


class TestNoNumpyForThePrecheck:
    """info, region and gen need only degrees, components or edges: they never import numpy,
    nor ``dataclasses`` (which imports ``inspect``) or ``fractions`` (which imports ``decimal``)."""

    @pytest.fixture(scope="class")
    def commands(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("precheck")
        edge_list, pajek = tmp / "path.txt", tmp / "path.paj"
        # The path P4 with every weight 2, rescaled to 1.
        edge_list.write_text("nodes 4 base 1\n1 2 2\n2 3 2\n3 4 2\n")
        pajek.write_text("*Vertices 4\n*Arcs\n2 1 2\n2 3 2\n*Edges\n3 4 2\n")
        files = [str(edge_list), str(pajek), KARATE]
        return ([[command, f] for command in ("info", "region") for f in files]
                + [["region", "--dmin", "2", "--dmax", "5"]]
                + [["gen", "star", "5"], ["gen", "complete", "4"], ["gen", "graphc", "3"],
                   ["gen", "bipartiteb"], ["gen", "graphc", "18", "-o", str(tmp / "c18.txt")]])

    @staticmethod
    def python(*args) -> subprocess.CompletedProcess:
        src = str(Path(graphspectra.__file__).resolve().parents[1])
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))

    def test_import_graphspectra_loads_no_numpy(self):
        proc = self.python("-c", "import sys, graphspectra\n"
                                 "sys.exit('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr

    def test_through_python_m(self, commands):
        """-X importtime lists every module the command imports on stderr."""
        for argv in commands:
            proc = self.python("-X", "importtime", "-m", "graphspectra", *argv)
            assert proc.returncode == 0, (argv, proc.stderr)
            imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
            assert "graphspectra.graphs" in imported
            assert [m for m in imported if m.split(".")[0] == "numpy"] == [], argv
            assert {"dataclasses", "fractions"}.isdisjoint(imported), argv

    def test_through_cli_main(self, commands):
        script = (
            "import sys\n"
            "import graphspectra.cli\n"
            f"for argv in {commands!r}:\n"
            "    assert graphspectra.cli.main(argv) == 0, argv\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
            "sys.exit(f'numpy modules loaded: {loaded}' if loaded else 0)\n"
        )
        proc = self.python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count('"region": "bold"') == 4  # P4 from both files


class TestClusterLoadsNoMaskedArrays:
    """numpy.ma costs about 4.5 ms to import, and cluster needs no masked array."""

    @pytest.mark.parametrize("truth", [[], ["--truth", str(karate_factions_path())]])
    def test_through_python_m(self, truth):
        argv = ["cluster", KARATE, "--kind", "Lrw", "--k", "2", *truth]
        proc = TestNoNumpyForThePrecheck.python("-X", "importtime", "-m", "graphspectra", *argv)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "numpy.linalg" in imported
        assert "numpy.ma" not in imported


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
        """The 700-vertex path under --merge-tol 0, on which a Newton-form fit
        overflows: exit 0, no numpy warning, strict JSON, and unstable, since
        a zero tolerance admits no rounding, with every eigenvalue a node and
        finite weights. The eigenvalues 2 cos(k pi / 701) are Chebyshev-like
        nodes, so Lambda is small."""
        graph_file = tmp_path / "path.txt"
        graph_file.write_text("nodes 700\n" + "".join(f"{i} {i + 1}\n" for i in range(699)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "polymap", str(graph_file), "--pair", "A_L",
                                 "--merge-tol", "0")
        assert (code, err) == (0, "")
        parsed = json.loads(out, parse_constant=_reject_constant)
        assert parsed["unstable"] is True
        assert parsed["max_residual"] is None
        assert len(parsed["nodes"]) == len(parsed["weights"]) == 700
        assert all(math.isfinite(w) for w in parsed["weights"])
        assert 1.0 < parsed["lebesgue_constant"] < 1e3

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

    def test_oversized_sweep_is_one_error_line_at_once(self, capsys):
        """The size rule on the largest C(k) of the range, before the first spectrum."""
        start = time.perf_counter()
        code, out, err = run(capsys, "sweep", "--graphc", "3..99999999")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: 100000017 vertices need a ")
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

    def test_truth_label_beyond_int64_names_the_line(self, capsys, tmp_path):
        truth_file = tmp_path / "truth.txt"
        truth_file.write_text(f"1 {2**63}\n")
        code, out, err = run(capsys, "cluster", KARATE, "--kind", "A", "--k", "2",
                             "--truth", str(truth_file))
        assert (code, out) == (1, "")
        assert err == f"error: truth file line 1: label {2**63} exceeds {2**63 - 1}\n"

    def test_malformed_graph_is_domain_error(self, capsys, tmp_path):
        graph_file = tmp_path / "bad.txt"
        graph_file.write_text("nodes 2\n0 0\n")
        code, _, err = run(capsys, "info", str(graph_file))
        assert code == 1
        assert "self-loop" in err

    # A 4-vertex graph of two edges (1-based); clustering it at k = 2 reaches the truth file.
    # A row whose truth is a (graph, truth) pair reads it against that graph instead.
    TRUTH_GRAPH = "nodes 4 base 1\n1 2\n3 4\n"
    BASE0_GRAPH = "nodes 4\n0 1\n2 3\n"

    @pytest.mark.parametrize("truth, message", [
        ("1 0 7\n", "truth file line 1: expected 'vertex_id label'"),
        ("1 0\n9 1\n", "truth file line 2: vertex id 9 out of range"),
        ("1 -1\n", "truth file line 1: labels must be non-negative"),
        ("1 0\n# again\n1 1\n", "truth file line 3: duplicate vertex id 1"),
        ("1 0\n2 0\n4 1\n", "truth file is missing a label for vertex 3"),
        ("1 0\n2 1_0\n", "truth file line 2: non-numeric label '1_0'"),
        ("\uff11 0\n", "truth file line 1: non-numeric vertex id '\uff11'"),
        # Ids are numbered as in the graph file, in the file and in the messages.
        ((BASE0_GRAPH, "0 0\n4 1\n"), "truth file line 2: vertex id 4 out of range"),
        ((BASE0_GRAPH, "0 0\n0 1\n"), "truth file line 2: duplicate vertex id 0"),
        ((BASE0_GRAPH, "1 0\n2 1\n3 1\n"), "truth file is missing a label for vertex 0"),
    ])
    def test_bad_truth_file_is_one_error_line(self, capsys, tmp_path, truth, message):
        graph, truth = truth if isinstance(truth, tuple) else (self.TRUTH_GRAPH, truth)
        graph_file, truth_file = tmp_path / "graph.txt", tmp_path / "truth.txt"
        graph_file.write_text(graph)
        truth_file.write_text(truth)
        code, out, err = run(capsys, "cluster", str(graph_file), "--kind", "L", "--k", "2",
                             "--truth", str(truth_file))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("graph, argv, message", [
        (None, ("gen", "bipartiteb", "5"), "bipartiteb does not take a size"),
        (None, ("table", "--dmin-max", "-1"), "table needs --dmin-max >= 0 and --dmax-max >= 1"),
        (None, ("sweep", "--graphc", "5..3"), "empty range '5..3'"),
        ("nodes 0\n", ("polymap", "--pair", "A_L"), "cannot interpolate empty spectra"),
        ("nodes 1\n", ("gaps",), "gap bounds need d_max > 0"),
        ("nodes 1\n", ("plotdata", "--figure", "gaps", "--pair", "A_L"),
         "eigengaps need at least two eigenvalues"),
        (None, ("sweep", "--graphc", "\uff13..\uff14"),
         "range must look like 3..18, got '\uff13..\uff14'"),
    ])
    def test_domain_error_is_one_error_line(self, capsys, tmp_path, graph, argv, message):
        if graph is not None:
            graph_file = tmp_path / "graph.txt"
            graph_file.write_text(graph)
            argv = (argv[0], str(graph_file), *argv[1:])
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_solver_failure_is_one_error_line(self, capsys, monkeypatch):
        def failing_eigh(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        assert run(capsys, "spectra", KARATE, "--kind", "A") == (
            1, "", "error: A matrix (n=34): LAPACK eigh failed (Eigenvalues did not converge)\n")

    @pytest.mark.parametrize("text, message", [
        ("nodes 2 3\n", "line 1: malformed header 'nodes 2 3'"),
        ("nodes two\n", "line 1: malformed header 'nodes two'"),
        ("nodes 2 base 2\n", "line 1: malformed header 'nodes 2 base 2'"),
        ("nodes 2\n0 1 abc\n", "line 2: non-numeric weight 'abc'"),
        ("nodes 2\n0 1 0\n", "line 2: edge weight must be positive and finite"),
        ("nodes 2\n0 1 inf\n", "line 2: edge weight must be positive and finite"),
        ("*Vertices\n", "line 1: *Vertices needs a count"),
        ("*Vertices two\n", "line 1: non-numeric vertex count"),
        ("*Vertices 2\n*Matrix\n", "line 2: unsupported section '*Matrix'"),
        ("*Vertices 2\n*Edges\n1 2 1 1\n", "line 3: malformed edges line '1 2 1 1'"),
        ("*Vertices 2\n*Edges\n2 2\n", "line 3: self-loop on vertex 2"),
        ("*Vertices 2\n*Edges\n1 2\n2 1\n", "line 4: duplicate edge 2 1"),
        # Python's int and float read '_' separators and non-ASCII digits; the formats do not.
        ("nodes 20\n0 1_0\n", "line 2: non-numeric vertex id '1_0'"),
        ("nodes 2\n0 1 1_0\n", "line 2: non-numeric weight '1_0'"),
        ("nodes \uff13\n0 \uff12\n", "line 1: malformed header 'nodes \uff13'"),
        ("nodes 3\n0 \uff12\n", "line 2: non-numeric vertex id '\uff12'"),
        ("nodes 2\n0 1 \uff10.5\n", "line 2: non-numeric weight '\uff10.5'"),
        ("*Vertices 1_0\n", "line 1: non-numeric vertex count"),
        ("*Vertices 3\n*Edges\n1 \uff12\n", "line 3: non-numeric vertex id '\uff12'"),
        ("nodes 2\n-1 1\n", "line 2: vertex id -1 out of range"),
        # Both loaders check a line's weight before asking whether its edge repeats.
        ("nodes 2\n0 1\n0 1 abc\n", "line 3: non-numeric weight 'abc'"),
    ])
    def test_malformed_graph_file_is_one_error_line(self, capsys, tmp_path, text, message):
        graph_file = tmp_path / "graph"
        graph_file.write_text(text)
        assert run(capsys, "info", str(graph_file)) == (1, "", f"error: {message}\n")


# Degenerate and extreme graphs: every degree subnormal, one subnormal
# degree beside normal ones, tiny but normal weights, no edges, one vertex,
# no vertex, and an isolated vertex.
ADVERSARIAL_GRAPHS = {
    "subnormal": "nodes 2\n0 1 1e-320\n",
    "subnormal_mixed": "nodes 3\n0 1 1e-320\n1 2 1\n",
    "weights_1e-300": "nodes 3\n0 1 1e-300\n1 2 1e-300\n",
    "edgeless": "nodes 3\n",
    "one_vertex": "nodes 1\n",
    "no_vertex": "nodes 0\n",
    "isolated": ISOLATED,
}
KINDS = ("A", "L", "Lrw")
PAIRS = ("A_L", "L_Lrw", "A_Lrw")
# Every subcommand that reads a graph file, with each of its kinds or pairs.
FILE_COMMANDS = (
    ("info",), ("region",), ("bounds",), ("gaps",), ("weyl",),
    *(("spectra", "--kind", kind) for kind in KINDS),
    *(("cluster", "--kind", kind, "--k", k) for kind in KINDS for k in ("1", "2")),
    *((command, "--pair", pair) for command in ("crossover", "polymap") for pair in PAIRS),
    *(("plotdata", "--figure", figure, "--pair", pair) for figure in ("eigs", "gaps") for pair in PAIRS),
)
CSV_COMMANDS = {"spectra", "plotdata"}


class TestAdversarialGraphFiles:
    """Each command either succeeds, printing parseable output and nothing on
    stderr, or fails with exit code 1, no output and one ``error:`` line. A
    numpy warning counts as stderr, as it does in a shell."""

    @pytest.mark.parametrize("graph", sorted(ADVERSARIAL_GRAPHS))
    @pytest.mark.parametrize("argv", FILE_COMMANDS, ids=" ".join)
    def test_ends_cleanly(self, capsys, tmp_path, graph, argv):
        graph_file = tmp_path / "graph.txt"
        graph_file.write_text(ADVERSARIAL_GRAPHS[graph])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv[0], str(graph_file), *argv[1:])
        err += "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        if code == 0:
            assert err == ""
            if argv[0] in CSV_COMMANDS:
                rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
                assert all(len(row) == len(rows[0]) for row in rows)
                assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row)
            else:
                json.loads(out, parse_constant=_reject_constant)
        else:
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
