"""Golden CLI outputs: a fixed set of commands must print byte-identical stdout.

The goldens under ``tests/golden/`` were recorded with the package's own
CLI on karate, C(18), a rescaled weighted C4 and a graph with an isolated
vertex, plus the ``gen`` generators. The ``cluster`` goldens cover karate
at k = 2 and 4 on every kind (and ``--kind A --k 2 --truth``), C(18) at
k = 10 on every kind, ``L`` at k = 19 and ``Lrw`` at k = 27, and one run
at ``--seed 7 --restarts 3``; each k takes whole eigenspaces, so the
labels do not depend on the basis LAPACK picks inside a repeated
eigenvalue. They pin every printed digit (and,
for the commands that must fail, the error line), so an intended
change of output has to be made here, deliberately, by regenerating:

    PYTHONPATH=src python tests/test_golden.py

Floats are printed to 17 significant digits, so the goldens hold for
one numpy/LAPACK build; another build may differ in the last digits.
"""

import sys
from pathlib import Path

import pytest

from graphspectra.cli import main
from graphspectra.data import karate_factions_path, karate_net_path
from graphspectra.graphs import gen_graph_c

GOLDEN = Path(__file__).parent / "golden"
PAIRS = ("A_L", "L_Lrw", "A_Lrw")
TABLE_SIZES = {"default": (), "4x20": ("--dmin-max", "4", "--dmax-max", "20")}
GENERATED = {"star_18": ("star", "18"), "complete_5": ("complete", "5"),
             "graphc_18": ("graphc", "18"), "bipartiteb": ("bipartiteb",)}
# Weights 2, 3, 5, 7 are rescaled by 7: non-dyadic weights, non-integer degrees.
C4_WEIGHTED = "nodes 4\n0 1 2\n1 2 3\n2 3 5\n3 0 7\n"
# A triangle, an edge and the isolated vertex 6 (1-based): d_min = 0.
ISOLATED = "nodes 6 base 1\n1 2\n2 3\n3 1\n4 5\n"
# (graph, kind, k) for the cluster goldens; no k cuts a repeated eigenvalue.
CLUSTERINGS = (*((graph, kind, k) for graph, ks in (("karate", (2, 4)), ("c18", (10,)))
                 for k in ks for kind in ("A", "L", "Lrw")),
               ("c18", "L", 19), ("c18", "Lrw", 27))
# Commands that end as a domain error; their golden is the stderr line.
FAILING = {"region_c4w", "region_iso"}


def _commands() -> dict[str, list[str]]:
    """Golden name -> argv, with {karate} / {c18} / ... standing for the input files."""
    cmds: dict[str, list[str]] = {}
    for graph in ("karate", "c18"):
        path = "{" + graph + "}"
        for name in ("bounds", "gaps", "weyl"):
            cmds[f"{name}_{graph}"] = [name, path]
        for pair in PAIRS:
            cmds[f"crossover_{pair}_{graph}"] = ["crossover", path, "--pair", pair]
            cmds[f"polymap_{pair}_{graph}"] = ["polymap", path, "--pair", pair]
            for figure in ("eigs", "gaps"):
                cmds[f"plotdata_{figure}_{pair}_{graph}"] = [
                    "plotdata", path, "--figure", figure, "--pair", pair]
    for size, extra in TABLE_SIZES.items():
        cmds[f"table_{size}"] = ["table", *extra]
        cmds[f"table_json_{size}"] = ["table", "--json", *extra]
    for graph in ("karate", "c18", "c4w", "iso"):
        for name in ("info", "region"):
            cmds[f"{name}_{graph}"] = [name, "{" + graph + "}"]
    cmds["gaps_iso"] = ["gaps", "{iso}"]  # d_min = 0: the Lrw gap bounds and pairs are null
    for name, args in GENERATED.items():
        cmds[f"gen_{name}"] = ["gen", *args]
    for graph, kind, k in CLUSTERINGS:
        cmds[f"cluster_{kind}_{k}_{graph}"] = [
            "cluster", "{" + graph + "}", "--kind", kind, "--k", str(k)]
    cmds["cluster_truth_A_2_karate"] = [
        "cluster", "{karate}", "--kind", "A", "--k", "2", "--truth", "{truth}"]
    cmds["cluster_seed7_restarts3_Lrw_4_karate"] = [
        "cluster", "{karate}", "--kind", "Lrw", "--k", "4", "--seed", "7", "--restarts", "3"]
    return cmds


COMMANDS = _commands()


def _graph_files(directory: Path) -> dict[str, str]:
    c18 = directory / "c18.txt"
    main(["gen", "graphc", "18", "-o", str(c18)])
    c4w = directory / "c4w.txt"
    c4w.write_text(C4_WEIGHTED)
    iso = directory / "iso.txt"
    iso.write_text(ISOLATED)
    return {"karate": str(karate_net_path()), "c18": str(c18), "c4w": str(c4w), "iso": str(iso),
            "truth": str(karate_factions_path())}


def _argv(name: str, files: dict[str, str]) -> list[str]:
    return [arg.format(**files) for arg in COMMANDS[name]]


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    return _graph_files(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(set(COMMANDS) - FAILING))
def test_cli_output_matches_golden(name, graph_files, capsys):
    code = main(_argv(name, graph_files))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(FAILING))
def test_cli_error_matches_golden(name, graph_files, capsys):
    code = main(_argv(name, graph_files))
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (GOLDEN / f"{name}.err").read_text()


def test_every_golden_file_belongs_to_a_command():
    """No stale golden: regenerating writes a moved command's new file beside its old one."""
    expected = {f"{name}.err" if name in FAILING else f"{name}.out" for name in COMMANDS}
    assert {path.name for path in GOLDEN.iterdir()} == expected


def _regenerate() -> None:
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        files = _graph_files(Path(tmp))
        for name in sorted(COMMANDS):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(_argv(name, files))
            if code != (1 if name in FAILING else 0):
                sys.exit(f"{name}: exit code {code}")
            if name in FAILING:
                (GOLDEN / f"{name}.err").write_text(err.getvalue())
            else:
                (GOLDEN / f"{name}.out").write_text(out.getvalue())


if __name__ == "__main__":
    _regenerate()
