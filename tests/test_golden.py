"""Golden CLI outputs: a fixed set of commands must print byte-identical stdout.

The goldens under ``tests/golden/`` were recorded with the package's own
CLI on karate and C(18). They pin every printed digit, so an intended
change of output has to be made here, deliberately, by regenerating:

    PYTHONPATH=src python tests/test_golden.py

Floats are printed to 17 significant digits, so the goldens hold for
one numpy/LAPACK build; another build may differ in the last digits.
"""

import sys
from pathlib import Path

import pytest

from graphspectra.cli import main
from graphspectra.data import karate_net_path
from graphspectra.graphs import gen_graph_c

GOLDEN = Path(__file__).parent / "golden"
PAIRS = ("A_L", "L_Lrw", "A_Lrw")
TABLE_SIZES = {"default": (), "4x20": ("--dmin-max", "4", "--dmax-max", "20")}


def _commands() -> dict[str, list[str]]:
    """Golden name -> argv, with {karate} / {c18} standing for the graph files."""
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
    return cmds


COMMANDS = _commands()


def _graph_files(directory: Path) -> dict[str, str]:
    c18 = directory / "c18.txt"
    main(["gen", "graphc", "18", "-o", str(c18)])
    return {"karate": str(karate_net_path()), "c18": str(c18)}


def _argv(name: str, files: dict[str, str]) -> list[str]:
    return [arg.format(**files) for arg in COMMANDS[name]]


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    return _graph_files(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name, graph_files, capsys):
    code = main(_argv(name, graph_files))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == (GOLDEN / f"{name}.out").read_text()


def _regenerate() -> None:
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        files = _graph_files(Path(tmp))
        for name in sorted(COMMANDS):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(_argv(name, files))
            if code != 0:
                sys.exit(f"{name}: exit code {code}")
            (GOLDEN / f"{name}.out").write_text(out.getvalue())


if __name__ == "__main__":
    _regenerate()
