"""Command-line interface.

Subcommands cover graph inspection and generation, spectra, the
eigenvalue and eigengap bounds, the bound-comparison table, region
classification, spectral clustering, crossover detection, the
polynomial spectrum map, the Weyl interval check, figure-ready plot
data, and the degree-extreme sweep over the C(k) family.

Exit status: 0 on success, 2 on usage errors, 1 on domain errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .graphs import (
    DegreeSummary,
    Graph,
    _check_graph_c_size,
    _check_memory,
    _write_edge_list,
    class_tag,
    classify_region,
    connected_components,
    degree_summary,
    gen_bipartite_b,
    gen_complete,
    gen_graph_c,
    gen_star,
    load_graph,
)
from .vocabulary import (
    DEFAULT_CROSSOVER_TOL,
    DEFAULT_MERGE_TOL,
    DEFAULT_RESTARTS,
    DEFAULT_SEED,
    PAIR_KINDS,
    EigensolverError,
    KMeansError,
    MatrixPair,
    RepresentationKind,
)

if TYPE_CHECKING:
    import numpy as np

# Handlers import the numerical layers (and so numpy) when they run:
# info, region and gen need only degrees or edges, and load neither.

# After each threaded call OpenBLAS's idle worker busy-waits 2**28 cycles
# before it sleeps, about a third of the CPU time of a run on a small graph.
# OPENBLAS_THREAD_TIMEOUT is that exponent; OpenBLAS reads it when numpy
# loads, so main sets it only before then, and a value the user set wins.
# 2**20 keeps the thread count and the large-graph wall time (ROADMAP).
_OPENBLAS_SPIN_EXPONENT = "20"


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _json_float(x: float):
    """x itself when finite, else its name: strict JSON has no inf or NaN."""
    if math.isfinite(x):
        return x
    return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")


def _print_json(payload: dict, output: Optional[str] = None) -> None:
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", output)


def _round2(x, strip: bool) -> str:
    """A Fraction x >= 0 rounded half-up to two decimals; "·" for None."""
    if x is None:
        return "·"
    cents = (200 * x.numerator + x.denominator) // (2 * x.denominator)  # floor(100 x + 1/2)
    text = f"{cents // 100}.{cents % 100:02d}"
    return text.rstrip("0").rstrip(".") if strip else text


def _bound_fields(bounds: dict) -> list[tuple]:
    """(e, g, primed) of each pair of ``pair_bounds``, in pair order; nulls for a pair without bounds."""
    return [(None,) * 3 if b is None else (b.eigenvalue, b.gap, b.primed) for b in bounds.values()]


def _eigenvalue_bounds(bounds: dict) -> dict:
    """The e of each pair of ``pair_bounds`` under its JSON name."""
    (e_al, _, _), (e_llrw, _, _), (e_alrw, _, _) = _bound_fields(bounds)
    return {"e_AL": e_al, "e_LLrw": e_llrw, "e_ALrw": e_alrw}


def _exact_bounds(d_min, d_max) -> dict:
    """``pair_bounds`` of the extremes taken as Fractions, so every bound is exact."""
    from fractions import Fraction

    from .bounds import pair_bounds

    return pair_bounds(DegreeSummary(Fraction(d_min), Fraction(d_max)))


def _render(exact: dict, strip: bool) -> str:
    """The triple (e(A,L), e(L,Lrw), e(A,Lrw)) of exact bounds, rounded half-up."""
    return "(" + ", ".join(_round2(e, strip) for e in _eigenvalue_bounds(exact).values()) + ")"


def bound_table_cell(j: int, k: int) -> str:
    """Rendered bound triple (e(A,L), e(L,Lrw), e(A,Lrw)) for the class (j, k)."""
    if j > k:
        return "*"
    return _render(_exact_bounds(j, k), strip=True)


def _table_json_cell(j: int, k: int) -> dict:
    """The class (j <= k) as a `table --json` cell, from one exact record.

    Each float e is float() of the exact one: for integer extremes the float
    formulas round once, from exact integer operands, as float() rounds.
    """
    exact = _exact_bounds(j, k)
    floats = {name: None if e is None else float(e) for name, e in _eigenvalue_bounds(exact).items()}
    return {"d_min": j, "d_max": k, **floats, "rendered": _render(exact, strip=True)}


# Peak bytes of `table` per cell of its (dmin_max + 1) x dmax_max grid: tracemalloc
# read 1.6-2.2 KB with --json (cell dicts, then JSON text) and 73-187 bytes without,
# on grids from 1 x 20000 to 101 x 1000 (Python 3.11; one column costs the most).
_TABLE_JSON_CELL_BYTES = 2300
_TABLE_TEXT_CELL_BYTES = 200


def _csv_float(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------- handlers


def _cmd_info(args) -> int:
    g = load_graph(Path(args.file).read_text())
    ds = degree_summary(g)
    out = {
        "n": g.n,
        "d_min": float(ds.d_min),
        "d_max": float(ds.d_max),
        "component_count": connected_components(g).component_count,
        "rescaled": g.rescaled,
    }
    out["class"] = out["region"] = out["ordering"] = None
    try:
        tag = class_tag(ds)
        out["class"] = {"j": tag.j, "k": tag.k}
        region = classify_region(ds)
        out["region"] = region.value
        out["ordering"] = region.ordering
    except ValueError:  # no integer class, or no region for d_min = 0
        pass
    _print_json(out)
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "bipartiteb":
        if args.size is not None:
            raise ValueError("bipartiteb does not take a size")
        g = gen_bipartite_b()
    else:
        if args.size is None:
            raise ValueError(f"gen {args.kind} needs a size argument")
        g = {"star": gen_star, "complete": gen_complete, "graphc": gen_graph_c}[args.kind](args.size)
    _emit(_write_edge_list(g), args.output)
    return 0


def _cmd_spectra(args) -> int:
    from .spectra import spectrum

    g = load_graph(Path(args.file).read_text())
    spec = spectrum(g, RepresentationKind(args.kind))
    if args.format == "json":
        payload = {
            "kind": spec.kind.value,
            "values": [float(v) for v in spec.values],
            "support": [spec.support[0], spec.support[1]],
            "support_length": spec.support_length,
        }
        _print_json(payload, args.output)
    else:
        rows = ["index,value"]
        rows += [f"{i},{_csv_float(v)}" for i, v in enumerate(spec.values, start=1)]
        _emit("\n".join(rows) + "\n", args.output)
    return 0


def _per_pair(summary, g: Graph, bounds: dict) -> dict:
    """summary(pair, g) keyed by pair; null for a pair without bounds (the Lrw pairs when d_min = 0)."""
    return {pair.value: None if b is None else summary(pair, g) for pair, b in bounds.items()}


def _pair_summary(pair: MatrixPair, g: Graph) -> dict:
    from .bounds import pair_differences

    diffs = pair_differences(pair, g)
    return {
        "bound": diffs.bound,
        "max_abs_delta": diffs.max_abs_delta,
        "within_bound": diffs.within_bound,
    }


def _cmd_bounds(args) -> int:
    from .bounds import pair_bounds

    g = load_graph(Path(args.file).read_text())
    ds = degree_summary(g)
    bounds = pair_bounds(ds)
    _, _, (_, _, e_prime_alrw) = _bound_fields(bounds)
    _print_json({
        "d_min": float(ds.d_min),
        "d_max": float(ds.d_max),
        "bounds": {**_eigenvalue_bounds(bounds), "e_prime_ALrw": e_prime_alrw},
        "rendered": _render(_exact_bounds(ds.d_min, ds.d_max), strip=False),
        "pairs": _per_pair(_pair_summary, g, bounds),
    })
    return 0


def _gap_summary(pair: MatrixPair, g: Graph) -> dict:
    from .bounds import gap_differences

    gd = gap_differences(pair, g)
    out = {
        "bound": gd.bound,
        "max_gap_difference": gd.max_gap_difference,
        "within_bound": gd.within_bound,
    }
    if gd.primed_diffs is not None:
        out["primed_bound"] = gd.primed_bound
        out["max_primed_difference"] = gd.max_primed_difference
        out["primed_within_bound"] = gd.primed_within
    return out


def _cmd_gaps(args) -> int:
    from .bounds import _gap_bound, pair_bounds

    g = load_graph(Path(args.file).read_text())
    ds = degree_summary(g)
    bounds = pair_bounds(ds)
    _, (_, g_llrw, g_prime_llrw), (_, g_alrw, g_prime_alrw) = _bound_fields(bounds)
    _print_json({  # evaluated in order: an edgeless graph ends at g_AL, before any spectrum
        "d_min": float(ds.d_min),
        "d_max": float(ds.d_max),
        "gap_bounds": {
            "g_AL": _gap_bound(bounds[MatrixPair.A_L]),
            "g_LLrw": g_llrw,
            "g_prime_LLrw": g_prime_llrw,
            "g_ALrw": g_alrw,
            "g_prime_ALrw": g_prime_alrw,
        },
        "pairs": _per_pair(_gap_summary, g, bounds),
    })
    return 0


def _cmd_table(args) -> int:
    if args.dmin_max < 0 or args.dmax_max < 1:
        raise ValueError("table needs --dmin-max >= 0 and --dmax-max >= 1")
    dmins = range(0, args.dmin_max + 1)
    dmaxs = range(1, args.dmax_max + 1)
    cells = (args.dmin_max + 1) * args.dmax_max
    _check_memory(cells * (_TABLE_JSON_CELL_BYTES if args.json else _TABLE_TEXT_CELL_BYTES),
                  f"a table of {cells:,} cells needs about {{}} GiB")
    if args.json:
        _print_json({"cells": [_table_json_cell(j, k) for k in dmaxs for j in dmins if j <= k]})
        return 0
    grid = [[bound_table_cell(j, k) for j in dmins] for k in dmaxs]
    widths = [max(len(grid[r][c]) for r in range(len(grid))) for c in range(len(dmins))]
    widths = [max(w, len(str(j))) for w, j in zip(widths, dmins)]
    head = "d_max \\ d_min  " + "  ".join(str(j).ljust(w) for j, w in zip(dmins, widths))
    print(head)
    for k, row in zip(dmaxs, grid):
        print(f"{k:>13}  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 0


def _cmd_region(args) -> int:
    extremes = (args.dmin, args.dmax)
    if args.file is not None and extremes == (None, None):
        ds = degree_summary(load_graph(Path(args.file).read_text()))
    elif args.file is None and None not in extremes:
        if not 0 <= args.dmin <= args.dmax <= sys.float_info.max:
            raise ValueError("region needs 0 <= --dmin <= --dmax, both finite as floats")
        ds = DegreeSummary(float(args.dmin), float(args.dmax))
    else:
        print("error: region needs a FILE or both --dmin and --dmax", file=sys.stderr)
        return 2
    region = classify_region(ds)
    _print_json({
        "d_min": float(ds.d_min),
        "d_max": float(ds.d_max),
        "region": region.value,
        "ordering": region.ordering,
    })
    return 0


def _cmd_cluster(args) -> int:
    from .clustering import cluster, compare_clusterings
    from .data import load_truth_labels

    g = load_graph(Path(args.file).read_text())
    result = cluster(g, RepresentationKind(args.kind), args.k, restarts=args.restarts,
                     seed=args.seed)
    out = {
        "n": g.n,
        "kind": args.kind,
        "k": args.k,
        "seed": args.seed,
        "restarts": args.restarts,
        "vertex_ids": [v + g.index_base for v in range(g.n)],
        "labels": result.labels.tolist(),
        "inertia": result.inertia,
        "empty_clusters": list(result.empty_clusters),
    }
    if args.truth:
        truth = load_truth_labels(Path(args.truth).read_text(), g.n, index_base=g.index_base)
        comparison = compare_clusterings(result, truth)
        out["comparison"] = {
            "misplaced": comparison.misplaced,
            "misplaced_ids": list(comparison.misplaced_ids),
        }
    _print_json(out)
    return 0


def _cmd_crossover(args) -> int:
    from .bounds import detect_maximal_crossover, pair_differences

    g = load_graph(Path(args.file).read_text())
    diffs = pair_differences(MatrixPair(args.pair), g)
    report = detect_maximal_crossover(diffs.deltas, diffs.bound, tol=args.tol)
    _print_json({
        "pair": args.pair,
        "bound": report.bound,
        "tolerance": report.tolerance,
        "indices": list(report.indices),
    })
    return 0


def _cmd_polymap(args) -> int:
    from .bounds import polynomial_spectrum_map
    from .spectra import spectrum

    g = load_graph(Path(args.file).read_text())
    src, dst = (spectrum(g, kind) for kind in PAIR_KINDS[MatrixPair(args.pair)])
    report = polynomial_spectrum_map(src, dst, merge_tol=args.merge_tol)
    _print_json({
        "pair": args.pair,
        "merge_tol": args.merge_tol,
        "unstable": report.unstable,
        "min_input_gap": report.min_input_gap,
        "output_span_over_degenerate_inputs": report.output_span_over_degenerate_inputs,
        "nodes": None if report.nodes is None else report.nodes.tolist(),
        "weights": None if report.weights is None else report.weights.tolist(),
        "lebesgue_constant": (None if report.lebesgue_constant is None
                              else _json_float(report.lebesgue_constant)),
        "max_residual": None if report.max_residual is None else _json_float(report.max_residual),
    })
    return 0


def _cmd_weyl(args) -> int:
    from .bounds import weyl_check

    g = load_graph(Path(args.file).read_text())
    report = weyl_check(g)
    _print_json({
        "ok": report.ok,
        "lower": report.lower,
        "upper": report.upper,
        "differences": report.differences.tolist(),
    })
    return 0


def _plotdata_csv(name: str, pair: MatrixPair, figure: str, raw: np.ndarray,
                  transformed: np.ndarray, bound: float, inner: Optional[float]) -> str:
    """Per-index CSV of raw and transformed values, centred in the bound interval(s)."""
    centers = (transformed + raw) / 2.0
    columns = [raw, transformed, centers, centers - bound, centers + bound]
    lines = [f"# graph={name}", f"# pair={pair.value}", f"# figure={figure}",
             f"# bound={_csv_float(bound)}"]
    header = "index,raw,transformed,center,interval_low,interval_high"
    if inner is not None:
        lines.append(f"# inner_bound={_csv_float(inner)}")
        header += ",inner_low,inner_high"
        columns += [centers - inner, centers + inner]
    lines.append(header)
    for i in range(len(centers)):
        lines.append(",".join([str(i + 1)] + [_csv_float(c[i]) for c in columns]))
    return "\n".join(lines) + "\n"


def _cmd_plotdata(args) -> int:
    from .bounds import gap_differences, pair_bounds, pair_differences

    g = load_graph(Path(args.file).read_text())
    pair = MatrixPair(args.pair)
    if args.figure == "eigs":
        d = pair_differences(pair, g)
        # e'(A,Lrw) is the inner interval; the primed bound of L_Lrw is its e itself.
        inner = pair_bounds(degree_summary(g))[pair].primed if pair is MatrixPair.A_LRW else None
        columns = (d.target, d.transformed, d.bound, inner)
    else:
        gd = gap_differences(pair, g)
        columns = (gd.target_gaps, gd.source_gaps, gd.bound, gd.primed_bound)
    _emit(_plotdata_csv(Path(args.file).stem, pair, args.figure, *columns), args.output)
    return 0


def _parse_range(spec: str) -> range:
    match = re.fullmatch(r"([0-9]+)\.\.([0-9]+)", spec)
    if not match:
        raise ValueError(f"range must look like 3..18, got {spec!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        raise ValueError(f"empty range {spec!r}")
    return range(lo, hi + 1)


def _cmd_sweep(args) -> int:
    import numpy as np

    from .spectra import normalized_eigengaps, spectrum

    ks = _parse_range(args.graphc)
    _check_graph_c_size(ks[-1])
    lines = ["k,kind,gap_index,value,note"]
    for k in ks:
        g = gen_graph_c(k)
        for kind in RepresentationKind:
            gaps = normalized_eigengaps(spectrum(g, kind))
            largest = int(np.argmax(gaps)) + 1
            for i, value in enumerate(gaps, start=1):
                notes = []
                if i == largest:
                    notes.append("largest")
                if kind is RepresentationKind.NORMALIZED_LAPLACIAN and i == k + 9:
                    notes.append("k+9")
                lines.append(f"{k},{kind.value},{i},{_csv_float(value)},{';'.join(notes)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ---------------------------------------------------------------- parser


def _add_graph_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", help="graph file: Pajek if it starts with '*', else an edge list")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphspectra",
                                     description="Compare graph spectra across representation matrices.")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("info", help="degree extremes, components, class and region")
    _add_graph_arg(sub)
    sub.set_defaults(func=_cmd_info)

    sub = commands.add_parser("gen", help="write a generated graph as an edge list")
    sub.add_argument("kind", choices=("star", "complete", "graphc", "bipartiteb"))
    sub.add_argument("size", type=int, nargs="?", default=None)
    sub.add_argument("-o", "--output", default=None)
    sub.set_defaults(func=_cmd_gen)

    sub = commands.add_parser("spectra", help="ordered eigenvalues of one representation matrix")
    _add_graph_arg(sub)
    sub.add_argument("--kind", choices=tuple(k.value for k in RepresentationKind), required=True)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("-o", "--output", default=None)
    sub.set_defaults(func=_cmd_spectra)

    sub = commands.add_parser("bounds", help="eigenvalue-difference bounds and verification")
    _add_graph_arg(sub)
    sub.set_defaults(func=_cmd_bounds)

    sub = commands.add_parser("gaps", help="normalised-eigengap bounds and verification")
    _add_graph_arg(sub)
    sub.set_defaults(func=_cmd_gaps)

    sub = commands.add_parser("table", help="bound-comparison table over degree extremes")
    sub.add_argument("--dmin-max", type=int, default=5)
    sub.add_argument("--dmax-max", type=int, default=7)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=_cmd_table)

    sub = commands.add_parser("region", help="bound-ordering region of the degree extremes")
    sub.add_argument("file", nargs="?", default=None)
    sub.add_argument("--dmin", type=int, default=None)
    sub.add_argument("--dmax", type=int, default=None)
    sub.set_defaults(func=_cmd_region)

    sub = commands.add_parser("cluster", help="spectral clustering of one representation matrix")
    _add_graph_arg(sub)
    sub.add_argument("--kind", choices=tuple(k.value for k in RepresentationKind), required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    sub.add_argument("--truth", default=None,
                     help="ground-truth labels ('vertex_id label' lines, ids as in the graph file)")
    sub.set_defaults(func=_cmd_cluster)

    sub = commands.add_parser("crossover", help="detect maximal crossovers of a pair's differences")
    _add_graph_arg(sub)
    sub.add_argument("--pair", choices=tuple(p.value for p in MatrixPair), required=True)
    sub.add_argument("--tol", type=float, default=DEFAULT_CROSSOVER_TOL)
    sub.set_defaults(func=_cmd_crossover)

    sub = commands.add_parser("polymap", help="polynomial interpolation between two spectra")
    _add_graph_arg(sub)
    sub.add_argument("--pair", choices=tuple(p.value for p in MatrixPair), required=True)
    sub.add_argument("--merge-tol", type=float, default=DEFAULT_MERGE_TOL)
    sub.set_defaults(func=_cmd_polymap)

    sub = commands.add_parser("weyl", help="Weyl interval check on the A/L relation")
    _add_graph_arg(sub)
    sub.set_defaults(func=_cmd_weyl)

    sub = commands.add_parser("plotdata", help="figure-ready CSV of spectra or gaps with bound intervals")
    _add_graph_arg(sub)
    sub.add_argument("--figure", choices=("eigs", "gaps"), required=True)
    sub.add_argument("--pair", choices=tuple(p.value for p in MatrixPair), required=True)
    sub.add_argument("-o", "--output", default=None)
    sub.set_defaults(func=_cmd_plotdata)

    sub = commands.add_parser("sweep", help="normalised eigengaps of C(k) over a range of k")
    sub.add_argument("--graphc", required=True, metavar="LO..HI")
    sub.add_argument("-o", "--output", default=None)
    sub.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", _OPENBLAS_SPIN_EXPONENT)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError, EigensolverError, KMeansError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
