"""The benchmark's four workloads: seeded inputs, the ops of a cycle, each op's check.

An op's ``run`` is what gets timed. Its ``check`` runs afterwards, outside
the timed region, and returns a failure message or None. Checks compare
against oracles computed here from the benchmark's own inputs: numpy's
``eigvalsh`` on matrices built from the edge lists, degrees and components
from the benchmark's own traversal, cluster structures known in closed
form. They never call graphspectra's own helpers.

Every workload is a closed loop with one client. A workload's ``setup``
builds its inputs and returns a function from the cycle number to that
cycle's ops; the runner repeats whole cycles.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "graphspectra" / "data"

PAIR_KINDS = {"A_L": ("A", "L"), "L_Lrw": ("L", "Lrw"), "A_Lrw": ("A", "Lrw")}  # pair -> (source, target)
GRAPHC_KS = (18, 30, 50)
ANALYZE_SIZES = (32, 32, 64)  # one cycle; n=32 is the majority, so the median is an n=32 op
ANALYZE_POOL_CYCLES = 32
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
KMEANS_SEED_RANGE = 2**31


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


# ---------------------------------------------------------------- oracles


def dense(n: int, edges: np.ndarray) -> np.ndarray:
    w = np.zeros((n, n))
    w[edges[:, 0], edges[:, 1]] = w[edges[:, 1], edges[:, 0]] = 1.0
    return w


def spectra_oracle(w: np.ndarray) -> dict[str, np.ndarray]:
    """A descending, L and Lrw ascending, from numpy's LAPACK solver."""
    deg = w.sum(axis=1)
    lap = np.diag(deg) - w
    out = {"A": np.linalg.eigvalsh(w)[::-1], "L": np.linalg.eigvalsh(lap)}
    if deg.min() > 0:
        s = 1.0 / np.sqrt(deg)
        out["Lrw"] = np.linalg.eigvalsh(lap * np.outer(s, s))
    return out


class Facts:
    """What the benchmark knows about one of its graphs, computed on first use."""

    def __init__(self, n: int, edges: np.ndarray):
        self.n = n
        self.edges = edges
        deg = np.bincount(edges.ravel(), minlength=n)
        self.d_min, self.d_max = int(deg.min()), int(deg.max())
        self.tol = 1e-8 * max(1.0, self.d_max)  # eigenvalue agreement, scaled with the spectrum
        self._spectra = None

    @property
    def spectra(self) -> dict[str, np.ndarray]:
        if self._spectra is None:
            self._spectra = spectra_oracle(dense(self.n, self.edges))
        return self._spectra

    def components(self) -> int:
        parent = list(range(self.n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        count = self.n
        for u, v in self.edges.tolist():
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                count -= 1
        return count

    def region(self) -> str:
        """The bound-ordering region, from the thresholds on d_min + d_max."""
        total = self.d_min + self.d_max
        if self.d_min == self.d_max:
            return "regular"
        if total < 4:
            return "bold"
        return {4: "underlined", 5: "teletype", 6: "italic"}.get(total, "normal")

    def pair(self, name: str) -> tuple[np.ndarray, np.ndarray, float]:
        """(target, transformed source, bound) for one matrix pair."""
        s, lo, hi = self.spectra, self.d_min, self.d_max
        d1, c = (hi + lo) / 2.0, 2.0 / (hi + lo)
        if name == "A_L":
            return s["L"], d1 - s["A"], (hi - lo) / 2.0
        if name == "L_Lrw":
            return s["Lrw"], c * s["L"], 2.0 * (hi - lo) / (hi + lo)
        return s["Lrw"], 1.0 - c * s["A"], 3.0 * (hi - lo) / (hi + lo)

    def gaps(self, kind: str) -> np.ndarray:
        """Consecutive gaps in convention order, divided by the support length."""
        v = self.spectra[kind]
        support = 2.0 if kind == "Lrw" else 2.0 * self.d_max
        return np.abs(np.diff(v)) / support


def crossovers(deltas: np.ndarray, bound: float, tol: float = 1e-6) -> list[int]:
    """1-based i where deltas i and i+1 reach the bound with opposite signs."""
    if bound <= 0:
        return []
    return [
        i + 1
        for i in range(len(deltas) - 1)
        if min(abs(deltas[i]), abs(deltas[i + 1])) >= bound - tol and deltas[i] * deltas[i + 1] < 0
    ]


def canonical(labels) -> list[int]:
    """Relabel by order of first appearance, so equal partitions compare equal."""
    first: dict = {}
    return [first.setdefault(x, len(first)) for x in labels]


def close(actual, expected: np.ndarray, tol: float) -> bool:
    actual = np.asarray(actual, dtype=float)
    return actual.shape == expected.shape and bool(np.all(np.abs(actual - expected) <= tol))


def graph_c_edges(k: int) -> np.ndarray:
    """K_k on vertices 0..k-1, then nine K_2 on the following pairs."""
    complete = [(u, v) for u in range(k) for v in range(u + 1, k)]
    pairs = [(k + 2 * i, k + 2 * i + 1) for i in range(9)]
    return np.array(complete + pairs)


def graph_c_blocks(k: int, merge_complete: bool, merge_pairs: bool) -> list[int]:
    """Labels of C(k): K_k as one block or as singletons, pairs likewise."""
    complete = [0] * k if merge_complete else list(range(k))
    base = len(set(complete))
    pairs = [base + i // 2 if merge_pairs else base + i for i in range(18)]
    return complete + pairs


def read_pajek_edges(path: Path) -> tuple[int, np.ndarray]:
    n, edges, in_edges = 0, [], False
    for line in path.read_text().splitlines():
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0].lower() == "*vertices":
            n = int(tokens[1])
        elif tokens[0].startswith("*"):
            in_edges = tokens[0].lower() in ("*edges", "*arcs")
        elif in_edges:
            edges.append((int(tokens[0]) - 1, int(tokens[1]) - 1))
    return n, np.array(edges)


def read_truth(path: Path) -> list[int]:
    rows = sorted(tuple(map(int, line.split())) for line in path.read_text().splitlines() if line.strip())
    return [label for _, label in rows]


def ring_chords(n: int, chords: int, rng: np.random.Generator) -> np.ndarray:
    """A ring on n vertices plus `chords` distinct random non-ring edges."""
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < chords:
        u, v = rng.integers(0, n, size=(2, 2 * chords))
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        ok = (hi - lo > 1) & ~((lo == 0) & (hi == n - 1))
        keys = np.concatenate([keys, lo[ok] * n + hi[ok]])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = keys[:chords]
    return np.concatenate([ring, np.stack([keys // n, keys % n], axis=1)])


def ring_density(n: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """A ring plus each other vertex pair independently with probability `density`."""
    iu, ju = np.triu_indices(n, 2)
    keep = (rng.random(len(iu)) < density) & ~((iu == 0) & (ju == n - 1))
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return np.concatenate([ring, np.stack([iu[keep], ju[keep]], axis=1)])


def kmeans_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 1]).integers(KMEANS_SEED_RANGE))


# ---------------------------------------------------------------- CLI checks


def cli_check(verify: Callable[[Any], Optional[str]], parse: Callable[[str], Any] = json.loads,
              path: Optional[Path] = None) -> Callable[[Any], Optional[str]]:
    """Check a CLI op: exit status 0, then `verify` of its parsed output (stdout, or `path`)."""

    def check(proc) -> Optional[str]:
        if proc.returncode != 0:
            return f"exit status {proc.returncode}: {proc.stderr.strip()[-300:]}"
        try:
            return verify(parse(path.read_text() if path else proc.stdout))
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            return f"malformed output: {exc!r}"

    return check


def verify_info(f: Facts) -> Callable[[dict], Optional[str]]:
    def verify(out: dict) -> Optional[str]:
        got = (out["n"], out["d_min"], out["d_max"], out["component_count"], out["region"])
        want = (f.n, f.d_min, f.d_max, f.components(), f.region())
        return None if got == want else f"info gave {got}, expected {want}"

    return verify


def verify_region(f: Facts) -> Callable[[dict], Optional[str]]:
    def verify(out: dict) -> Optional[str]:
        got = (out["d_min"], out["d_max"], out["region"])
        want = (f.d_min, f.d_max, f.region())
        return None if got == want else f"region gave {got}, expected {want}"

    return verify


def verify_bounds(f: Facts, rendered: str) -> Callable[[dict], Optional[str]]:
    def verify(out: dict) -> Optional[str]:
        if out["rendered"] != rendered:
            return f"rendered {out['rendered']!r}, expected {rendered!r}"
        for name in PAIR_KINDS:
            pair = out["pairs"][name]
            target, transformed, bound = f.pair(name)
            if not pair["within_bound"]:
                return f"{name} not within its bound"
            if abs(pair["max_abs_delta"] - np.abs(target - transformed).max()) > f.tol:
                return f"{name} max |delta| {pair['max_abs_delta']} disagrees with eigvalsh"
            if abs(pair["bound"] - bound) > 1e-12 * max(1.0, bound):
                return f"{name} bound {pair['bound']}, expected {bound}"
        return None

    return verify


def verify_gaps(f: Facts) -> Callable[[dict], Optional[str]]:
    def verify(out: dict) -> Optional[str]:
        for name, (src, dst) in PAIR_KINDS.items():
            pair = out["pairs"][name]
            if not pair["within_bound"] or pair.get("primed_within_bound", True) is not True:
                return f"{name} gap difference not within its bound"
            expected = np.abs(f.gaps(src) - f.gaps(dst)).max()
            if abs(pair["max_gap_difference"] - expected) > f.tol:
                return f"{name} max gap difference disagrees with eigvalsh"
        return None

    return verify


def verify_weyl(f: Facts) -> Callable[[dict], Optional[str]]:
    def verify(out: dict) -> Optional[str]:
        if out["ok"] is not True:
            return "Weyl check not ok"
        expected = (f.d_max + f.d_min) / 2.0 - f.spectra["A"] - f.spectra["L"]
        return None if close(out["differences"], expected, f.tol) else "Weyl differences disagree with eigvalsh"

    return verify


def verify_plotdata_a_lrw(f: Facts) -> Callable[[str], Optional[str]]:
    def verify(text: str) -> Optional[str]:
        rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
        header, body = rows[0], np.array(rows[1:], dtype=float)
        target, transformed, _ = f.pair("A_Lrw")
        if header[:3] != ["index", "raw", "transformed"]:
            return f"unexpected header {header}"
        if not (close(body[:, 1], target, f.tol) and close(body[:, 2], transformed, f.tol)):
            return "plotdata columns disagree with eigvalsh"
        return None

    return verify


def verify_sweep(ks: range) -> Callable[[str], Optional[str]]:
    def verify(text: str) -> Optional[str]:
        values: dict = {}
        for line in text.splitlines()[1:]:
            k, kind, _, value, _ = line.split(",")
            values.setdefault((int(k), kind), []).append(float(value))
        if len(values) != 3 * len(ks):
            return f"sweep has {len(values)} (k, kind) series, expected {3 * len(ks)}"
        for k in ks:
            f = Facts(k + 18, graph_c_edges(k))
            for kind in ("A", "L", "Lrw"):
                if not close(values[(k, kind)], f.gaps(kind), f.tol):
                    return f"sweep gaps of C({k}) {kind} disagree with eigvalsh"
        return None

    return verify


def partition_problem(labels, empty_clusters, expected: list[int]) -> Optional[str]:
    if canonical(labels) != canonical(expected) or empty_clusters:
        return "cluster labels differ from the expected structure"
    return None


def verify_partition(expected: list[int]) -> Callable[[dict], Optional[str]]:
    return lambda out: partition_problem(out["labels"], out["empty_clusters"], expected)


# ---------------------------------------------------------------- workloads


def cli_session(seed: int, tmp: Path, cli, gs=None):
    """The README session on C(18), then the karate club commands."""
    karate, truth = tmp / "karate.net", tmp / "karate_factions.txt"
    shutil.copyfile(DATA / "karate.net", karate)
    shutil.copyfile(DATA / "karate_factions.txt", truth)
    c18, sweep = tmp / "c18.txt", tmp / "sweep.csv"
    kseed = str(kmeans_seed(seed))
    kf = Facts(*read_pajek_edges(karate))
    cf = Facts(36, graph_c_edges(18))
    c18_text = "nodes 36 base 1\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in cf.edges.tolist())
    truth_labels = read_truth(truth)

    def verify_karate_cluster(out: dict) -> Optional[str]:
        if out["comparison"]["misplaced"] != 0:
            return f"karate A k=2 misplaced {out['comparison']['misplaced']}, expected 0"
        return verify_partition(truth_labels)(out)

    ops = [
        Op("gen graphc 18", lambda: cli("gen", "graphc", "18", "-o", c18),
           cli_check(lambda t: None if t == c18_text else "generated C(18) edge list differs", str, c18)),
        Op("bounds C(18)", lambda: cli("bounds", c18), cli_check(verify_bounds(cf, "(8.00, 1.78, 2.67)"))),
        Op("crossover C(18) A_L", lambda: cli("crossover", c18, "--pair", "A_L"),
           cli_check(lambda o: None if o["indices"] == [1, 19] else f"crossovers {o['indices']}, expected [1, 19]")),
        Op("cluster C(18) Lrw k=27", lambda: cli("cluster", c18, "--kind", "Lrw", "--k", "27", "--seed", kseed),
           cli_check(verify_partition(graph_c_blocks(18, merge_complete=False, merge_pairs=True)))),
        Op("sweep 3..18", lambda: cli("sweep", "--graphc", "3..18", "-o", sweep),
           cli_check(verify_sweep(range(3, 19)), str, sweep)),
        Op("info karate", lambda: cli("info", karate), cli_check(verify_info(kf))),
        Op("bounds karate", lambda: cli("bounds", karate), cli_check(verify_bounds(kf, "(8.00, 1.78, 2.67)"))),
        Op("gaps karate", lambda: cli("gaps", karate), cli_check(verify_gaps(kf))),
        Op("weyl karate", lambda: cli("weyl", karate), cli_check(verify_weyl(kf))),
        Op("polymap karate A_L", lambda: cli("polymap", karate, "--pair", "A_L"),
           cli_check(lambda o: None if o["unstable"] is True else "karate A_L polymap should be unstable")),
        Op("plotdata karate eigs A_Lrw", lambda: cli("plotdata", karate, "--figure", "eigs", "--pair", "A_Lrw"),
           cli_check(verify_plotdata_a_lrw(kf), str)),
        Op("cluster karate A k=2", lambda: cli("cluster", karate, "--kind", "A", "--k", "2", "--seed", kseed,
                                               "--truth", truth),
           cli_check(verify_karate_cluster)),
    ]
    return lambda cycle: ops


def precheck_large(seed: int, tmp: Path, cli, gs=None):
    """info and region on sparse ring-plus-chords edge lists, n = 1000 and 3000."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for n, base in ((1000, 0), (3000, 1)):
        edges = ring_chords(n, 3 * n, rng)
        path = tmp / f"ring{n}.txt"
        lines = [f"nodes {n} base {base}"] + [f"{u + base} {v + base}" for u, v in edges.tolist()]
        path.write_text("\n".join(lines) + "\n")
        f = Facts(n, edges)
        ops.append(Op(f"info n={n}", lambda p=path: cli("info", p), cli_check(verify_info(f))))
        ops.append(Op(f"region n={n}", lambda p=path: cli("region", p), cli_check(verify_region(f))))
    return lambda cycle: ops


def analyze_random(seed: int, tmp: Path, cli, gs):
    """Full bound analysis of random ring-plus-chords graphs, n in {32, 64}.

    Densities follow a golden-ratio sequence over [0.05, 0.3] from a seeded
    offset, so every run spreads its graphs evenly over the range.
    """
    rng = np.random.default_rng([seed, 3])
    offsets = {n: rng.random() for n in set(ANALYZE_SIZES)}
    drawn = {n: 0 for n in offsets}
    pool = []
    for _ in range(ANALYZE_POOL_CYCLES):
        cycle = []
        for n in ANALYZE_SIZES:
            density = 0.05 + 0.25 * ((offsets[n] + drawn[n] * GOLDEN) % 1.0)
            drawn[n] += 1
            edges = ring_density(n, density, rng)
            cycle.append((Facts(n, edges), gs.Graph(n=n, weights=dense(n, edges))))
        pool.append(cycle)
    kinds = gs.RepresentationKind
    kind_pairs = ((kinds.ADJACENCY, kinds.LAPLACIAN), (kinds.LAPLACIAN, kinds.NORMALIZED_LAPLACIAN),
                  (kinds.ADJACENCY, kinds.NORMALIZED_LAPLACIAN))

    def analyze(g):
        pairs = [gs.pair_differences(p, g) for p in gs.MatrixPair]
        found = [gs.detect_maximal_crossover(d.deltas, d.bound) for d in pairs]
        gaps = [gs.gap_differences(p, g) for p in gs.MatrixPair]
        weyl = gs.weyl_check(g)
        spectra = [(gs.spectrum(g, s), gs.spectrum(g, t)) for s, t in kind_pairs]
        polymaps = [gs.polynomial_spectrum_map(s, t) for s, t in spectra]
        return pairs, found, gaps, weyl, spectra, polymaps

    def ops_for(cycle: int):
        return [Op(f"analyze n={f.n}", lambda g=g: analyze(g), lambda r, f=f: check_analysis(f, r))
                for f, g in pool[cycle % len(pool)]]

    return ops_for


def check_analysis(f: Facts, result) -> Optional[str]:
    pairs, found, gaps, weyl, spectra, polymaps = result
    for d, report in zip(pairs, found):
        target, transformed, bound = f.pair(d.pair.value)
        if not (close(d.target, target, f.tol) and close(d.transformed, transformed, f.tol)):
            return f"{d.pair.value} spectra disagree with eigvalsh"
        if not d.within_bound or abs(d.bound - bound) > 1e-12 * max(1.0, bound):
            return f"{d.pair.value} bound {d.bound} (within={d.within_bound}), expected {bound}"
        if list(report.indices) != crossovers(d.deltas, d.bound):
            return f"{d.pair.value} crossovers {report.indices} disagree with the definition"
    for gd in gaps:
        src, dst = PAIR_KINDS[gd.pair.value]
        if not (close(gd.source_gaps, f.gaps(src), f.tol) and close(gd.target_gaps, f.gaps(dst), f.tol)):
            return f"{gd.pair.value} eigengaps disagree with eigvalsh"
        if not gd.within_bound or gd.primed_within is False:
            return f"{gd.pair.value} gap difference not within its bound"
    if not weyl.ok:
        return "Weyl check not ok"
    for pair in spectra:
        for s in pair:
            if not close(s.values, f.spectra[s.kind.value], f.tol):
                return f"{s.kind.value} spectrum disagrees with eigvalsh"
    for report in polymaps:
        if not report.unstable and not math.isfinite(report.max_residual):
            return "stable polynomial map with a non-finite residual"
    return None


def cluster_graphc(seed: int, tmp: Path, cli, gs):
    """Spectral clustering of C(k), k in {18, 30, 50}, and karate, scored against truth."""
    kseed = kmeans_seed(seed)
    kinds = gs.RepresentationKind

    def truth_of(labels: list[int], k: int):
        return gs.ClusteringResult(labels=np.array(labels), inertia=0.0, kind=None, k=k,
                                   empty_clusters=(), index_base=1)

    cases = []
    for k in GRAPHC_KS:
        f = Facts(k + 18, graph_c_edges(k))
        g = gs.Graph(n=f.n, weights=dense(f.n, f.edges), index_base=1)
        components = graph_c_blocks(k, merge_complete=True, merge_pairs=True)
        for kind, clusters, expected in (
            (kinds.ADJACENCY, 10, components),
            (kinds.LAPLACIAN, 10, components),
            (kinds.NORMALIZED_LAPLACIAN, 10, components),
            (kinds.LAPLACIAN, 19, graph_c_blocks(k, merge_complete=True, merge_pairs=False)),
            (kinds.NORMALIZED_LAPLACIAN, k + 9, graph_c_blocks(k, merge_complete=False, merge_pairs=True)),
        ):
            cases.append((f"C({k}) {kind.value} k={clusters}", g, kind, clusters,
                          truth_of(expected, max(expected) + 1), expected))
    n, edges = read_pajek_edges(DATA / "karate.net")
    karate = gs.Graph(n=n, weights=dense(n, edges), index_base=1)
    factions = read_truth(DATA / "karate_factions.txt")
    for kind in kinds:
        cases.append((f"karate {kind.value} k=2", karate, kind, 2, truth_of(factions, 2), None))

    def run(g, kind, clusters, truth):
        result = gs.cluster(g, kind, clusters, seed=kseed)
        return result, gs.compare_clusterings(result, truth)

    def check(result, expected, truth, kind) -> Optional[str]:
        clustering, comparison = result
        labels = clustering.labels.tolist()
        if expected is not None:
            problem = partition_problem(labels, clustering.empty_clusters, expected)
            if problem or comparison.misplaced == 0:
                return problem
            return f"misplaced {comparison.misplaced}, expected 0"
        agree = sum(a == b for a, b in zip(labels, truth.labels.tolist()))
        misplaced = min(agree, len(labels) - agree)
        if comparison.misplaced != misplaced:
            return f"compare_clusterings gave {comparison.misplaced} misplaced, expected {misplaced}"
        if kind is kinds.ADJACENCY and misplaced != 0:
            return f"karate A k=2 misplaced {misplaced}, expected 0"
        return None

    ops = [Op(label, lambda a=(g, kind, clusters, truth): run(*a),
              lambda r, e=expected, t=truth, kd=kind: check(r, e, t, kd))
           for label, g, kind, clusters, truth, expected in cases]
    return lambda cycle: ops


WORKLOADS = {
    "cli_session": (cli_session, False),
    "precheck_large": (precheck_large, False),
    "analyze_random": (analyze_random, True),
    "cluster_graphc": (cluster_graphc, True),
}
"""name -> (setup function, runs in process)"""
