"""graphspectra benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``. The run builds its inputs from the seed (the set-up, repeated and
timed), warms the bytecode cache, then repeats whole cycles of the
workload's ops for as long as another cycle fits in S seconds of measured
op time. Each op's output is checked after its timer stops.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` every public function of the layer modules is wrapped
and the last line carries the per-layer metrics instead. The line before
it is the run's full record (environment, sample counts, failures, layer
shares, exact call counts per op), which is also written, with the spans
of a traced run, under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

OP_TIMEOUT_S = 60
SETUP_REPS = 3


class Cli:
    """Runs ``python -m graphspectra ARGS`` in a fresh interpreter, or the traced launcher."""

    def __init__(self, cwd: Path, traced: bool):
        self.cwd = cwd
        self.traced = traced
        self.spans_file = cwd / "spans.json"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def run(self, cmd: list[str]) -> subprocess.CompletedProcess:
        try:
            return subprocess.run(cmd, cwd=self.cwd, env=self.env, capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            return subprocess.CompletedProcess(cmd, -9, exc.stdout or "", f"timed out after {OP_TIMEOUT_S} s")

    def __call__(self, *args) -> subprocess.CompletedProcess:
        argv = [str(a) for a in args]
        if self.traced:
            return self.run([sys.executable, str(LAUNCHER), str(self.spans_file), *argv])
        return self.run([sys.executable, "-m", "graphspectra", *argv])

    def take_spans(self) -> list[list]:
        """Spans the traced launcher wrote for the last command."""
        try:
            with open(self.spans_file) as f:
                spans = json.load(f)
        except FileNotFoundError:
            return []
        self.spans_file.unlink()
        return spans

    def import_seconds(self) -> float:
        """``import graphspectra`` in a fresh interpreter, timed inside it."""
        code = ("import time; t = time.perf_counter(); import graphspectra; "
                "print(time.perf_counter() - t)")
        proc = self.run([sys.executable, "-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import graphspectra from {SRC}: {proc.stderr.strip()[-300:]}")
        return float(proc.stdout)


def cpu_seconds(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def blas_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getattr(handle, symbol).restype = ctypes.c_int
                record["threads"] = getattr(handle, symbol)()
                return record
    return record


def environment() -> dict:
    """What the numbers were measured on. Reads the machine's settings, changes none."""
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                             cpu_model)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))).stdout.strip()
    except OSError:
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "graphspectra").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_record(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS") if k in os.environ},
        "git_commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
    }


def set_up(setup, seed: int, tmp: Path, cli: Cli, gs):
    """Run the set-up several times; returns (last plan, median seconds, all rep seconds).

    A rep is ``import graphspectra`` in a fresh interpreter plus the input
    generation; the first rep also fills the bytecode cache. The in-process workloads pay that import once per process;
    for the CLI workloads it stands for the first command after an install,
    and it keeps their set-up from being a millisecond of file copying whose
    run-to-run spread exceeds any useful bound.
    """
    reps: list[float] = []
    for _ in range(SETUP_REPS):
        imported = cli.import_seconds()
        start = time.perf_counter()
        plan = setup(seed, tmp, cli, gs)
        reps.append(imported + time.perf_counter() - start)
    return plan, statistics.median(reps), reps


def measure(plan, seconds: float, cli: Cli, tracer, in_process: bool) -> dict:
    """Repeat whole cycles of ops while another cycle fits in `seconds` of op time."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    latencies, labels, failures = [], [], []
    cpu = busy = interpreter = 0.0
    cycle = 0
    while True:
        cycle_time = 0.0
        for op in plan(cycle):
            op_id = len(latencies)
            error = None
            if tracer is not None:
                tracer.op = op_id
                root = tracer.open("op") if in_process else None
            cpu0, t0 = cpu_seconds(who), time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                error = f"{type(exc).__name__}: {exc}"
            t1, cpu1 = time.perf_counter(), cpu_seconds(who)
            if tracer is not None:
                if root is not None:
                    tracer.close(root, error)
                else:
                    offset = len(tracer.spans)
                    for span in cli.take_spans():
                        span[tracing.OP] = op_id
                        parent = span[tracing.PARENT]
                        span[tracing.PARENT] = parent + offset if parent >= 0 else -1
                        tracer.spans.append(span)
                    start = time.perf_counter()
                    cli.run([sys.executable, "-c", "pass"])
                    interpreter += time.perf_counter() - start
                tracer.op = None
            if error is None:
                error = op.check(result)
            if error is not None:
                failures.append({"op": op_id, "label": op.label, "error": error[:500]})
            latencies.append(t1 - t0)
            labels.append(op.label)
            cpu += cpu1 - cpu0
            cycle_time += t1 - t0
        busy += cycle_time
        cycle += 1
        if busy + cycle_time > seconds:
            break
    return {"latencies": latencies, "labels": labels, "failures": failures, "cpu": cpu, "busy": busy,
            "cycles": cycle, "interpreter": interpreter}


def quantiles(values: list[float]) -> dict:
    """Median, and the highest of p90/p99 that has at least ten samples beyond it."""
    ordered = sorted(values)
    out = {"samples": len(values), "p50_s": statistics.median(ordered)}
    for p in (90, 99):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}_s"] = ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
    return out


def by_label(labels: list[str], values: list[float]) -> dict[str, float]:
    grouped: dict = {}
    for label, value in zip(labels, values):
        grouped.setdefault(label, []).append(value)
    return {label: statistics.median(vs) for label, vs in grouped.items()}


def counts_by_label(spans, labels: list[str]) -> dict:
    """Per-op call counts grouped by op label; `varies` marks labels whose counts differ."""
    grouped: dict = {}
    for op_id, counts in tracing.op_counts(spans).items():
        if op_id is not None:  # the in-process import span belongs to no op
            grouped.setdefault(labels[op_id], []).append(counts)
    out = {}
    for label, all_counts in grouped.items():
        first = all_counts[0]
        out[label] = first if all(c == first for c in all_counts) else {"varies": all_counts[:5]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphspectra" / "__init__.py").is_file():
        print(f"error: no graphspectra package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    setup, in_process = workloads.WORKLOADS[args.workload]
    tmp = TMP / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        return run(args, setup, in_process, tmp)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP.exists() and not any(TMP.iterdir()):
            TMP.rmdir()


def run(args, setup, in_process: bool, tmp: Path) -> int:
    traced = bool(args.trace)
    cli = Cli(tmp, traced=traced and not in_process)
    tracer = tracing.Tracer() if traced else None
    gs = None
    if in_process:
        sys.path.insert(0, str(SRC))
        start = time.perf_counter()
        import graphspectra as gs

        if tracer is not None:
            tracer.add("import", start, time.perf_counter())
    plan, setup_s, setup_reps = set_up(setup, args.seed, tmp, cli, gs)
    if tracer is not None and in_process:
        tracing.install(tracer)
    m = measure(plan, args.seconds, cli, tracer, in_process)

    ops, failed = len(m["latencies"]), len(m["failures"])
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    latency = quantiles(m["latencies"])
    end_to_end = {
        "ops_per_s": (ops / m["busy"], "1/s"),
        "op_p50_s": (latency["p50_s"], "s"),
        "cpu_per_op_s": (m["cpu"] / ops, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "cycles": m["cycles"],
        "ops": ops,
        "error_rate": {"value": failed / ops, "unit": "ratio"},
        "latency": latency,
        "latency_p50_by_op_s": by_label(m["labels"], m["latencies"]),
        "setup_reps_s": setup_reps,
        "failures": m["failures"][:20],
    }
    if tracer is None:
        metrics = end_to_end
        record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    else:
        spans = tracer.spans
        layer = tracing.layer_metrics(spans, ops, m["interpreter"])
        metrics = {k: (v, "s" if k.endswith("_s") else "ratio" if k.endswith("_ratio") else "count/op")
                   for k, v in layer.items()}
        metrics["trace.ops_per_s"] = (ops / m["busy"], "1/s")
        record["layer_shares"] = tracing.layer_shares(spans, sum(m["latencies"]))
        record["counts_per_op"] = counts_by_label(spans, m["labels"])
        untraced = OUT / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]["ops_per_s"]["value"]
            record["tracing_overhead"] = {"traced_over_untraced_ops_per_s": ops / m["busy"] / base}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        with open(f"{stem}.spans.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
