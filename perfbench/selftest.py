"""Show that the benchmark's correctness checks reject perturbed results.

    python3 perfbench/selftest.py

Runs a few real ops of each workload, confirms their checks pass, then
perturbs each result slightly (one eigenvalue, one label, one field of the
CLI's JSON, the exit status) and confirms the check fails. Exits 0 when
every perturbation was caught.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import workloads
from run import SRC, TMP, Cli


def with_json(proc: subprocess.CompletedProcess, edit) -> subprocess.CompletedProcess:
    out = json.loads(proc.stdout)
    edit(out)
    return subprocess.CompletedProcess(proc.args, 0, json.dumps(out), "")


def shifted(values, index: int, by: float):
    values = values.copy()
    values[index] += by
    return values


def main() -> int:
    sys.path.insert(0, str(SRC))
    import graphspectra as gs

    tmp = TMP / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True)
    failures = 0
    try:
        cli = Cli(tmp, traced=False)
        session = workloads.cli_session(0, tmp, cli)(0)
        precheck = workloads.precheck_large(0, tmp, cli)(0)
        analysis = workloads.analyze_random(0, tmp, cli, gs)(0)[0]
        clustering = {op.label: op for op in workloads.cluster_graphc(0, tmp, cli, gs)(0)}["C(18) L k=19"]

        gen, bounds, info = session[0], session[1], precheck[0]
        gen.run()  # writes the C(18) file that `bounds` reads
        cases = [
            (bounds, bounds.run(), {
                "rendered bound triple": lambda p: with_json(p, lambda o: o.update(rendered="(8.00, 1.78, 2.66)")),
                "max |delta| off by 1e-6": lambda p: with_json(
                    p, lambda o: o["pairs"]["A_L"].update(max_abs_delta=o["pairs"]["A_L"]["max_abs_delta"] + 1e-6)),
                "nonzero exit status": lambda p: subprocess.CompletedProcess(p.args, 1, p.stdout, "error"),
            }),
            (info, info.run(), {
                "component count": lambda p: with_json(p, lambda o: o.update(component_count=2)),
            }),
            (analysis, analysis.run(), {
                "one eigenvalue off by 1e-6": lambda r: (
                    [dataclasses.replace(r[0][0], target=shifted(r[0][0].target, 3, 1e-6))] + r[0][1:], *r[1:]),
                "Weyl check not ok": lambda r: (*r[:3], dataclasses.replace(r[3], ok=False), *r[4:]),
            }),
            (clustering, clustering.run(), {
                "one vertex moved": lambda r: (
                    dataclasses.replace(r[0], labels=shifted(r[0].labels, 0, 1)), r[1]),
            }),
        ]
        for op, result, perturbations in cases:
            problem = op.check(result)
            print(f"{'ok  ' if problem is None else 'FAIL'} {op.label}: real result accepted"
                  + ("" if problem is None else f" -- {problem}"))
            failures += problem is not None
            for name, perturb in perturbations.items():
                problem = op.check(perturb(result))
                print(f"{'ok  ' if problem else 'FAIL'} {op.label}: {name} rejected"
                      + (f" ({problem})" if problem else ""))
                failures += problem is None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP.exists() and not any(TMP.iterdir()):
            TMP.rmdir()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
