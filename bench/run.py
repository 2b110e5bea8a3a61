"""evograft operator-path benchmark.

    python3 bench/run.py --workload evolve_desk --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Runs from the root of a source checkout and imports evograft from its `src/`.
One run: set up the workload several times (timed), then repeat timed
operator sessions until `--seconds` of command time is spent, checking every
command's output. `--trace 0` reports the end-to-end metrics; `--trace 1`
follows each untraced session with a traced one of the same inputs and
reports the per-layer metrics. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
details (manifest hashes, sample counts, environment).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("evolve_desk", "evolve_deep")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_program():
    """Import evograft from this checkout's src/, never from an installed copy."""
    if not (SRC / "evograft" / "__init__.py").is_file():
        sys.exit(f"error: no evograft sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import evograft
    if Path(evograft.__file__).resolve().parent != SRC / "evograft":
        sys.exit(f"error: evograft imported from {evograft.__file__}, not {SRC}")


def environment(seed: int, workers: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in THREAD_VARS}, "seed": seed, "workers": workers}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_program()
    from metrics import end_to_end, per_layer
    from spans import Tracer
    from workloads import SETUPS, SPECS, Workload

    spec = SPECS[name]
    env = environment(seed, spec.workers)
    if spec.workers > env["nproc"]:
        sys.exit(f"error: {name} needs {spec.workers} workers but only {env['nproc']} CPUs are usable")
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    tracer = Tracer()
    w = Workload(spec, seed, work, tracer)
    try:
        for draw in range(SETUPS):
            w.setup(draw)
        spent = 0.0
        for draw in itertools.count():
            # A traced run pairs each draw's untraced session with a traced one.
            n = len(w.sessions)
            spent += w.session(draw, traced=False).seconds
            if trace:
                with tracer.installed():
                    spent += w.session(draw, traced=True).seconds
            if spent + sum(s.seconds for s in w.sessions[n:]) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    hashes: dict[int, set[str]] = {}
    for s in w.sessions:
        hashes.setdefault(s.draw, set()).add(s.manifest_hash)
    deterministic = all(len(h) == 1 for h in hashes.values())
    if trace:
        pairs = list(zip(w.sessions[::2], w.sessions[1::2]))
        overhead = 100.0 * (statistics.median(t.seconds / u.seconds for u, t in pairs) - 1.0)
        metrics, samples = per_layer(w, tracer.spans, len(pairs), overhead)
        unbounded = {}
    else:
        metrics, samples, unbounded = end_to_end(w)
    failed = sum(c.failed for c in w.op.commands)
    detail = {
        "workload": name, "trace": int(trace), "env": env,
        "manifest_hashes": {str(d): sorted(h) for d, h in sorted(hashes.items())},
        "session_seconds": [round(s.seconds, 4) for s in w.sessions],
        "same_hash_per_draw": deterministic,
        "unbounded": {"error_rate": {"value": failed / len(w.op.commands), "unit": "fraction"},
                      "test_acc_mean": {"value": statistics.fmean(w.accuracy), "unit": "fraction"},
                      **unbounded},
        "samples": samples,
        "failures": [f"{c.name}: {f}" for c in w.op.commands for f in c.failures]
                    + [f"{c.name}: exit {c.code}" for c in w.op.commands if c.code != 0],
    }
    return {"detail": detail,
            "result": {"correct": failed == 0 and deterministic, "attempted": len(w.op.commands),
                       "failed": failed, "metrics": metrics}}


def print_table(name: str, result: dict, detail: dict, stream=sys.stdout) -> None:
    print(f"# {name}  seed={detail['env']['seed']}  sessions={len(detail['session_seconds'])}  "
          f"hash0={detail['manifest_hashes']['0'][0][:16]}  samples={json.dumps(detail['samples'])}", file=stream)
    rows = [(key, m, "") for key, m in result["metrics"].items()]
    rows += [(key, m, "  (unbounded)") for key, m in detail["unbounded"].items()]
    for key, m, note in rows:
        print(f"{name:12s} {key:40s} {m['value']:>14.6g} {m['unit']}{note}", file=stream)


def run_all(args) -> int:
    """Each workload in a fresh process (peak RSS is per process), one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        print_table(name, result, detail)
        results[name] = result
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update({var: "1" for var in THREAD_VARS})  # before anything imports numpy
    if args.workload == "all":
        return run_all(args)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, out["result"], out["detail"], stream=sys.stderr)
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
