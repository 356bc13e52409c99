"""kguniform benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 kgbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 kgbench/run.py --workload all            # every workload, one table

Run from the repository root.  The program is imported from `src/` of the
same checkout.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.  See
kgbench/README.md for the workloads, the metrics and what each one moves.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# numpy's BLAS pool would otherwise start one thread per CPU on top of the
# sweep's workers; kguniform does no BLAS-sized work, so one thread suffices
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def import_program():
    """Import kguniform from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import kguniform

    where = os.path.realpath(kguniform.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"kguniform imported from {where}, not from {SRC}")
    return kguniform


def probe_setup(workload: str, seed: int) -> None:
    """Child process: time importing kguniform and building the inputs."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    workloads.WORKLOADS[workload]().build(seed)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, seed: int) -> list:
    """Set-up time in fresh processes, one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def manifest(kg, args, workers: int) -> dict:
    import numpy
    import scipy
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kguniform": kg.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": workloads.nproc(),
        "cpu_count": os.cpu_count(),
        "KG_THREADS": os.environ.get("KG_THREADS"),
        "workers": workers,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


@contextlib.contextmanager
def no_op(label):
    """The `op` marker of an untraced body: operations are not recorded."""
    yield


def timed(wl, inputs, op):
    t0 = time.perf_counter()
    out = wl.run(inputs, op)
    return out, time.perf_counter() - t0


def body_count(wl, seconds) -> int:
    """Bodies an untraced run times: `seconds` over the workload's nominal
    body time.  The count follows from `seconds` alone, not from the
    machine's speed, so wall_s is always a median over as many bodies."""
    return max(1, round(seconds / wl.body_s))


def run_untraced(wl, inputs, seconds):
    walls, attempted, failed, notes = [], 0, 0, []
    for _ in range(body_count(wl, seconds)):
        out, wall = timed(wl, inputs, no_op)
        walls.append(wall)
        chk = wl.check(inputs, out)
        attempted += chk.attempted
        failed += chk.failed
        notes += chk.notes
    return walls, attempted, failed, notes


def traced_body(wl, inputs, label):
    """One body with every wrapper installed; the originals are back on return."""
    import tracing

    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer)
    try:
        with tracer.span("bench.body", op=label):
            out, wall = timed(wl, inputs, lambda op: tracer.span("bench.op", op=op))
    finally:
        restore()
    return out, wall, tracer, missing


def layer_metrics(wl, tracer, out):
    """Spans of one traced body and its per-layer metrics."""
    import tracing
    import workloads

    sp = tracer.collect()
    metrics = tracing.summarize(sp, tracer)
    metrics.update(dict.fromkeys(workloads.FACTS, 0.0))
    metrics.update(wl.facts(out))
    return sp, metrics


def run_traced(wl, inputs, seconds):
    """After one warm-up body, pairs of one untraced and one traced body
    (alternating which goes first) until `seconds` have passed.  Per-layer
    metrics are medians over the traced bodies; the traced output must equal
    the untraced one bitwise."""
    walls_u, walls_t, per_body, spans = [], [], [], []
    attempted, failed, notes = 0, 0, []
    # the first body of a process pays for fresh pages and FFT plans; keep
    # that cost out of the overhead comparison
    timed(wl, inputs, no_op)
    start = time.perf_counter()
    pair = 0
    while True:
        if pair % 2 == 0:
            out_u, wall_u = timed(wl, inputs, no_op)
            out_t, wall_t, tracer, missing = traced_body(wl, inputs, f"body{pair}")
        else:
            out_t, wall_t, tracer, missing = traced_body(wl, inputs, f"body{pair}")
            out_u, wall_u = timed(wl, inputs, no_op)
        walls_u.append(wall_u)
        walls_t.append(wall_t)
        sp, metrics = layer_metrics(wl, tracer, out_t)
        per_body.append(metrics)
        spans.append(sp)
        chk_u, chk_t = wl.check(inputs, out_u), wl.check(inputs, out_t)
        for chk in (chk_u, chk_t):
            attempted += chk.attempted
            failed += chk.failed
            notes += chk.notes
        if wl.fingerprint(out_t) != wl.fingerprint(out_u):
            # every operation of the traced body counts as failed
            failed += chk_t.attempted - chk_t.failed
            notes.append("traced output differs from untraced output")
        pair += 1
        if time.perf_counter() - start >= seconds:
            break
    layer = {k: statistics.median(b[k] for b in per_body) for k in per_body[0]}
    layer["trace.overhead_frac"] = statistics.median(walls_t) / statistics.median(walls_u) - 1.0
    return layer, spans, missing, (walls_u, walls_t), attempted, failed, notes


def write_spans(path, spans, info):
    import numpy as np

    os.makedirs(os.path.dirname(path), exist_ok=True)
    arrays = {}
    for i, sp in enumerate(spans):
        for k, v in sp.items():
            arrays[f"body{i}.{k}"] = v
    np.savez_compressed(path, manifest=np.array(json.dumps(info)), **arrays)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_one(args) -> int:
    spec = load_spec()
    kg = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload]()
    workers = wl.workers()
    # the sweep's pool size; never more workers than CPUs
    os.environ["KG_THREADS"] = str(workers)

    setup = measure_setup(args.workload, args.seed)
    inputs = wl.build(args.seed)
    info = manifest(kg, args, workers)
    print("manifest " + json.dumps(info, sort_keys=True))

    if args.trace:
        layer, spans, missing, (walls_u, walls_t), attempted, failed, notes = run_traced(
            wl, inputs, args.seconds
        )
        info["untraced_targets"] = missing
        path = os.path.join(workloads.OUT_DIR, f"spans_{args.workload}_seed{args.seed}.npz")
        write_spans(path, spans, info)
        print(f"spans: {path} ({sum(len(s['name']) for s in spans)} spans, "
              f"{len(spans)} traced bodies)")
        print(f"untraced wall_s {walls_u}, traced wall_s {walls_t}, "
              f"overhead {layer['trace.overhead_frac']:+.3f}")
        values = layer
        metric_specs = spec["per_layer"]
    else:
        walls, attempted, failed, notes = run_untraced(wl, inputs, args.seconds)
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
        }
        metric_specs = spec["end_to_end"]
        print(f"wall_s per body ({len(walls)} bodies) {walls}; "
              f"setup_s per process ({len(setup)} processes) {setup}")

    for note in notes[:20]:
        print("FAILED " + note)
    metrics = {}
    for m in metric_specs:
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        print(f"  {m['name']:<42} {values[m['name']]:.6g} {m['unit']}")
    print(f"  {'fail_frac':<42} {failed / attempted:.6g} ({failed}/{attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one summary table."""
    spec = load_spec()
    rows, ok = [], True
    for wl in spec["workloads"]:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", wl["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((wl["name"], result))
    for name, result in rows:
        frac = result["failed"] / result["attempted"]
        print(f"{name}: fail_frac {frac:.6g} ({result['failed']}/{result['attempted']})")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<42} {v['value']:.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="sweep, trajectory, oracle or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if not os.path.isdir(os.path.join(SRC, "kguniform")):
        print(f"no program to benchmark: {SRC}/kguniform is missing", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
