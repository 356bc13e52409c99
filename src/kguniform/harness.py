"""Convergence-study harness: sweeps over (scheme, c, tau), error tables,
order fitting, and CSV/JSON emission.

A sweep integrates the standard initial profile

    z(0, x)   = (1/2) cos(3x)^2 sin(2x) / (2 - cos x)
    z_t(0, x) = c^2 (1/2) sin(x) cos(2x) / (2 - cos x)

up to T with every requested scheme and step size tau = T * 2^-m, and
measures the discrete H^1 error of the reconstructed z against a fine-step
self-certified reference at time T.  Fitted orders are least-squares slopes
in log2-log2, after dropping cells within a factor 10 of the reference
certificate (saturated) and any leading cells where the error does not yet
decrease with tau.
"""

from __future__ import annotations

import json
import os
import reprlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .integrators import (
    NonFiniteStateError,
    ReferenceUnreliableError,
    SchemeId,
    StepContext,
    _NORM_R,
    evolve,
    reference_solution,
)
from .model import KgState, reconstruct_z, to_first_order, twist
from .spectral import (
    SpectralField,
    SpectralGrid,
    field_from_values,
    make_grid,
    make_multipliers,
    sobolev_norm,
)

__all__ = [
    "SweepConfig",
    "SweepRow",
    "ErrorTable",
    "paper_initial_data",
    "run_sweep",
    "fit_order",
    "emit",
    "parse_table",
    "PAPER_C_LIST",
]

# the nine standard c values of the full-scale study
PAPER_C_LIST = [1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 10000.0]

# fitted-order bands used for the CLI exit status
ORDER_BANDS = {
    SchemeId.UEI1.value: (0.85, 1.15),
    SchemeId.UEI1_REAL.value: (0.85, 1.15),
    SchemeId.UEI2_REAL.value: (1.8, 2.2),
}

# the table formats that emit writes and parse_table reads
FORMATS = ("csv", "json")


def paper_initial_data(grid: SpectralGrid, c: float) -> KgState:
    """Smooth real initial data; z_t carries the c^2 scaling of the
    non-relativistic normalization."""
    x = grid.x
    denom = 2.0 - np.cos(x)
    z = 0.5 * np.cos(3.0 * x) ** 2 * np.sin(2.0 * x) / denom
    zt = c * c * 0.5 * np.sin(x) * np.cos(2.0 * x) / denom
    return KgState(
        z=field_from_values(grid, z), zt=field_from_values(grid, zt), t=0.0
    )


@dataclass
class SweepConfig:
    schemes: list = field(default_factory=lambda: [SchemeId.UEI1, SchemeId.UEI2_REAL])
    c_list: list = field(default_factory=lambda: [1.0, 10.0, 100.0, 1000.0, 10000.0])
    tau_exponents: list = field(default_factory=lambda: list(range(4, 11)))
    T: float = 0.1
    K: int = 256
    ref_exponent: int = 14

    def __post_init__(self):
        # each check makes a bad value a construction error (a CLI usage
        # error, before any work starts) where a bad c or K would fail in
        # run_sweep's input building and a bad T or tau exponent in every worker
        for s in self.schemes:
            if not isinstance(s, SchemeId):
                raise ValueError(f"unknown scheme {s!r}; need a SchemeId")
        for name, value in (("T", self.T), ("c", self.c_list)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {name}={value!r}")
        if self.T <= 0:
            raise ValueError("T must be positive")
        # an empty list would give a sweep of no cells, and a repeated cell
        # enters its order fit twice (and _fit_rows' trim of a leading
        # non-decrease drops one copy of it)
        names = [s.value for s in self.schemes]
        for name, values in (("scheme", names), ("c", self.c_list), ("tau exponent", self.tau_exponents)):
            if len(values) == 0:
                raise ValueError(f"{name} list must be nonempty")
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"repeated {name} {v!r}")
        exps = (*self.tau_exponents, self.ref_exponent)
        if min(exps[:-1]) < 0 or exps[-1] < 1 or not all(float(e).is_integer() for e in exps):
            raise ValueError("need tau exponents >= 0 and ref_exponent >= 1, all integers")
        # a subnormal or zero step would fail in every worker; with normal
        # steps T/tau is exactly 2^e, as evolve requires
        if self.T * 2.0 ** -max(exps) < sys.float_info.min:
            raise ValueError(f"step T * 2^-{max(exps)} underflows; need a larger T or smaller exponents")
        if any(c <= 0 for c in self.c_list):
            raise ValueError("all c must be positive")
        make_grid(1, self.K)  # raises on a grid size the solver cannot use


@dataclass
class SweepRow:
    scheme: str
    c: float
    tau: float
    err: float
    wall_time: float
    failed: str | None = None


@dataclass
class ErrorTable:
    rows: list
    fitted_orders: dict


def fit_order(points) -> float:
    """Least-squares slope of log2(err) against log2(tau), in closed form over
    the centred log2(tau).  Points whose err is not finite and positive are
    skipped.  ValueError for a tau that is not finite and positive, or for
    fewer than three distinct log2(tau) among the other points."""
    pts = list(points)
    for t, _ in pts:
        if not (np.isfinite(t) and t > 0):
            raise ValueError(f"tau {t!r} is not finite and positive")
    usable = [(t, e) for (t, e) in pts if np.isfinite(e) and e > 0]
    lt = np.log2([t for t, _ in usable])
    distinct = len(set(lt.tolist()))  # np.unique would page in ~0.8 MB of sort code
    if distinct < 3:
        raise ValueError(f"insufficient data: need >= 3 distinct tau, got {distinct}")
    le = np.log2([e for _, e in usable])
    d = lt - lt.mean()
    return float(np.sum(d * (le - le.mean())) / np.sum(d * d))


def _fit_rows(rows, certificate):
    """Order fit with saturation exclusion and leading-wiggle trimming."""
    usable = [
        r
        for r in rows
        if r.failed is None and np.isfinite(r.err) and r.err >= 10.0 * certificate
    ]
    usable.sort(key=lambda r: -r.tau)
    while len(usable) > 1 and usable[0].err <= usable[1].err:
        usable.pop(0)
    if len(usable) < 3:
        return None
    return fit_order([(r.tau, r.err) for r in usable])


def _worker_count() -> int:
    """CPUs this process may run on: the size of the sweep's process pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# c -> (multipliers, twisted initial pair) of the running sweep, in a worker
_inputs = {}


def _set_inputs(inputs):
    """Pool initializer: hand this worker the sweep's inputs."""
    global _inputs
    _inputs = inputs


@dataclass
class _Outcome:
    """A pool task's end: z coefficients at T (None if it failed), its
    failure message, its run's wall time in the worker, and a reference's
    certificate."""

    z: np.ndarray | None
    failure: str | None
    wall: float = 0.0
    certificate: float = float("nan")


def _reference_task(c, T, tau_ref):
    """Pool task: the reference at T and its certificate."""
    m, pair0 = _inputs[c]
    start = time.perf_counter()
    try:
        ref = reference_solution(pair0, T, m, tau_ref=tau_ref)
    except ReferenceUnreliableError as exc:
        return _Outcome(None, str(exc), time.perf_counter() - start)
    wall = time.perf_counter() - start
    return _Outcome(reconstruct_z(ref.pair).coeffs, None, wall, ref.certificate)


def _cell_task(c, scheme, T, tau):
    """Pool task: the cell's z at T."""
    m, pair0 = _inputs[c]
    start = time.perf_counter()
    try:
        final = evolve(scheme, pair0, T, StepContext(m.grid, m, tau))
    except NonFiniteStateError as exc:
        return _Outcome(None, str(exc), time.perf_counter() - start)
    wall = time.perf_counter() - start
    return _Outcome(reconstruct_z(final).coeffs, None, wall)


def _task_result(fut, task):
    """fut's _Outcome; a task whose worker died fails with a message naming
    it and no wall time or certificate, and an error raised in its task comes
    back as a RuntimeError naming the task, chained to it."""
    from concurrent.futures import BrokenExecutor  # loaded by run_sweep's pool

    try:
        return fut.result()
    except BrokenExecutor:
        return _Outcome(None, f"worker process died ({task})")
    except Exception as exc:
        raise RuntimeError(f"{task}: {type(exc).__name__}: {exc}") from exc


def run_sweep(cfg: SweepConfig, progress=None) -> ErrorTable:
    """Run the full (scheme, c, tau) sweep against per-c references.

    The parent builds each c's multipliers and twisted initial pair once for
    a process pool with one worker per available CPU, on which every
    reference and every cell is one task; cells do not wait for their
    reference, and the parent forms each (scheme, c) group's rows and fitted
    order in configuration order, so neither depends on the worker count.
    Each task ends as one _Outcome whose wall is its own run's time in its
    worker: a row's wall_time is its cell's evolve time, and progress, if
    given, gets `reference c=<c> done in <wall> s` or `... failed: <message>`.
    Every task runs to its end: a failed reference certificate marks all
    cells of that c as failed, with the reference's message and a NaN error,
    and leaves their fitted order None.
    A cell whose state blows up is marked failed with the NonFiniteStateError
    message.  A worker that dies breaks the pool: every task not finished by
    then fails with "worker process died (<task>)", and the rows finished
    before are kept.  Any other error in a task is raised as a RuntimeError
    that names the task (`cell uei1 c=1.0 tau=0.00625: ...` or
    `reference c=100.0: ...`), chained to it.
    """
    grid = make_grid(1, cfg.K)
    tau_ref = cfg.T * 2.0 ** -cfg.ref_exponent
    taus = [cfg.T * 2.0**-m_exp for m_exp in cfg.tau_exponents]
    # c -> (multipliers, twisted initial pair), built before any worker starts
    inputs = {}
    for c in cfg.c_list:
        m, s0 = make_multipliers(grid, c), paper_initial_data(grid, c)
        inputs[c] = m, twist(*to_first_order(s0, m), s0.t, m.c)
    # imported here, so that programs which never sweep do not hold the
    # pool's modules (~0.3 MB)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = max(1, min(_worker_count(), len(inputs) * (1 + len(cfg.schemes) * len(taus))))
    # fork where the platform has it: a worker starts without importing numpy
    # and the package again (~0.1 s, numpy 2.4 on a 2-vCPU VM).  The package
    # starts no threads, and a fork-context pool forks every worker at its
    # first submit, before it starts its own management thread.  Else spawn.
    # Either way a worker gets the initializer's arguments once, so tasks
    # name their c instead of carrying its inputs
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context(method),
        initializer=_set_inputs,
        initargs=(inputs,),
    )
    try:
        # references first: they are the longest tasks
        ref_futures = {c: pool.submit(_reference_task, c, cfg.T, tau_ref) for c in inputs}
        # (scheme, c) -> its cells' futures, in tau order
        groups = {
            (scheme, c): [pool.submit(_cell_task, c, scheme, cfg.T, tau) for tau in taus]
            for scheme in cfg.schemes
            for c in cfg.c_list
        }
        refs = {}
        for c, fut in ref_futures.items():
            refs[c] = ref = _task_result(fut, f"reference c={c}")
            if progress:
                done = f"done in {ref.wall:.3f} s" if ref.failure is None else f"failed: {ref.failure}"
                progress(f"reference c={c} {done}")
        rows, fitted = [], {}
        for (scheme, c), cells in groups.items():
            ref = refs[c]
            group = []
            for tau, fut in zip(taus, cells):
                cell = _task_result(fut, f"cell {scheme.value} c={c} tau={tau}")
                failure = ref.failure or cell.failure
                err = float("nan")
                if failure is None:
                    err = float(sobolev_norm(SpectralField(grid, cell.z - ref.z), _NORM_R))
                group.append(SweepRow(scheme.value, c, tau, err, cell.wall, failed=failure))
            rows += group
            fitted[(scheme.value, c)] = _fit_rows(group, ref.certificate)
    finally:
        pool.shutdown(cancel_futures=True)
    return ErrorTable(rows=rows, fitted_orders=fitted)


_CSV_HEADER = "scheme,c,tau,err_h1,wall_time_s"
# JSON row keys, in SweepRow field order
_JSON_ROW_KEYS = ("scheme", "c", "tau", "err_h1", "wall_time_s", "failed")

# the JSON types of a table's entries and of its rows' and fitted orders'
# fields; a JSON true is a Python bool, an int
_NUMBER = ((int, float), "a number")
_JSON_TYPES = {
    "rows": ((list,), "an array"),
    "fitted_orders": ((list,), "an array"),
    "scheme": ((str,), "a string"),
    "c": _NUMBER,
    "tau": _NUMBER,
    "err_h1": _NUMBER,
    "wall_time_s": _NUMBER,
    "failed": ((str, type(None)), "a string or null"),
    "order": ((int, float, type(None)), "a number or null"),
}


def _json_field(d, key: str, path: str, where: str):
    """d[key], if d is a JSON object and d[key] has the JSON type of that
    field (KeyError if absent)."""
    if not isinstance(d, dict):
        raise ValueError(f"{path}: {where} is {reprlib.repr(d)}, expected an object")
    value = d[key]
    kinds, name = _JSON_TYPES[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{path}: {where} has {key} {reprlib.repr(value)}, expected {name}")
    return value


def emit(table: ErrorTable, out_format: str, path: str) -> None:
    """Write the table; CSV columns are exactly scheme,c,tau,err_h1,wall_time_s.

    Floats use the shortest round-trip representation, so output bytes are a
    pure function of the table contents.
    """
    if out_format not in FORMATS:
        raise ValueError(f"unknown format {out_format!r}")
    if out_format == "csv":
        lines = [_CSV_HEADER]
        for r in table.rows:
            err = float("nan") if r.failed is not None else r.err
            lines.append(f"{r.scheme},{r.c!r},{r.tau!r},{err!r},{r.wall_time!r}")
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "rows": [
                dict(zip(_JSON_ROW_KEYS, (r.scheme, r.c, r.tau, r.err, r.wall_time, r.failed)))
                for r in table.rows
            ],
            "fitted_orders": [
                {"scheme": s, "c": c, "order": order}
                for (s, c), order in table.fitted_orders.items()
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write table to {path}: {exc}") from exc


def parse_table(path: str, out_format: str = "csv") -> ErrorTable:
    """Inverse of emit (CSV carries no fitted orders).  A JSON table, row,
    fitted order or field of the wrong type raises ValueError naming the
    file, the table, row or fitted order, and the field."""
    if out_format not in FORMATS:
        raise ValueError(f"unknown format {out_format!r}")
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read table from {path}: {exc}") from exc
    if out_format == "csv":
        lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines:
            raise ValueError(f"{path}:1: empty CSV table, expected header {_CSV_HEADER!r}")
        if lines[0][1] != _CSV_HEADER:
            raise ValueError(f"unexpected CSV header {lines[0][1]!r} in {path}")
        rows = []
        for lineno, ln in lines[1:]:
            fields = ln.split(",")
            if len(fields) != 5:
                raise ValueError(
                    f"{path}:{lineno}: expected 5 fields, got {len(fields)} in {ln!r}"
                )
            try:
                c, tau, err, wall = map(float, fields[1:])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc} in {ln!r}") from None
            failed = "failed" if np.isnan(err) else None
            rows.append(SweepRow(fields[0], c, tau, err, wall, failed=failed))
        return ErrorTable(rows=rows, fitted_orders={})
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON table: {exc}") from None
    where = "the table"
    try:
        raw_rows, raw_fitted = (_json_field(payload, key, path, where) for key in ("rows", "fitted_orders"))
        rows = []
        for i, d in enumerate(raw_rows):
            where = f"row {i}"
            rows.append(SweepRow(*(_json_field(d, key, path, where) for key in _JSON_ROW_KEYS)))
        fitted = {}
        for i, d in enumerate(raw_fitted):
            where = f"fitted order {i}"
            scheme, c, order = (_json_field(d, key, path, where) for key in ("scheme", "c", "order"))
            fitted[(scheme, c)] = order
    except KeyError as exc:
        raise ValueError(f"{path}: {where} has no key {exc}") from None
    return ErrorTable(rows=rows, fitted_orders=fitted)
