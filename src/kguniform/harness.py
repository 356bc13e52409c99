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
        # each check catches a value that would otherwise fail, or run NaN
        # references, only inside the workers
        for s in self.schemes:
            if not isinstance(s, SchemeId):
                raise ValueError(f"unknown scheme {s!r}; need a SchemeId")
        for name, value in (("T", self.T), ("c", self.c_list)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {name}={value!r}")
        if self.T <= 0:
            raise ValueError("T must be positive")
        if not self.tau_exponents:
            raise ValueError("tau exponent list must be nonempty")
        exps = (*self.tau_exponents, self.ref_exponent)
        if min(exps[:-1]) < 0 or exps[-1] < 1 or not all(float(e).is_integer() for e in exps):
            raise ValueError("need tau exponents >= 0 and ref_exponent >= 1, all integers")
        if any(c <= 0 for c in self.c_list):
            raise ValueError("all c must be positive")
        # a repeated cell enters its order fit twice (and _fit_rows' trim of a
        # leading non-decrease drops one copy of it)
        names = [s.value for s in self.schemes]
        for name, values in (("scheme", names), ("c", self.c_list), ("tau exponent", self.tau_exponents)):
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"repeated {name} {v!r}")
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
    """Least-squares slope of log2(err) against log2(tau)."""
    pts = [(t, e) for (t, e) in points if np.isfinite(e) and e > 0]
    if len(pts) < 3:
        raise ValueError(f"insufficient data: need >= 3 points, got {len(pts)}")
    lt = np.log2([p[0] for p in pts])
    le = np.log2([p[1] for p in pts])
    return float(np.polyfit(lt, le, 1)[0])


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


def _reference_task(c, T, tau_ref):
    """Pool task: (reference z coefficients at T, certificate, failure)."""
    m, pair0 = _inputs[c]
    try:
        ref = reference_solution(pair0, T, m, tau_ref=tau_ref)
    except ReferenceUnreliableError as exc:
        return None, None, str(exc)
    return reconstruct_z(ref.pair).coeffs, ref.certificate, None


def _cell_task(c, scheme, T, tau):
    """Pool task: (cell z coefficients at T, its evolve time, failure)."""
    m, pair0 = _inputs[c]
    start = time.perf_counter()
    try:
        final = evolve(scheme, pair0, T, StepContext(m.grid, m, tau))
    except NonFiniteStateError as exc:
        return None, time.perf_counter() - start, str(exc)
    wall = time.perf_counter() - start
    return reconstruct_z(final).coeffs, wall, None


def run_sweep(cfg: SweepConfig, progress=None) -> ErrorTable:
    """Run the full (scheme, c, tau) sweep against per-c references.

    The parent builds each c's multipliers and twisted initial pair once for
    a process pool with one worker per available CPU, on which every
    reference and every cell is one task; cells do not wait for their
    reference, and the parent forms each (scheme, c) group's rows and fitted
    order in configuration order, so neither depends on the worker count.  A
    row's wall_time is its cell's own evolve time, measured in its worker.  A
    failed reference certificate marks all cells of that c as failed; when
    the parent reads it, in c order, it cancels those of its cells that have
    not started, whose rows carry the reference's message, a NaN error and a
    wall_time of 0.0.  A cell whose state blows up is marked failed with the
    NonFiniteStateError message; any other error propagates.
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
        # c -> (reference z coefficients, certificate, failure)
        refs = {}
        for c, fut in ref_futures.items():
            refs[c] = fut.result()
            if refs[c][2] is not None:  # its cells are worthless
                for scheme in cfg.schemes:
                    for cell in groups[scheme, c]:
                        cell.cancel()
            if progress:
                progress(f"reference c={c} done")
        rows, fitted = [], {}
        for (scheme, c), cells in groups.items():
            z_ref, cert, ref_failure = refs[c]
            group = []
            for tau, fut in zip(taus, cells):
                z, wall, failure = (None, 0.0, None) if fut.cancelled() else fut.result()
                failure = ref_failure or failure
                err = float("nan")
                if failure is None:
                    err = float(sobolev_norm(SpectralField(grid, z - z_ref), _NORM_R))
                group.append(SweepRow(scheme.value, c, tau, err, wall, failed=failure))
            rows += group
            fitted[(scheme.value, c)] = None if ref_failure else _fit_rows(group, cert)
    finally:
        pool.shutdown(cancel_futures=True)
    return ErrorTable(rows=rows, fitted_orders=fitted)


_CSV_HEADER = "scheme,c,tau,err_h1,wall_time_s"
# JSON row keys, in SweepRow field order
_JSON_ROW_KEYS = ("scheme", "c", "tau", "err_h1", "wall_time_s", "failed")

# the JSON types of a table's fields; a JSON true is a Python bool, an int
_NUMBER = ((int, float), "a number")
_JSON_TYPES = {
    "scheme": ((str,), "a string"),
    "c": _NUMBER,
    "tau": _NUMBER,
    "err_h1": _NUMBER,
    "wall_time_s": _NUMBER,
    "failed": ((str, type(None)), "a string or null"),
    "order": ((int, float, type(None)), "a number or null"),
}


def _json_field(d: dict, key: str, path: str, where: str):
    """d[key], if it has the JSON type of that field (KeyError if absent)."""
    value = d[key]
    kinds, name = _JSON_TYPES[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{path}: {where} has {key} {value!r}, expected {name}")
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
    """Inverse of emit (CSV carries no fitted orders).  A JSON field of the
    wrong type raises ValueError naming the file, the row or fitted order,
    and the field."""
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
        raw_rows, raw_fitted = payload["rows"], payload["fitted_orders"]
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
