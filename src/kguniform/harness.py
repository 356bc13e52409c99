"""Convergence-study harness: sweeps over (scheme, c, tau), error tables,
order fitting, and CSV/JSON emission.

A sweep integrates the standard initial profile

    z(0, x)   = (1/2) cos(3x)^2 sin(2x) / (2 - cos x)
    z_t(0, x) = c^2 (1/2) sin(x) cos(2x) / (2 - cos x)

up to T with every requested scheme and step size tau = T * 2^-m, and
measures the discrete H^r error of the reconstructed z against a fine-step
self-certified reference at time T.  Fitted orders are least-squares slopes
in log2-log2, after dropping cells within a factor 10 of the reference
certificate (saturated) and any leading cells where the error does not yet
decrease with tau.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .integrators import (
    ReferenceUnreliableError,
    SchemeId,
    StepContext,
    evolve,
    reference_solution,
)
from .model import KgState, reconstruct_z, to_first_order, twist
from .spectral import (
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


def paper_initial_data(grid: SpectralGrid, c: float) -> KgState:
    """Smooth real initial data; z_t carries the c^2 scaling of the
    non-relativistic normalization."""
    if grid.d != 1:
        raise ValueError("initial data is defined for d = 1")
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
    r: float = 1.0
    ref_exponent: int = 16
    output_path: str | None = None
    out_format: str = "csv"

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        if not self.tau_exponents:
            raise ValueError("tau exponent list must be nonempty")
        if any(c <= 0 for c in self.c_list):
            raise ValueError("all c must be positive")


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


def run_sweep(cfg: SweepConfig, progress=None) -> ErrorTable:
    """Run the full (scheme, c, tau) sweep against per-c references.

    A reference that fails its certificate marks all cells of that c as
    failed instead of aborting the sweep.  Cells are independent pure
    computations, so the optional KG_THREADS-sized worker pool cannot change
    the results, only the wall time; rows are merged in configuration order.
    """
    grid = make_grid(1, cfg.K)
    tau_ref = cfg.T * 2.0 ** -cfg.ref_exponent

    refs = {}
    for c in cfg.c_list:
        m = make_multipliers(grid, c)
        s0 = paper_initial_data(grid, c)
        ctx = StepContext(grid, m, cfg.T, cfg.r)
        try:
            ref = reference_solution(s0, c, cfg.T, ctx, tau_ref=tau_ref)
            refs[c] = (m, s0, reconstruct_z(ref.pair), ref.certificate)
        except ReferenceUnreliableError as exc:
            refs[c] = (m, s0, None, str(exc))
        if progress:
            progress(f"reference c={c} done")

    def run_cell(scheme: SchemeId, c: float, m_exp: int) -> SweepRow:
        m, s0, z_ref, cert = refs[c]
        tau = cfg.T * 2.0**-m_exp
        if z_ref is None:
            return SweepRow(scheme.value, c, tau, float("nan"), 0.0, failed=cert)
        ctx = StepContext(grid, m, tau, cfg.r)
        u0, v0 = to_first_order(s0, m)
        pair0 = twist(u0, v0, s0.t, c)
        start = time.perf_counter()
        final = evolve(scheme, pair0, cfg.T, ctx)
        wall = time.perf_counter() - start
        err = sobolev_norm(reconstruct_z(final) - z_ref, cfg.r)
        return SweepRow(scheme.value, c, tau, float(err), wall)

    tasks = [
        (scheme, c, m_exp)
        for scheme in cfg.schemes
        for c in cfg.c_list
        for m_exp in cfg.tau_exponents
    ]
    workers = max(1, int(os.environ.get("KG_THREADS", "1")))
    # both pool.map and the comprehension return rows in task order
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda t: run_cell(*t), tasks))
    else:
        rows = [run_cell(*t) for t in tasks]

    fitted = {}
    for scheme in cfg.schemes:
        for c in cfg.c_list:
            cert = refs[c][3]
            group = [r for r in rows if r.scheme == scheme.value and r.c == c]
            fitted[(scheme.value, c)] = (
                None if isinstance(cert, str) else _fit_rows(group, cert)
            )
    return ErrorTable(rows=rows, fitted_orders=fitted)


_CSV_HEADER = "scheme,c,tau,err_h1,wall_time_s"


def emit(table: ErrorTable, out_format: str, path: str) -> None:
    """Write the table; CSV columns are exactly scheme,c,tau,err_h1,wall_time_s.

    Floats use the shortest round-trip representation, so output bytes are a
    pure function of the table contents.
    """
    if out_format not in ("csv", "json"):
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
                {
                    "scheme": r.scheme,
                    "c": r.c,
                    "tau": r.tau,
                    "err_h1": r.err,
                    "wall_time_s": r.wall_time,
                    "failed": r.failed,
                }
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
    """Inverse of emit (CSV carries no fitted orders)."""
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
            scheme, c, tau, err, wall = fields
            err_f = float(err)
            rows.append(
                SweepRow(
                    scheme,
                    float(c),
                    float(tau),
                    err_f,
                    float(wall),
                    failed="failed" if np.isnan(err_f) else None,
                )
            )
        return ErrorTable(rows=rows, fitted_orders={})
    payload = json.loads(text)
    rows = [
        SweepRow(
            d["scheme"], d["c"], d["tau"], d["err_h1"], d["wall_time_s"], d["failed"]
        )
        for d in payload["rows"]
    ]
    fitted = {
        (d["scheme"], d["c"]): d["order"] for d in payload["fitted_orders"]
    }
    return ErrorTable(rows=rows, fitted_orders=fitted)
