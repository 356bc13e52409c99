"""Command line front end: `kg-uniform sweep` and `kg-uniform verify`.

Options can come from a flat key=value config file; command-line flags win.
The sweep exit status is nonzero iff any cell failed or a fitted order of an
order-checked scheme (uei1, uei1_real, uei2) falls outside its band.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ORDER_BANDS,
    PAPER_C_LIST,
    SweepConfig,
    emit,
    run_sweep,
)
from .integrators import SchemeId
from .verify import run_all

_SCHEMES = {s.value: s for s in SchemeId}


def _parse_schemes(text):
    out = []
    for name in text.split(","):
        name = name.strip().lower()
        if name not in _SCHEMES:
            raise ValueError(f"unknown scheme {name!r}; choose from {sorted(_SCHEMES)}")
        out.append(_SCHEMES[name])
    return out


def _parse_floats(text):
    return [float(c) for c in text.split(",")]


def _parse_exponents(text):
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(p) for p in text.split(",")]


def _read_config(path):
    opts = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw.rstrip()!r} in {path}")
            key, value = line.split("=", 1)
            opts[key.strip()] = value.strip()
    return opts


def _build_config(args) -> SweepConfig:
    opts = _read_config(args.config) if args.config else {}

    def pick(flag, key, conv, default):
        raw = flag if flag is not None else opts.get(key)
        return default if raw is None else conv(raw)

    paper = args.paper or opts.get("paper", "false").lower() in ("1", "true", "yes")
    return SweepConfig(
        schemes=pick(args.schemes, "schemes", _parse_schemes, [SchemeId.UEI1, SchemeId.UEI2_REAL]),
        c_list=pick(
            args.c, "c", _parse_floats, PAPER_C_LIST if paper else [1.0, 10.0, 100.0, 1000.0, 10000.0]
        ),
        tau_exponents=pick(args.tau_exp, "tau_exp", _parse_exponents, list(range(4, 11))),
        T=pick(args.T, "T", float, 0.1),
        # the full-scale preset uses 1024 grid points (K = 512), i.e. the
        # mesh 2*pi/1024 ~ 0.0061 of the reference study
        K=pick(args.K, "K", int, 512 if paper else 256),
        r=pick(args.r, "r", float, 1.0),
        ref_exponent=pick(args.ref_exp, "ref_exp", int, 16),
        output_path=pick(args.out, "out", str, "results.csv"),
        out_format=pick(args.format, "format", str, "csv"),
    )


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    table = run_sweep(cfg, progress=print if args.verbose else None)
    emit(table, cfg.out_format, cfg.output_path)
    print(f"wrote {len(table.rows)} rows to {cfg.output_path} [{cfg.out_format}]")

    status = 0
    for (scheme, c), order in sorted(table.fitted_orders.items()):
        band = ORDER_BANDS.get(scheme)
        note = ""
        if band is not None:
            if order is None or not (band[0] <= order <= band[1]):
                note = f"  <-- outside band {band}"
                status = 1
        shown = "n/a" if order is None else f"{order:.3f}"
        print(f"  order {scheme:<10} c={c:<8g} {shown}{note}")
    n_failed = sum(1 for r in table.rows if r.failed is not None)
    if n_failed:
        print(f"  {n_failed} cells failed (unreliable reference)")
        status = 1
    return status


def _cmd_verify(args) -> int:
    checks = run_all(fast=args.quick)
    status = 0
    for chk in checks:
        tag = "PASS" if chk.passed else "FAIL"
        print(f"{tag} {chk.name}: {chk.detail}")
        if not chk.passed:
            status = 1
    print("verification", "passed" if status == 0 else "FAILED")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kg-uniform",
        description="Uniformly accurate Klein-Gordon integrators: convergence "
        "sweeps and property verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sweep", help="run a (scheme, c, tau) convergence sweep")
    ps.add_argument("--config", help="flat key=value config file")
    ps.add_argument("--schemes", help="comma list: uei1,uei1_real,uei2,lie,strang,largec")
    ps.add_argument("--c", help="comma list of c values")
    ps.add_argument("--tau-exp", dest="tau_exp", help="exponent range m (tau = T*2^-m), e.g. 4..12 or 4,6,8")
    ps.add_argument("--T", type=float, help="time horizon")
    ps.add_argument("--K", type=int, help="number of Fourier modes (grid has 2K points)")
    ps.add_argument("--r", type=float, help="Sobolev order of the error norm")
    ps.add_argument("--ref-exp", dest="ref_exp", type=int, help="reference tau = T*2^-ref_exp")
    ps.add_argument("--paper", action="store_true", help="full-scale preset: 1024-point grid, nine c values")
    ps.add_argument("--out", help="output path")
    ps.add_argument("--format", choices=("csv", "json"), help="output format")
    ps.add_argument("-v", "--verbose", action="store_true")
    ps.set_defaults(func=_cmd_sweep)

    pv = sub.add_parser("verify", help="run the property/oracle suite")
    pv.add_argument("--quick", action="store_true", help="reduced sampling")
    pv.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
