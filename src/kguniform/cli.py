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


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(text):
    value = text.strip().lower()
    if value not in _BOOLEANS:
        raise ValueError(f"expected one of {sorted(_BOOLEANS)}")
    return _BOOLEANS[value]


def _read_config(path):
    """key -> (value, line number) of a flat key=value config file."""
    opts = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: bad config line {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            opts[key] = (value, lineno)
    return opts


# config-file key (also the flag's dest), SweepConfig field, converter
_SWEEP_OPTIONS = (
    ("schemes", "schemes", _parse_schemes),
    ("c", "c_list", _parse_floats),
    ("tau_exp", "tau_exponents", _parse_exponents),
    ("T", "T", float),
    ("K", "K", int),
    ("ref_exp", "ref_exponent", int),
)
_CONFIG_KEYS = [key for key, _, _ in _SWEEP_OPTIONS] + ["paper", "out", "format"]
_FORMATS = ("csv", "json")


def _build_config(args):
    """(SweepConfig, output path, output format); flags win over the config
    file, and fields that neither sets keep the SweepConfig defaults.  A
    config-file value its converter rejects raises ValueError naming the
    file and line."""
    filed = _read_config(args.config) if args.config else {}
    flags = {key: value for key, value in vars(args).items() if value is not None}

    def from_file(key, conv, default=None):
        if key not in filed:
            return default
        value, lineno = filed[key]
        try:
            return conv(value)
        except ValueError as exc:
            raise ValueError(f"{args.config}:{lineno}: bad {key} value {value!r}: {exc}") from None

    paper = args.paper or from_file("paper", _parse_bool, False)
    out_format = flags["format"] if "format" in flags else from_file("format", str, "csv")
    if out_format not in _FORMATS:
        raise ValueError(f"{args.config}: unknown format {out_format!r}; choose from {_FORMATS}")
    # the full-scale preset uses 1024 grid points (K = 512), i.e. the mesh
    # 2*pi/1024 ~ 0.0061 of the reference study, and the nine standard c
    kw = {"c_list": PAPER_C_LIST, "K": 512} if paper else {}
    for key, name, conv in _SWEEP_OPTIONS:
        if key in flags:
            kw[name] = conv(flags[key])
        elif key in filed:
            kw[name] = from_file(key, conv)
    out_path = flags["out"] if "out" in flags else from_file("out", str, "results.csv")
    return SweepConfig(**kw), out_path, out_format


def _cmd_sweep(args) -> int:
    try:
        cfg, out_path, out_format = _build_config(args)
    except ValueError as exc:
        # a usage error, reported as argparse reports its own
        print(f"kg-uniform sweep: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    table = run_sweep(cfg, progress=print if args.verbose else None)
    emit(table, out_format, out_path)
    print(f"wrote {len(table.rows)} rows to {out_path} [{out_format}]")

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
        print(f"  {n_failed} cells failed (unreliable reference or non-finite state)")
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

    # flags in full: a prefix such as `--r` would otherwise be taken for `--ref-exp`
    ps = sub.add_parser("sweep", help="run a (scheme, c, tau) convergence sweep", allow_abbrev=False)
    ps.add_argument("--config", help="flat key=value config file")
    ps.add_argument("--schemes", help="comma list: " + ",".join(_SCHEMES))
    ps.add_argument("--c", help="comma list of c values")
    ps.add_argument("--tau-exp", dest="tau_exp", help="exponent range m (tau = T*2^-m), e.g. 4..12 or 4,6,8")
    ps.add_argument("--T", type=float, help="time horizon")
    ps.add_argument("--K", type=int, help="number of Fourier modes (grid has 2K points)")
    ps.add_argument("--ref-exp", dest="ref_exp", type=int,
                    help=f"reference tau = T*2^-ref_exp (default {SweepConfig.ref_exponent})")
    ps.add_argument("--paper", action="store_true", help="full-scale preset: 1024-point grid, nine c values")
    ps.add_argument("--out", help="output path")
    ps.add_argument("--format", choices=_FORMATS, help="output format")
    ps.add_argument("-v", "--verbose", action="store_true")
    ps.set_defaults(func=_cmd_sweep)

    pv = sub.add_parser("verify", help="run the property/oracle suite")
    pv.add_argument("--quick", action="store_true", help="reduced sampling")
    pv.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
