"""Command line front end: `kg-uniform sweep` and `kg-uniform verify`.

Each sweep setting is declared once, in `_SETTINGS`: its config-file key,
flag, converter, SweepConfig field and flag help.  Settings can come from a
flat key=value config file; command-line flags win.  Each value is converted
where it is read, a file value even when a flag overrides it, and one that
does not convert is a usage error (exit status 2) naming its file and line
or its flag; so are an empty output path, a repeated config key, a config
file that cannot be read and an output path that is a directory.  The sweep
writes its table even when cells failed, a cell whose worker died among
them, and prints each distinct failure message once with its cell count.
The sweep exit status is nonzero iff any cell failed or a fitted order of an
order-checked scheme (uei1, uei1_real, uei2) falls outside its band.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

from .harness import (
    FORMATS,
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
    value = str(text).strip().lower()  # str: the `--paper` switch stores True
    if value not in _BOOLEANS:
        raise ValueError(f"expected one of {sorted(_BOOLEANS)}")
    return _BOOLEANS[value]


def _parse_out(text):
    if not text:
        raise ValueError("the output path is empty")
    return text


def _parse_format(text):
    if text not in FORMATS:
        raise ValueError(f"unknown format {text!r}; choose from {FORMATS}")
    return text


# config-file key -> converter, SweepConfig field it sets, help of _flag(key)
_SETTINGS = {
    "schemes": (_parse_schemes, "schemes", "comma list: " + ",".join(_SCHEMES)),
    "c": (_parse_floats, "c_list", "comma list of c values"),
    "tau_exp": (_parse_exponents, "tau_exponents", "exponent range m (tau = T*2^-m), e.g. 4..12 or 4,6,8"),
    "T": (float, "T", "time horizon"),
    "K": (int, "K", "number of Fourier modes (grid has 2K points)"),
    "ref_exp": (int, "ref_exponent", f"reference tau = T*2^-ref_exp (default {SweepConfig.ref_exponent})"),
    "paper": (_parse_bool, None, "full-scale preset: 1024-point grid, nine c values"),
    "out": (_parse_out, None, "output path"),
    "format": (_parse_format, None, "output format: " + " or ".join(FORMATS)),
}


def _flag(key):
    return "--" + key.replace("_", "-")


def _convert(source, key, text):
    try:
        return _SETTINGS[key][0](text)
    except ValueError as exc:
        raise ValueError(f"{source}: bad {key} value {text!r}: {exc}") from None


def _read_config(path):
    """key -> converted value of a flat key=value config file."""
    opts, first = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: bad config line {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in first:
                raise ValueError(f"{path}:{lineno}: repeated config key {key!r} (first at line {first[key]})")
            first[key] = lineno
            opts[key] = _convert(f"{path}:{lineno}", key, value)
    return opts


def _build_config(args):
    """(SweepConfig, output path, output format); flags win over the config
    file, and fields that neither sets keep the SweepConfig defaults.  A value
    its converter rejects raises ValueError naming the file and line, or the
    flag, even where a flag overrides that file value."""
    settings = _read_config(args.config) if args.config else {}
    for key in _SETTINGS:
        value = getattr(args, key)
        if value is not None and value is not False:  # `--paper` is a switch
            settings[key] = _convert(_flag(key), key, value)
    # the full-scale preset uses 1024 grid points (K = 512), i.e. the mesh
    # 2*pi/1024 ~ 0.0061 of the reference study, and the nine standard c
    kw = {"c_list": PAPER_C_LIST, "K": 512} if settings.get("paper") else {}
    kw.update((_SETTINGS[key][1], value) for key, value in settings.items() if _SETTINGS[key][1])
    return SweepConfig(**kw), settings.get("out", "results.csv"), settings.get("format", "csv")


def _cmd_sweep(args) -> int:
    try:
        cfg, out_path, out_format = _build_config(args)
        out_dir = os.path.dirname(out_path) or "."
        if not os.path.isdir(out_dir):
            raise ValueError(f"cannot write results to {out_path}: no directory {out_dir}")
        if os.path.isdir(out_path):
            raise ValueError(f"cannot write results to {out_path}: it is a directory")
    except (ValueError, OSError) as exc:  # OSError: an unreadable config file
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
    # failure message -> its cell count, in row order
    failures = Counter(r.failed for r in table.rows if r.failed is not None)
    if failures:
        print(f"  {sum(failures.values())} cells failed")
        for message, count in failures.items():
            print(f"    {count} cells: {message}")
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
    for key, (parse, _, text) in _SETTINGS.items():
        switch = {"action": "store_true"} if parse is _parse_bool else {}
        ps.add_argument(_flag(key), dest=key, help=text, **switch)
    ps.add_argument("-v", "--verbose", action="store_true")
    ps.set_defaults(func=_cmd_sweep)

    pv = sub.add_parser("verify", help="run the property/oracle suite")
    pv.add_argument("--quick", action="store_true", help="reduced sampling")
    pv.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
