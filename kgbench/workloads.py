"""The benchmark's workloads: seeded inputs, timed bodies and correctness gates.

Each workload has
  body_s                 -> float    (nominal body time: an untraced run of
                                      `seconds` times round(seconds / body_s) bodies)
  build(seed)            -> inputs   (set-up: grids, multiplier sets, initial data)
  run(inputs, op)        -> output   (the timed body; `op(label)` marks one operation)
  check(inputs, output)  -> Check    (operations attempted and failed)
  fingerprint(output)    -> bytes    (the output's numbers, for bitwise comparison)
  facts(output)          -> dict     (the FACTS a workload's output carries)

The package is reached only through its public names (`kguniform.<name>`,
`kguniform.verify.run_all`), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

import kguniform as kg
import kguniform.verify

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "out")

# the numerical contract (ROADMAP): fitted order bands.  Its certificate
# limit, 1e-9, is reference_solution's default tolerance: run_sweep marks
# every cell of a reference above it failed
ORDER_BANDS = {"uei1": (0.85, 1.15), "uei2": (1.8, 2.2)}
# local defect slope floors against the Duhamel oracle
DEFECT_FLOORS = {"uei1_real": 1.8, "uei2": 2.7}

# err_h1 must match the stored value within SWEEP_ERR_RTOL * stored +
# SWEEP_ERR_ATOL.  Results are bitwise stable on one machine; the tolerance
# absorbs FFT/libm rounding differences between platforms, which accumulate
# to ~1e-14 in H^1 over a 4096-step reference (smallest stored error: 4e-10)
SWEEP_ERR_RTOL = 1e-6
SWEEP_ERR_ATOL = 1e-13
# stored H^1 norms of the default-seed trajectories, relative tolerance
TRAJ_NORM_RTOL = 1e-9
# real-data invariants over a trajectory: relative drift of the Klein-Gordon
# energy under uei1_real (at most 2.4e-7 over seeds 0..19) and of the limit
# system's mass under strang (conserved to rounding, since each Strang
# sub-step is unitary; at most 3.2e-13 over seeds 0..19)
UEI1_REAL_ENERGY_DRIFT_MAX = 1e-5
STRANG_MASS_DRIFT_MAX = 1e-11

DEFAULT_SEED = 0

# per-layer figures read off a workload's output rather than its spans
FACTS = ("harness.cells.attempted", "harness.cells.failed", "verify.checks.failed")


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def add(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def nproc() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def smooth_profile(grid, rng, complex_valued: bool, amplitude: float) -> np.ndarray:
    """Random trigonometric polynomial (|k| <= 8) with coefficients decaying
    like exp(-1.3|k|) -- the decay of the paper's profile -- scaled to the
    given maximum modulus."""
    k = grid.wavenumbers
    sel = np.abs(k) <= 8
    coeffs = np.zeros(grid.n_points, dtype=np.complex128)
    draw = rng.standard_normal(int(sel.sum()))
    if complex_valued:
        draw = draw + 1j * rng.standard_normal(int(sel.sum()))
    coeffs[sel] = draw * np.exp(-1.3 * np.abs(k[sel]))
    values = np.fft.ifft(coeffs) * grid.n_points
    if not complex_valued:
        values = values.real
    return amplitude * values / np.max(np.abs(values))


def _state(grid, z, g, c):
    """KgState with z_t = c^2 g, the non-relativistic scaling of the paper."""
    return kg.KgState(
        z=kg.field_from_values(grid, z), zt=kg.field_from_values(grid, c * c * g), t=0.0
    )


# ---------------------------------------------------------------------------
# sweep: `kg-uniform sweep` scaled down


SWEEP = dict(
    schemes=("uei1", "uei2"),
    c_list=(1.0, 100.0, 1e4),
    tau_exponents=tuple(range(4, 11)),
    T=0.1,
    K=256,
    ref_exponent=12,
)


class Sweep:
    name = "sweep"
    body_s = 10.0

    def __init__(self, params=SWEEP, expected=True):
        self.params = params
        self.expected = expected

    def workers(self) -> int:
        return min(2, nproc())

    def build(self, seed):
        # the sweep always integrates the paper's fixed profile; seed unused
        p = self.params
        cfg = kg.SweepConfig(
            schemes=[kg.SchemeId(s) for s in p["schemes"]],
            c_list=list(p["c_list"]),
            tau_exponents=list(p["tau_exponents"]),
            T=p["T"],
            K=p["K"],
            ref_exponent=p["ref_exponent"],
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        expected = None
        if self.expected:
            expected = {
                (r["scheme"], r["c"], r["tau"]): r["err_h1"]
                for r in load_expected()["sweep"]
            }
        return {"cfg": cfg, "expected": expected}

    def run(self, inputs, op):
        with op("sweep"):
            table = kg.run_sweep(inputs["cfg"])
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
                csv_path = os.path.join(tmp, "table.csv")
                json_path = os.path.join(tmp, "table.json")
                kg.emit(table, "csv", csv_path)
                kg.emit(table, "json", json_path)
                back_csv = kg.parse_table(csv_path, "csv")
                back_json = kg.parse_table(json_path, "json")
        return table, back_csv, back_json

    def check(self, inputs, output) -> Check:
        table, back_csv, back_json = output
        expected = inputs["expected"]
        chk = Check()
        orders_ok = {}
        for (scheme, c), order in table.fitted_orders.items():
            lo, hi = ORDER_BANDS[scheme]
            orders_ok[(scheme, c)] = order is not None and lo <= order <= hi
            if not orders_ok[(scheme, c)]:
                chk.notes.append(f"order {scheme} c={c:g}: {order} outside [{lo}, {hi}]")
        if back_json.fitted_orders != table.fitted_orders:
            chk.notes.append("fitted orders changed through JSON")
        for i, r in enumerate(table.rows):
            what = f"cell {r.scheme} c={r.c:g} tau={r.tau:.3e}"
            # a failed reference (certificate above 1e-9) marks its cells failed
            ok = r.failed is None and np.isfinite(r.err) and r.err > 0
            ok = ok and orders_ok.get((r.scheme, r.c), False)
            ok = ok and back_json.fitted_orders == table.fitted_orders
            if expected is not None:
                want = expected.get((r.scheme, r.c, r.tau))
                ok = ok and want is not None and (
                    abs(r.err - want) <= SWEEP_ERR_RTOL * want + SWEEP_ERR_ATOL
                )
            rc, rj = back_csv.rows[i], back_json.rows[i]
            ok = ok and (rc.scheme, rc.c, rc.tau, rc.err, rc.wall_time) == (
                r.scheme, r.c, r.tau, r.err, r.wall_time
            )
            ok = ok and (rj.scheme, rj.c, rj.tau, rj.err, rj.wall_time, rj.failed) == (
                r.scheme, r.c, r.tau, r.err, r.wall_time, r.failed
            )
            chk.add(bool(ok), what)
        return chk

    def fingerprint(self, output) -> bytes:
        table = output[0]
        rows = [(r.scheme, r.c, r.tau, r.err, r.failed) for r in table.rows]
        return repr((rows, sorted(table.fitted_orders.items()))).encode()

    def facts(self, output) -> dict:
        rows = output[0].rows
        return {
            "harness.cells.attempted": float(len(rows)),
            "harness.cells.failed": float(sum(r.failed is not None for r in rows)),
        }

    def record(self, output) -> list:
        return [
            {"scheme": r.scheme, "c": r.c, "tau": r.tau, "err_h1": r.err}
            for r in output[0].rows
        ]


# ---------------------------------------------------------------------------
# trajectory: long evolve runs of the first-order and limit schemes


TRAJECTORY = dict(
    K=64,
    c_list=(1.0, 1e4),
    complex_schemes=("uei1", "lie", "largec"),
    real_schemes=("uei1_real", "strang"),
    steps=8192,
    tau=2.0**-15,
)


class Trajectory:
    name = "trajectory"
    body_s = 5.0

    def __init__(self, params=TRAJECTORY, expected=True):
        self.params = params
        self.expected = expected

    def workers(self) -> int:
        return 1

    def build(self, seed):
        p = self.params
        rng = np.random.default_rng(seed)
        grid = kg.make_grid(1, p["K"])
        cases = []
        for c in p["c_list"]:
            m = kg.make_multipliers(grid, c)
            z = smooth_profile(grid, rng, True, 0.5)
            g = smooth_profile(grid, rng, True, 0.5)
            for real in (False, True):
                s0 = _state(grid, z.real, g.real, c) if real else _state(grid, z, g, c)
                u0, v0 = kg.to_first_order(s0, m)
                pair = kg.twist(u0, v0, 0.0, c)
                schemes = p["real_schemes"] if real else p["complex_schemes"]
                for scheme in schemes:
                    cases.append(
                        {
                            "scheme": scheme,
                            "c": c,
                            "m": m,
                            "pair": pair,
                            "energy0": kg.energy(s0, m) if real else None,
                            "mass0": _mass(pair),
                        }
                    )
        expected = None
        if self.expected and seed == DEFAULT_SEED:
            expected = {
                (r["scheme"], r["c"]): r["h1"] for r in load_expected()["trajectory_seed0"]
            }
        return {"grid": grid, "cases": cases, "expected": expected}

    def run(self, inputs, op):
        p = self.params
        T = p["steps"] * p["tau"]
        finals = []
        for case in inputs["cases"]:
            with op(f"{case['scheme']}:c={case['c']:g}"):
                ctx = kg.StepContext(inputs["grid"], case["m"], p["tau"])
                finals.append(kg.evolve(kg.SchemeId(case["scheme"]), case["pair"], T, ctx))
        return finals

    def check(self, inputs, output) -> Check:
        chk = Check()
        expected = inputs["expected"]
        for case, final in zip(inputs["cases"], output):
            what = f"trajectory {case['scheme']} c={case['c']:g}"
            ok = bool(
                np.all(np.isfinite(final.u_star.coeffs))
                and np.all(np.isfinite(final.v_star.coeffs))
            )
            if ok and case["scheme"] == "uei1_real":
                u, v = kg.untwist(final)
                e1 = kg.energy(kg.from_first_order(u, v, case["m"], t=final.t), case["m"])
                drift = abs(e1 - case["energy0"]) / abs(case["energy0"])
                ok = drift <= UEI1_REAL_ENERGY_DRIFT_MAX
                what += f" energy drift {drift:.2e}"
            if ok and case["scheme"] == "strang":
                drift = abs(_mass(final) - case["mass0"]) / case["mass0"]
                ok = drift <= STRANG_MASS_DRIFT_MAX
                what += f" mass drift {drift:.2e}"
            if ok and expected is not None:
                want = expected[(case["scheme"], case["c"])]
                got = _h1(final)
                ok = abs(got - want) <= TRAJ_NORM_RTOL * want
                what += f" H1 {got!r} vs stored {want!r}"
            chk.add(ok, what)
        return chk

    def fingerprint(self, output) -> bytes:
        return b"".join(f.u_star.coeffs.tobytes() + f.v_star.coeffs.tobytes() for f in output)

    def facts(self, output) -> dict:
        return {}

    def record(self, inputs, output) -> list:
        return [
            {"scheme": case["scheme"], "c": case["c"], "h1": _h1(final)}
            for case, final in zip(inputs["cases"], output)
        ]


def _mass(pair) -> float:
    return float(np.linalg.norm(pair.u_star.coeffs))


def _h1(pair) -> float:
    return kg.sobolev_norm(kg.reconstruct_z(pair), 1.0)


# ---------------------------------------------------------------------------
# oracle: local defects against the Duhamel oracle, then `kg-uniform verify`


ORACLE = dict(
    K=64,
    c_list=(1.0, 100.0, 200.0),
    tau_exponents=tuple(range(6, 13)),
    nodes=64,
    verify_fast=False,
)

# the oracle's inputs are the paper's profile plus a seeded smooth
# perturbation of this relative size.  Fully random smooth data is not used:
# at c = 100 the UEI2 local error constant swings as c^2 tau crosses O(1)
# inside the oracle's tau range, and the fitted slope then dips to 2.65 for
# about one draw in twenty, below the 2.7 floor.
ORACLE_PERTURBATION = 0.25


class Oracle:
    name = "oracle"
    body_s = 4.0

    def __init__(self, params=ORACLE):
        self.params = params

    def workers(self) -> int:
        return 1

    def build(self, seed):
        p = self.params
        rng = np.random.default_rng(seed)
        grid = kg.make_grid(1, p["K"])
        cases = []
        for c in p["c_list"]:
            m = kg.make_multipliers(grid, c)
            paper = kg.paper_initial_data(grid, c)
            z = paper.z.values().real + ORACLE_PERTURBATION * smooth_profile(
                grid, rng, False, 0.5
            )
            g = paper.zt.values().real / (c * c) + ORACLE_PERTURBATION * smooth_profile(
                grid, rng, False, 0.5
            )
            u, _ = kg.to_first_order(_state(grid, z, g, c), m)
            cases.append({"c": c, "m": m, "u": u})
        return {"grid": grid, "cases": cases}

    def run(self, inputs, op):
        p = self.params
        defects = []
        for case in inputs["cases"]:
            row = []
            for me in p["tau_exponents"]:
                tau = 2.0**-me
                with op(f"defect:c={case['c']:g}:tau=2^-{me}"):
                    ctx = kg.StepContext(inputs["grid"], case["m"], tau)
                    u = case["u"]
                    ref = kg.duhamel_oracle_step(u, 0.0, ctx, nodes=p["nodes"])
                    d1 = kg.sobolev_norm(kg.step_uei1_real(u, 0.0, ctx) - ref, 1.0)
                    d2 = kg.sobolev_norm(kg.step_uei2_real(u, 0.0, ctx) - ref, 1.0)
                row.append((tau, d1, d2))
            defects.append(row)
        with op("verify"):
            checks = kguniform.verify.run_all(fast=p["verify_fast"])
        return defects, checks

    def check(self, inputs, output) -> Check:
        defects, checks = output
        chk = Check()
        for case, row in zip(inputs["cases"], defects):
            try:
                s1 = kg.fit_order([(tau, d1) for tau, d1, _ in row])
                s2 = kg.fit_order([(tau, d2) for tau, _, d2 in row])
            except ValueError:  # fewer than three usable defects
                s1 = s2 = float("nan")
            slopes_ok = s1 >= DEFECT_FLOORS["uei1_real"] and s2 >= DEFECT_FLOORS["uei2"]
            for tau, d1, d2 in row:
                # fit_order skips a non-finite or zero defect; its operation fails
                ok = slopes_ok and all(np.isfinite(d) and d > 0 for d in (d1, d2))
                chk.add(ok, f"defect c={case['c']:g} tau={tau:.3e}: {d1:.3e}, {d2:.3e}, "
                            f"slopes {s1:.3f}, {s2:.3f}")
        for res in checks:
            chk.add(bool(res.passed), f"verify {res.name}: {res.detail}")
        return chk

    def fingerprint(self, output) -> bytes:
        defects, checks = output
        return repr((defects, [(r.name, r.passed, r.detail) for r in checks])).encode()

    def facts(self, output) -> dict:
        return {"verify.checks.failed": float(sum(not r.passed for r in output[1]))}


WORKLOADS = {"sweep": Sweep, "trajectory": Trajectory, "oracle": Oracle}
