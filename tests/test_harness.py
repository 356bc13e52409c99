import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from kguniform import (
    SchemeId,
    make_grid,
    paper_initial_data,
    parse_table,
    run_sweep,
    sobolev_norm,
)
from kguniform.cli import main as cli_main
from kguniform.harness import ErrorTable, SweepConfig, SweepRow, emit, fit_order

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# initial data


def test_initial_data_values_at_origin():
    g = make_grid(1, 64)
    s = paper_initial_data(g, 10.0)
    assert abs(s.z.values()[0]) < 1e-14
    assert abs(s.zt.values()[0]) < 1e-14


def test_initial_data_real_and_scaled():
    g = make_grid(1, 64)
    for c in (1.0, 100.0):
        s = paper_initial_data(g, c)
        assert np.max(np.abs(s.z.values().imag)) < 1e-13
        zt = s.zt.values()
        assert np.max(np.abs(zt.imag)) < 1e-13 * max(1.0, np.max(np.abs(zt.real)))
    s1 = paper_initial_data(g, 1.0)
    s100 = paper_initial_data(g, 100.0)
    assert sobolev_norm(s100.zt, 0.0) == pytest.approx(1e4 * sobolev_norm(s1.zt, 0.0), rel=1e-12)


def test_initial_data_spectral_decay():
    g = make_grid(1, 1024)
    s = paper_initial_data(g, 1.0)
    tail = np.abs(g.wavenumbers) >= 200
    assert np.max(np.abs(s.z.coeffs[tail])) <= 1e-12
    assert np.max(np.abs(s.zt.coeffs[tail])) <= 1e-12


# ---------------------------------------------------------------------------
# order fitting


def test_fit_order_exact_powers():
    taus = [2.0**-m for m in range(4, 9)]
    assert fit_order([(t, t) for t in taus]) == pytest.approx(1.0, abs=1e-12)
    assert fit_order([(t, t * t) for t in taus]) == pytest.approx(2.0, abs=1e-12)
    assert fit_order([(t, 3 * t**1.5) for t in taus]) == pytest.approx(1.5, abs=1e-12)


def test_fit_order_insufficient():
    with pytest.raises(ValueError, match="insufficient"):
        fit_order([(0.1, 1e-3), (0.05, 5e-4)])


def test_fit_order_refuses_fits_that_cannot_be_a_slope():
    # three equal tau have no slope, and a tau that is not finite and positive
    # has no log2: each is a ValueError, not a warning, a number or a LinAlgError
    with pytest.raises(ValueError, match="3 distinct tau, got 1"):
        fit_order([(0.1, 1e-3), (0.1, 2e-3), (0.1, 3e-3)])
    with pytest.raises(ValueError, match="3 distinct tau, got 2"):
        fit_order([(0.1, 1e-3), (0.1, 2e-3), (0.05, 3e-4), (0.025, 0.0)])
    for bad in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not finite and positive"):
            fit_order([(0.1, 1e-3), (0.05, 5e-4), (0.025, 2.5e-4), (bad, 1e-4)])


def test_fit_order_matches_polyfit():
    # the closed-form slope against numpy's least squares over the usable
    # points of random ragged data: 3 to 12 points, some of them skipped
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(3, 13))
        taus = 2.0 ** -rng.uniform(2.0, 16.0, n)
        errs = taus ** rng.uniform(0.5, 3.0) * np.exp(rng.normal(0.0, 0.5, n))
        errs[rng.random(n) < 0.15] = rng.choice([0.0, np.nan, np.inf, -1.0])
        keep = np.isfinite(errs) & (errs > 0)
        if keep.sum() < 3:
            continue
        want = np.polyfit(np.log2(taus[keep]), np.log2(errs[keep]), 1)[0]
        assert abs(fit_order(list(zip(taus, errs))) - want) <= 1e-12


# ---------------------------------------------------------------------------
# emit / parse


def _sample_table():
    rows = [
        SweepRow("uei1", 10.0, 0.00625, 3.25e-05, 0.0456),
        SweepRow("uei2", 1.0, 0.00625, 1.5e-06, 0.0123),
    ]
    return ErrorTable(rows=rows, fitted_orders={("uei2", 1.0): 1.98})


def test_emit_golden_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    emit(_sample_table(), "csv", str(out))
    assert out.read_bytes() == (DATA / "golden_sweep.csv").read_bytes()


def test_emit_golden_json(tmp_path):
    out = tmp_path / "sweep.json"
    emit(_sample_table(), "json", str(out))
    assert out.read_bytes() == (DATA / "golden_sweep.json").read_bytes()


def test_roundtrip_csv(tmp_path):
    table = _sample_table()
    path = tmp_path / "t.csv"
    emit(table, "csv", str(path))
    back = parse_table(str(path), "csv")
    assert back.rows == table.rows


def test_roundtrip_json(tmp_path):
    table = _sample_table()
    path = tmp_path / "t.json"
    emit(table, "json", str(path))
    assert parse_table(str(path), "json") == table


def test_emit_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    emit(ErrorTable(rows=[], fitted_orders={}), "csv", str(path))
    assert path.read_text() == "scheme,c,tau,err_h1,wall_time_s\n"


def test_emit_failed_cell_roundtrip(tmp_path):
    table = ErrorTable(
        rows=[SweepRow("uei1", 2.0, 0.01, float("nan"), 0.0, failed="reference bad")],
        fitted_orders={("uei1", 2.0): None},
    )
    path = tmp_path / "f.json"
    emit(table, "json", str(path))
    back = parse_table(str(path), "json")
    assert back.rows[0].failed == "reference bad"
    path_csv = tmp_path / "f.csv"
    emit(table, "csv", str(path_csv))
    assert parse_table(str(path_csv), "csv").rows[0].failed is not None


@pytest.mark.parametrize(
    "text, where",
    [
        ("", ":1: empty CSV"),
        ("\n  \n", ":1: empty CSV"),
        ("scheme,c,tau,err_h1,wall_time_s\nuei1,1.0,0.1,0.5,0.2\nuei1,1.0,0.05\n", ":3: expected 5 fields"),
        ("scheme,c,tau,err_h1,wall_time_s\n\nuei1,1.0,abc,0.5,0.2\n", ":3: could not convert"),
    ],
)
def test_parse_table_rejects_malformed_csv(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"bad.csv{where}"):
        parse_table(str(path), "csv")


def test_parse_table_rejects_unknown_format(tmp_path):
    # emit and parse_table share one set of formats: a JSON table read as
    # "xml" is an error, not a JSON read
    table = ErrorTable(rows=[SweepRow("uei1", 1.0, 0.1, 1e-3, 0.0)], fitted_orders={})
    path = tmp_path / "t.json"
    emit(table, "json", str(path))
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        parse_table(str(path), "xml")


def test_parse_table_rejects_json_row_without_key(tmp_path):
    row = {"scheme": "uei1", "tau": 0.1, "err_h1": 0.5, "wall_time_s": 0.2, "failed": None}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": [row], "fitted_orders": []}))
    with pytest.raises(ValueError, match="bad.json: row 0 has no key 'c'"):
        parse_table(str(path), "json")

    order = {"scheme": "uei1", "c": 1.0}
    for text, where in [
        ("scheme,c,tau", "not a JSON table"),
        (json.dumps({"fitted_orders": []}), "the table has no key 'rows'"),
        (json.dumps({"rows": []}), "the table has no key 'fitted_orders'"),
        (json.dumps({"rows": [], "fitted_orders": [order]}), "fitted order 0 has no key 'order'"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad.json: {where}"):
            parse_table(str(path), "json")


_GOOD_ROW = {"scheme": "uei1", "c": 1.0, "tau": 0.1, "err_h1": 0.5, "wall_time_s": 0.2, "failed": None}
_GOOD_ORDER = {"scheme": "uei1", "c": 1.0, "order": 1.02}


@pytest.mark.parametrize(
    "row, order, where",
    [
        ({"scheme": 1}, {}, "row 0 has scheme 1, expected a string"),
        ({"c": "1.0"}, {}, "row 0 has c '1.0', expected a number"),
        ({"c": True}, {}, "row 0 has c True, expected a number"),
        ({"tau": None}, {}, "row 0 has tau None, expected a number"),
        ({"err_h1": [1]}, {}, r"row 0 has err_h1 \[1\], expected a number"),
        ({"wall_time_s": "x"}, {}, "row 0 has wall_time_s 'x', expected a number"),
        ({"failed": 3}, {}, "row 0 has failed 3, expected a string or null"),
        ({}, {"scheme": None}, "fitted order 0 has scheme None, expected a string"),
        ({}, {"c": "1"}, "fitted order 0 has c '1', expected a number"),
        ({}, {"order": "abc"}, "fitted order 0 has order 'abc', expected a number or null"),
        ({}, {"order": False}, "fitted order 0 has order False, expected a number or null"),
    ],
)
def test_parse_table_rejects_mistyped_json_field(tmp_path, row, order, where):
    path = tmp_path / "bad.json"
    table = {"rows": [_GOOD_ROW | row], "fitted_orders": [_GOOD_ORDER | order]}
    path.write_text(json.dumps(table))
    with pytest.raises(ValueError, match=f"bad.json: {where}$"):
        parse_table(str(path), "json")


@pytest.mark.parametrize(
    "table, where",
    [
        ({"rows": [[1]], "fitted_orders": []}, r"row 0 is \[1\], expected an object"),
        ({"rows": 5, "fitted_orders": []}, "the table has rows 5, expected an array"),
        ([], r"the table is \[\], expected an object"),
        ("x", "the table is 'x', expected an object"),
        ({"rows": [], "fitted_orders": [5]}, "fitted order 0 is 5, expected an object"),
        ({"rows": [], "fitted_orders": 3}, "the table has fitted_orders 3, expected an array"),
    ],
)
def test_parse_table_rejects_malformed_json_structure(tmp_path, table, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(table))
    with pytest.raises(ValueError, match=f"bad.json: {where}$"):
        parse_table(str(path), "json")


def test_parse_table_reads_json_nan_and_null(tmp_path):
    # a failed cell's NaN error and a fit's NaN or null order are valid fields
    path = tmp_path / "t.json"
    rows = [SweepRow("uei1", 1.0, 0.1, math.nan, 0.2, failed="reference bad")]
    fitted = {("uei1", 1.0): math.nan, ("uei2", 1.0): None}
    emit(ErrorTable(rows=rows, fitted_orders=fitted), "json", str(path))
    back = parse_table(str(path), "json")
    assert math.isnan(back.rows[0].err) and back.rows[0].failed == "reference bad"
    assert math.isnan(back.fitted_orders["uei1", 1.0]) and back.fitted_orders["uei2", 1.0] is None


def test_emit_bad_path():
    with pytest.raises(OSError, match="no/such/dir"):
        emit(_sample_table(), "csv", "/no/such/dir/out.csv")


def test_emit_bad_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        emit(_sample_table(), "xml", str(tmp_path / "x"))


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="T"):
        SweepConfig(T=-1.0)
    with pytest.raises(ValueError, match="nonempty"):
        SweepConfig(tau_exponents=[])
    with pytest.raises(ValueError, match="positive"):
        SweepConfig(c_list=[1.0, -2.0])
    # a repeated cell would enter its order fit twice
    with pytest.raises(ValueError, match=r"^repeated c 1\.0$"):
        SweepConfig(c_list=[1.0, 10.0, 1.0])
    with pytest.raises(ValueError, match=r"^repeated scheme 'uei1'$"):
        SweepConfig(schemes=[SchemeId.UEI1, SchemeId.UEI2_REAL, SchemeId.UEI1])
    with pytest.raises(ValueError, match=r"^repeated tau exponent 5$"):
        SweepConfig(tau_exponents=[4, 5, 6, 5])
    # the ends of c's range: 4 c^2 = 1e308 is finite and c^2 = 1e-300 is
    # normal, and both sweep cleanly
    SweepConfig(c_list=[5e153, 1e-150])


def test_sweep_config_rejects_empty_scheme_and_c_lists():
    # an empty list would give a sweep of no cells, as an empty tau list would
    with pytest.raises(ValueError, match=r"^scheme list must be nonempty$"):
        SweepConfig(schemes=[], c_list=[1.0], tau_exponents=[4, 5, 6], K=16, ref_exponent=6)
    with pytest.raises(ValueError, match=r"^c list must be nonempty$"):
        SweepConfig(schemes=[SchemeId.UEI1], c_list=[], tau_exponents=[4, 5, 6], K=16, ref_exponent=6)


def _slope_stderr(points):
    lt = np.log2([p[0] for p in points])
    le = np.log2([p[1] for p in points])
    slope, icpt = np.polyfit(lt, le, 1)
    resid = le - (slope * lt + icpt)
    return float(np.sqrt(np.sum(resid**2) / (len(lt) - 2) / np.sum((lt - lt.mean()) ** 2)))


def test_small_sweep_orders_and_completeness():
    cfg = SweepConfig(
        schemes=[SchemeId.UEI2_REAL],
        c_list=[1.0],
        tau_exponents=list(range(4, 11)),
        K=64,
        ref_exponent=13,
    )
    table = run_sweep(cfg)
    assert len(table.rows) == 7
    assert all(r.failed is None for r in table.rows)
    assert all(r.err >= 0 for r in table.rows)
    order = table.fitted_orders[("uei2", 1.0)]
    assert 1.7 <= order <= 2.3

    # refining the tau list must not widen the fitted-order error bar
    rows = {round(np.log2(0.1 / r.tau)): (r.tau, r.err) for r in table.rows}
    coarse = [rows[m] for m in (4, 6, 8, 10)]
    dense = [rows[m] for m in range(4, 11)]
    assert _slope_stderr(dense) <= _slope_stderr(coarse) + 1e-12


def test_sweep_marks_unreliable_reference():
    # a reference at tau_ref = T/4 cannot certify itself
    cfg = SweepConfig(
        schemes=[SchemeId.UEI1],
        c_list=[1.0],
        tau_exponents=[4, 5, 6],
        K=32,
        ref_exponent=2,
    )
    table = run_sweep(cfg)
    assert all(r.failed is not None for r in table.rows)
    assert np.isnan(table.rows[0].err)
    assert table.fitted_orders[("uei1", 1.0)] is None


def test_sweep_records_blown_up_cell(monkeypatch):
    # one cell starts from data a thousand times the standard size and blows
    # up; it fails with the evolve error instead of leaving a NaN error
    import kguniform.harness as harness_mod
    from kguniform.model import TwistedPair

    real_evolve = harness_mod.evolve
    bad_tau = 0.1 * 2.0**-4

    def evolve_with_one_unstable_cell(scheme, state, T, ctx):
        if ctx.tau == bad_tau:
            state = TwistedPair(1e3 * state.u_star, 1e3 * state.v_star, state.t, state.c)
        return real_evolve(scheme, state, T, ctx)

    monkeypatch.setattr(harness_mod, "evolve", evolve_with_one_unstable_cell)
    cfg = SweepConfig(
        schemes=[SchemeId.UEI1], c_list=[1.0], tau_exponents=[4, 5, 6, 7], K=16, ref_exponent=12
    )
    with np.errstate(over="ignore", invalid="ignore"):
        table = run_sweep(cfg)
    bad = [r for r in table.rows if r.tau == bad_tau]
    assert len(bad) == 1
    assert "uei1 state is not finite at step 16 of 16" in bad[0].failed
    assert "c=1.0" in bad[0].failed and f"tau={bad_tau!r}" in bad[0].failed
    assert np.isnan(bad[0].err)
    assert all(r.failed is None and np.isfinite(r.err) for r in table.rows if r.tau != bad_tau)
    assert table.fitted_orders[("uei1", 1.0)] is not None


def test_sweep_rows_do_not_depend_on_worker_count(monkeypatch):
    # rows and orders of a pool of one equal the default pool's bitwise,
    # including a reference that fails its certificate and a blown-up cell,
    # whose messages come back from the workers
    import kguniform.harness as harness_mod
    from kguniform.model import TwistedPair

    real_evolve, real_reference = harness_mod.evolve, harness_mod.reference_solution
    bad_c, bad_tau = 100.0, 0.1 * 2.0**-4

    def evolve_with_one_unstable_cell(scheme, state, T, ctx):
        if ctx.tau == bad_tau and state.c == 1.0:
            state = TwistedPair(1e3 * state.u_star, 1e3 * state.v_star, state.t, state.c)
        return real_evolve(scheme, state, T, ctx)

    def reference_too_coarse_at_bad_c(s0, T, m, tau_ref=None):
        # a reference at tau_ref = T/4 cannot certify itself
        return real_reference(s0, T, m, tau_ref=T / 4 if m.c == bad_c else tau_ref)

    monkeypatch.setattr(harness_mod, "evolve", evolve_with_one_unstable_cell)
    monkeypatch.setattr(harness_mod, "reference_solution", reference_too_coarse_at_bad_c)
    cfg = SweepConfig(
        schemes=[SchemeId.UEI1, SchemeId.UEI2_REAL],
        c_list=[1.0, bad_c, 1e4],
        tau_exponents=[4, 5, 6, 7],
        K=16,
        ref_exponent=11,
    )

    def outcome():
        with np.errstate(over="ignore", invalid="ignore"):
            table = run_sweep(cfg)
        rows = [(r.scheme, r.c, r.tau, r.err, r.failed) for r in table.rows]
        return repr((rows, sorted(table.fitted_orders.items())))

    pooled = outcome()
    monkeypatch.setattr(harness_mod, "_worker_count", lambda: 1)
    assert outcome() == pooled
    assert "exceeds 1.0e-09 (c=100.0" in pooled
    assert "uei1 state is not finite at step 16 of 16 (c=1.0" in pooled
    assert "uei2 state is not finite at step 16 of 16 (c=1.0" in pooled


def test_spawned_sweep_matches_forked_sweep(monkeypatch):
    # where the platform has no fork the pool spawns its workers, which get
    # their inputs pickled through the initializer; rows (apart from their
    # wall times) and fitted orders equal the forked pool's bitwise
    import multiprocessing

    cfg = SweepConfig(schemes=[SchemeId.UEI1, SchemeId.UEI2_REAL], c_list=[1.0, 100.0],
                      tau_exponents=[4, 5, 6], K=16, ref_exponent=11)
    methods = []
    get_context = multiprocessing.get_context

    def recording_get_context(method=None):
        methods.append(method)
        return get_context(method)

    def outcome():
        table = run_sweep(cfg)
        assert all(r.failed is None for r in table.rows)
        assert None not in table.fitted_orders.values()
        rows = [(r.scheme, r.c, r.tau, r.err, r.failed) for r in table.rows]
        return repr((rows, sorted(table.fitted_orders.items())))

    monkeypatch.setattr(multiprocessing, "get_context", recording_get_context)
    forked = outcome()
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert outcome() == forked
    assert methods == ["fork", "spawn"]


def test_failed_reference_cancels_its_cells(monkeypatch):
    # on a pool of one, a reference that fails at once cancels the results of
    # its c's cells: every row reports its failure and a NaN error, while each
    # cell still runs and reports its own evolve time
    import kguniform.harness as harness_mod
    from kguniform.integrators import ReferenceUnreliableError

    def failing_reference(s0, T, m, tau_ref=None):
        raise ReferenceUnreliableError(f"certificate too large (c={m.c})")

    monkeypatch.setattr(harness_mod, "reference_solution", failing_reference)
    monkeypatch.setattr(harness_mod, "_worker_count", lambda: 1)
    cfg = SweepConfig(schemes=[SchemeId.UEI1, SchemeId.UEI2_REAL], c_list=[1.0],
                      tau_exponents=[4, 5, 6, 7, 8, 9], K=16, ref_exponent=11)
    table = run_sweep(cfg)
    assert len(table.rows) == 12
    for r in table.rows:
        assert r.failed == "certificate too large (c=1.0)" and np.isnan(r.err)
        assert r.wall_time > 0.0
    assert table.fitted_orders[("uei1", 1.0)] is None
    assert table.fitted_orders[("uei2", 1.0)] is None


def test_failed_reference_of_a_later_c_cancels_only_its_cells(monkeypatch):
    # on a pool of one, c = 100's failed reference is read after c = 1's
    # success and before most cells start; it cancels the results of c = 100's
    # cells only: each fails with its message and a NaN error, still runs and
    # reports its own evolve time, and c = 1's rows are an unpatched run's
    import kguniform.harness as harness_mod
    from kguniform.integrators import ReferenceUnreliableError

    real_reference = harness_mod.reference_solution

    def reference_failing_at_c_100(s0, T, m, tau_ref=None):
        if m.c == 100.0:
            raise ReferenceUnreliableError("certificate too large (c=100.0)")
        return real_reference(s0, T, m, tau_ref=tau_ref)

    monkeypatch.setattr(harness_mod, "_worker_count", lambda: 1)
    cfg = SweepConfig(schemes=[SchemeId.UEI1, SchemeId.UEI2_REAL], c_list=[1.0, 100.0],
                      tau_exponents=[4, 5, 6, 7, 8, 9], K=16, ref_exponent=11)

    def rows_at(table, c):
        return [(r.scheme, r.c, r.tau, r.err, r.failed) for r in table.rows if r.c == c]

    clean = run_sweep(cfg)
    monkeypatch.setattr(harness_mod, "reference_solution", reference_failing_at_c_100)
    table = run_sweep(cfg)
    failed = [r for r in table.rows if r.c == 100.0]
    assert len(failed) == 12
    for r in failed:
        assert r.failed == "certificate too large (c=100.0)" and np.isnan(r.err)
        assert r.wall_time > 0.0
    assert rows_at(table, 1.0) == rows_at(clean, 1.0)
    assert all(failure is None for *_, failure in rows_at(table, 1.0))
    assert table.fitted_orders[("uei1", 100.0)] is None
    assert table.fitted_orders[("uei2", 100.0)] is None


def test_sweep_tasks_do_not_carry_the_inputs(monkeypatch):
    # the pool's workers inherit the multipliers and initial states once,
    # through the initializer; every task names its c and pickles small
    import concurrent.futures
    import pickle

    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, *args):
            sizes.append(len(pickle.dumps((fn, args))))
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = SweepConfig(schemes=[SchemeId.UEI1], c_list=[1.0, 10.0], tau_exponents=[4, 5, 6],
                      K=16, ref_exponent=11)
    table = run_sweep(cfg)
    assert len(sizes) == 2 + 6
    assert max(sizes) < 200
    assert all(r.failed is None for r in table.rows)


def _requires_fork():
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("a spawned worker need not see a monkeypatched module")


def test_sweep_converts_the_initial_states_in_the_parent(monkeypatch):
    # the parent builds each c's twisted initial pair once and the workers
    # only read it: a worker that converts a state itself raises here
    import os

    import kguniform.harness as harness_mod

    _requires_fork()
    parent, real_convert = os.getpid(), harness_mod.to_first_order
    converted = []

    def convert_in_parent_only(s, m):
        if os.getpid() != parent:
            raise AssertionError(f"a worker converted the initial state of c={m.c}")
        converted.append(m.c)
        return real_convert(s, m)

    monkeypatch.setattr(harness_mod, "to_first_order", convert_in_parent_only)
    cfg = SweepConfig(schemes=[SchemeId.UEI1, SchemeId.UEI2_REAL], c_list=[1.0, 100.0],
                      tau_exponents=[4, 5, 6], K=16, ref_exponent=11)
    table = run_sweep(cfg)
    assert converted == [1.0, 100.0]
    assert len(table.rows) == 12
    assert all(r.failed is None for r in table.rows)


def test_sweep_propagates_other_errors(monkeypatch):
    # an error that is neither an unreliable reference nor a blow-up comes
    # back from its worker as a RuntimeError naming its cell, chained to it
    import kguniform.harness as harness_mod

    def broken_evolve(scheme, state, T, ctx):
        raise ValueError(f"broken evolve at tau={ctx.tau!r}")

    monkeypatch.setattr(harness_mod, "evolve", broken_evolve)
    cfg = SweepConfig(schemes=[SchemeId.UEI1], c_list=[1.0], tau_exponents=[4, 5, 6], K=16,
                      ref_exponent=11)
    with pytest.raises(RuntimeError) as info:
        run_sweep(cfg)
    assert str(info.value) == "cell uei1 c=1.0 tau=0.00625: ValueError: broken evolve at tau=0.00625"
    assert isinstance(info.value.__cause__, ValueError)
    assert str(info.value.__cause__) == "broken evolve at tau=0.00625"


def test_sweep_names_the_reference_of_an_error(monkeypatch):
    # an error in a reference task other than an unreliable certificate
    # names the reference's c
    import kguniform.harness as harness_mod

    real_reference = harness_mod.reference_solution

    def reference_broken_at_c_100(s0, T, m, tau_ref=None):
        if m.c == 100.0:
            raise ZeroDivisionError("broken reference")
        return real_reference(s0, T, m, tau_ref=tau_ref)

    monkeypatch.setattr(harness_mod, "reference_solution", reference_broken_at_c_100)
    cfg = SweepConfig(schemes=[SchemeId.UEI1], c_list=[1.0, 100.0], tau_exponents=[4, 5, 6],
                      K=16, ref_exponent=11)
    with pytest.raises(RuntimeError, match=r"^reference c=100\.0: ZeroDivisionError: broken reference$") as info:
        run_sweep(cfg)
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_sweep_fails_the_rows_a_lost_worker_leaves(monkeypatch, tmp_path, capsys):
    # on a pool of one, a worker that dies in one cell breaks the pool: the
    # rows finished before it are an unpatched run's, bitwise, and that cell
    # and every later one fail naming their task; the CLI writes the table
    # and exits 1
    import os

    import kguniform.harness as harness_mod

    _requires_fork()
    real_evolve, bad_tau = harness_mod.evolve, 0.1 * 2.0**-5

    def evolve_dying_at_one_cell(scheme, state, T, ctx):
        if scheme is SchemeId.UEI2_REAL and state.c == 1.0 and ctx.tau == bad_tau:
            os._exit(1)
        return real_evolve(scheme, state, T, ctx)

    monkeypatch.setattr(harness_mod, "_worker_count", lambda: 1)
    cfg = SweepConfig(schemes=[SchemeId.UEI1, SchemeId.UEI2_REAL], c_list=[1.0, 100.0],
                      tau_exponents=[4, 5, 6], K=16, ref_exponent=11)

    def rows(table):
        return [(r.scheme, r.c, r.tau, r.err, r.failed) for r in table.rows]

    clean = rows(run_sweep(cfg))
    monkeypatch.setattr(harness_mod, "evolve", evolve_dying_at_one_cell)
    lost = rows(run_sweep(cfg))
    # rows in submission order: uei1 at c = 1 and 100, then uei2 at c = 1
    assert lost[:7] == clean[:7]
    assert lost[7][:3] == ("uei2", 1.0, bad_tau)
    for scheme, c, tau, err, failure in lost[7:]:
        assert failure == f"worker process died (cell {scheme} c={c} tau={tau})"
        assert np.isnan(err)

    out = tmp_path / "res.csv"
    argv = ["sweep", "--schemes", "uei1,uei2", "--c", "1,100", "--tau-exp", "4..6", "--K", "16",
            "--ref-exp", "11", "--out", str(out)]
    assert cli_main(argv) == 1
    assert len(parse_table(str(out), "csv").rows) == 12
    printed = capsys.readouterr().out.splitlines()
    assert "  5 cells failed" in printed
    assert f"    1 cells: worker process died (cell uei2 c=1.0 tau={bad_tau})" in printed


def test_sweep_ends_when_a_worker_dies_after_a_failed_reference(tmp_path):
    # on a pool of two, c = 1's reference fails at once and c = 100's worker
    # dies at 0.3 s, while most cells (each sleeps 0.2 s first) are pending;
    # the sweep returns its rows and its process exits
    import os
    import signal
    import subprocess
    import sys
    import textwrap

    import kguniform

    _requires_fork()
    script = tmp_path / "lost_worker.py"
    script.write_text(textwrap.dedent("""\
        import os, time
        import kguniform.harness as h
        from kguniform.integrators import ReferenceUnreliableError, SchemeId

        real_evolve = h.evolve

        def reference(pair0, T, m, tau_ref=None):
            if m.c == 1.0:
                raise ReferenceUnreliableError("certificate too large (c=1.0)")
            time.sleep(0.3)
            os._exit(1)

        def evolve(*args):
            time.sleep(0.2)
            return real_evolve(*args)

        h.reference_solution, h.evolve, h._worker_count = reference, evolve, lambda: 2
        cfg = h.SweepConfig(schemes=[SchemeId.UEI1, SchemeId.UEI2_REAL], c_list=[1.0, 100.0],
                            tau_exponents=[4, 5, 6, 7], K=16, ref_exponent=11)
        table = h.run_sweep(cfg)
        for r in table.rows:
            print(r.failed)
        for (scheme, c), order in table.fitted_orders.items():
            print("order", scheme, c, order)
    """))
    src = os.path.dirname(os.path.dirname(kguniform.__file__))
    proc = subprocess.Popen(
        [sys.executable, str(script)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src}, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=15)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the script and its workers
        proc.communicate()
        pytest.fail("the sweep's process hung after its worker died")
    assert proc.returncode == 0, err
    lines = out.splitlines()
    failures, orders = lines[:16], lines[16:]
    assert len(failures) == 16
    assert failures.count("certificate too large (c=1.0)") == 8
    assert failures.count("worker process died (reference c=100.0)") == 8
    # a failed or lost reference leaves no fitted order for its c
    assert orders == [f"order {s} {c} None" for s in ("uei1", "uei2") for c in (1.0, 100.0)]


def test_sweep_rejects_bad_grid_before_starting_workers(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("process pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError, match="invalid grid size K=0"):
        run_sweep(SweepConfig(K=0))
    cfg = SweepConfig(c_list=[1.0], K=16)
    cfg.c_list = [1.0, 0.0]  # past SweepConfig's own check
    with pytest.raises(ValueError, match="invalid parameter c=0.0"):
        run_sweep(cfg)
    # each of these would otherwise fail only inside a worker, after work began
    for bad, match in (
        (dict(tau_exponents=[-1, 2, 3]), "need tau exponents >= 0 and ref_exponent >= 1"),
        (dict(ref_exponent=0), "need tau exponents >= 0 and ref_exponent >= 1"),
        (dict(tau_exponents=[4, 4.5]), "ref_exponent >= 1, all integers"),
        (dict(ref_exponent=8.5), "ref_exponent >= 1, all integers"),
        (dict(T=float("nan")), "T must be finite, got T=nan"),
        (dict(c_list=[1.0, float("inf")]), r"c must be finite, got c=\[1\.0, inf\]"),
        (dict(c_list=[float("nan")]), r"c must be finite, got c=\[nan\]"),
        (dict(schemes=["uei1"]), "unknown scheme 'uei1'; need a SchemeId"),
    ):
        with pytest.raises(ValueError, match=match):
            run_sweep(SweepConfig(**{"K": 8, "c_list": [1.0], **bad}))
    cfg.c_list = [1.0, float("nan")]
    with pytest.raises(ValueError, match="invalid parameter c=nan; need finite c > 0"):
        run_sweep(cfg)


# ---------------------------------------------------------------------------
# CLI


def test_cli_sweep_and_config_override(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(
        "schemes = uei2\nc = 1\ntau_exp = 4..7\nK = 32\nref_exp = 11\n"
        "out = UNUSED.csv  # flag wins\nformat = csv\n"
    )
    out = tmp_path / "res.csv"
    rc = cli_main(["sweep", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 0
    table = parse_table(str(out), "csv")
    assert len(table.rows) == 4
    assert {r.scheme for r in table.rows} == {"uei2"}


def test_cli_sweep_failure_exit_code(tmp_path):
    out = tmp_path / "res.csv"
    rc = cli_main(
        [
            "sweep",
            "--schemes", "uei1",
            "--c", "1",
            "--tau-exp", "4..6",
            "--K", "32",
            "--ref-exp", "2",
            "--out", str(out),
        ]
    )
    assert rc == 1


def test_cli_verbose_reports_each_reference_in_order(tmp_path, capsys):
    out = tmp_path / "res.csv"
    argv = ["sweep", "--schemes", "uei1", "--c", "100,1", "--tau-exp", "4..6", "--K", "16",
            "--ref-exp", "10", "--out", str(out)]
    cli_main(argv + ["-v"])
    lines = capsys.readouterr().out.splitlines()
    # both certificates fail at this depth, and each failure is printed once
    fail_100 = "reference self-convergence certificate 1.412e-09 exceeds 1.0e-09 (c=100.0, tau_ref=9.766e-05)"
    fail_1 = "reference self-convergence certificate 1.410e-09 exceeds 1.0e-09 (c=1.0, tau_ref=9.766e-05)"
    assert lines[:3] == [f"reference c=100.0 failed: {fail_100}", f"reference c=1.0 failed: {fail_1}",
                         f"wrote 6 rows to {out} [csv]"]
    assert lines[-3:] == ["  6 cells failed", f"    3 cells: {fail_100}", f"    3 cells: {fail_1}"]
    cli_main(argv)
    assert not any(ln.startswith("reference") for ln in capsys.readouterr().out.splitlines())


def test_cli_verbose_reports_each_reference_wall_time(tmp_path, capsys):
    # a reference that passes prints its own wall time in the worker
    out = tmp_path / "res.csv"
    argv = ["sweep", "--schemes", "uei1", "--c", "100,1", "--tau-exp", "4..6", "--K", "16",
            "--ref-exp", "11", "--out", str(out), "-v"]
    assert cli_main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    done = [re.fullmatch(r"reference c=(\S+) done in \d+\.\d{3} s", ln) for ln in lines[:2]]
    assert [m and m.group(1) for m in done] == ["100.0", "1.0"]
    assert lines[2] == f"wrote 6 rows to {out} [csv]"


def test_cli_verify_quick():
    assert cli_main(["verify", "--quick"]) == 0


def test_cli_out_of_band_order_fails(tmp_path, monkeypatch):
    # an order-checked scheme whose fitted slope misses its band -> exit 1
    import kguniform.cli as cli_mod

    stub = ErrorTable(
        rows=[SweepRow("uei2", 1.0, 0.1 * 2.0**-m, 1e-4 * 2.0**-m, 0.0) for m in (4, 5, 6)],
        fitted_orders={("uei2", 1.0): 1.0},
    )
    monkeypatch.setattr(cli_mod, "run_sweep", lambda cfg, progress=None: stub)
    rc = cli_main(
        ["sweep", "--schemes", "uei2", "--c", "1", "--tau-exp", "4..6",
         "--out", str(tmp_path / "o.csv")]
    )
    assert rc == 1


def _assert_usage_error(monkeypatch, capsys, argv, match):
    # exit status 2 and one stderr line naming the error, before any sweep work
    import kguniform.cli as cli_mod

    def no_sweep(cfg, progress=None):
        raise AssertionError("the sweep ran before its configuration was checked")

    monkeypatch.setattr(cli_mod, "run_sweep", no_sweep)
    with pytest.raises(SystemExit) as info:
        cli_main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("kg-uniform sweep: error: ")
    assert re.search(match, err[0])


@pytest.mark.parametrize(
    "text, match",
    [
        ("c = 1\ntau_exps = 4..5\n", r"sweep.cfg:2: unknown config key 'tau_exps'"),
        ("c = 1\nformat = xml\n", r"sweep.cfg:2: bad format value 'xml': unknown format 'xml'"),
        # the error norm is H^1 alone: there is no order key
        ("c = 1\nr = 2\n", r"sweep.cfg:2: unknown config key 'r'"),
    ],
)
def test_cli_rejects_bad_config_file_before_running(tmp_path, monkeypatch, capsys, text, match):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(text)
    _assert_usage_error(
        monkeypatch, capsys, ["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")],
        match,
    )


@pytest.mark.parametrize(
    "flag, match",
    [
        (["--T", "0"], r"T must be positive$"),
        (["--ref-exp", "0"], r"need tau exponents >= 0 and ref_exponent >= 1"),
        (["--K", "0"], r"invalid grid size K=0; need K >= 2$"),
        (["--T", "nan"], r"T must be finite, got T=nan$"),
        (["--c", "inf"], r"c must be finite, got c=\[inf\]$"),
        (["--c", "1,1"], r"repeated c 1\.0$"),
        # a value that does not parse names its flag
        (["--K", "abc"], r"error: --K: bad K value 'abc': invalid literal for int"),
        (["--c", "1,x"], r"error: --c: bad c value '1,x': could not convert string to float: 'x'$"),
        (["--tau-exp", "4..x"], r"error: --tau-exp: bad tau_exp value '4..x': invalid literal"),
        (["--format", "xml"], r"error: --format: bad format value 'xml': unknown format 'xml'"),
        # a step that underflows to a subnormal or zero
        (["--ref-exp", "1100"], r"step T \* 2\^-1100 underflows"),
        (["--tau-exp", "1100"], r"step T \* 2\^-1100 underflows"),
        (["--T", "1e-320"], r"step T \* 2\^-14 underflows"),
        # a range with more than two bounds
        (["--tau-exp", "4..6..8"], r"'4\.\.6\.\.8': expected a range m\.\.n or a comma list$"),
        # a c whose 4 c^2 overflows or whose c^2 underflows
        (["--c", "1e200"], r"c=1e\+200 is out of range; need a normal c\^2 and a finite 4 c\^2$"),
        (["--c", "1e154"], r"c=1e\+154 is out of range"),
        (["--c", "1e-160"], r"c=1e-160 is out of range"),
    ],
)
def test_cli_reports_invalid_values_as_usage_errors(tmp_path, monkeypatch, capsys, flag, match):
    _assert_usage_error(
        monkeypatch, capsys, ["sweep", "--c", "1", *flag, "--out", str(tmp_path / "x.csv")], match
    )


def test_cli_rejects_missing_output_directory_before_running(tmp_path, monkeypatch, capsys):
    out = tmp_path / "missing" / "x.csv"
    _assert_usage_error(
        monkeypatch, capsys, ["sweep", "--c", "1", "--out", str(out)],
        re.escape(f"error: cannot write results to {out}: no directory {out.parent}") + "$",
    )


@pytest.mark.parametrize("name", ["missing.cfg", "cfgdir", "utf16.cfg"])
def test_cli_rejects_unreadable_config_file_before_running(tmp_path, monkeypatch, capsys, name):
    # a config file that does not exist, a directory, or one that is not
    # UTF-8 (it starts with a UTF-16 byte order mark) names itself
    (tmp_path / "cfgdir").mkdir()
    (tmp_path / "utf16.cfg").write_bytes(b"\xff\xfec\x00 \x00=\x00 \x001\x00\n\x00")
    cfgfile = tmp_path / name
    _assert_usage_error(
        monkeypatch, capsys, ["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")],
        re.escape(repr(str(cfgfile))) + "$",
    )


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_rejects_empty_output_path_before_running(tmp_path, monkeypatch, capsys, source):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("c = 1\nout =\n")
    argv, where = ["--c", "1", "--out", ""], "--out"
    if source == "config":
        argv, where = ["--config", str(cfgfile)], f"{cfgfile}:2"
    _assert_usage_error(
        monkeypatch, capsys, ["sweep", *argv],
        re.escape(f"error: {where}: bad out value '': the output path is empty") + "$",
    )


def test_cli_rejects_output_directory_before_running(tmp_path, monkeypatch, capsys):
    out = tmp_path / "results"
    out.mkdir()
    _assert_usage_error(
        monkeypatch, capsys, ["sweep", "--c", "1", "--out", str(out)],
        re.escape(f"error: cannot write results to {out}: it is a directory") + "$",
    )


def test_cli_reports_unwritable_table_as_usage_error(tmp_path, monkeypatch, capsys):
    # a dangling link into a missing directory passes the checks before the
    # sweep, so only the write fails: one stderr line and exit 2, no traceback
    import kguniform.cli as cli_mod

    out = tmp_path / "x.csv"
    try:
        out.symlink_to(tmp_path / "missing" / "x.csv")
    except OSError:
        pytest.skip("no symbolic links here")
    stub = ErrorTable(rows=[SweepRow("uei1", 1.0, 0.1 * 2.0**-4, 1e-3, 0.0)], fitted_orders={})
    monkeypatch.setattr(cli_mod, "run_sweep", lambda cfg, progress=None: stub)
    with pytest.raises(SystemExit) as info:
        cli_main(["sweep", "--schemes", "uei1", "--c", "1", "--out", str(out)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"kg-uniform sweep: error: cannot write table to {out}: ")
    assert "wrote" not in captured.out


def test_cli_config_comments_start_at_line_start_or_after_whitespace(tmp_path):
    # a `#` inside a value is part of it; `# ...` lines and `  # ...` tails are comments
    from kguniform.cli import _read_config

    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("# sweep\nK = 8  # grid\nout = run#2.csv\n  # indented\nformat = json\t# tab\n")
    assert _read_config(cfgfile) == {"K": 8, "out": "run#2.csv", "format": "json"}


def _config_file_args(cfgfile):
    # parsed `sweep` arguments with a config file and no flags
    import argparse

    return argparse.Namespace(
        config=str(cfgfile), schemes=None, c=None, tau_exp=None, T=None, K=None,
        ref_exp=None, paper=False, out=None, format=None,
    )


@pytest.mark.parametrize(
    "line, match",
    [
        ("K = abc", r"sweep.cfg:3: bad K value 'abc': invalid literal for int"),
        ("c = 1,x", r"sweep.cfg:3: bad c value '1,x': could not convert"),
        ("tau_exp = 4..x", r"sweep.cfg:3: bad tau_exp value '4..x': invalid literal"),
        ("schemes = uei3", r"sweep.cfg:3: bad schemes value 'uei3': unknown scheme"),
        ("T = soon", r"sweep.cfg:3: bad T value 'soon'"),
        ("paper = on", r"sweep.cfg:3: bad paper value 'on': expected one of"),
    ],
)
def test_cli_config_value_errors_name_file_and_line(tmp_path, line, match):
    from kguniform.cli import _build_config

    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(f"# sweep\nref_exp = 8\n{line}\n")
    args = _config_file_args(cfgfile)
    with pytest.raises(ValueError, match=match):
        _build_config(args)
    # a flag that overrides the file value does not hide it
    key = line.split("=")[0].strip()
    setattr(args, key, {"K": "8", "c": "1", "tau_exp": "4..6", "schemes": "uei1", "T": "0.1",
                        "paper": True}[key])
    with pytest.raises(ValueError, match=match):
        _build_config(args)


@pytest.mark.parametrize(
    "value, paper",
    [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)],
)
def test_cli_config_paper_booleans(tmp_path, value, paper):
    from kguniform.cli import _build_config

    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(f"paper = {value}\n")
    cfg, _, _ = _build_config(_config_file_args(cfgfile))
    assert (cfg.K == 512) is paper


def test_cli_rejects_repeated_config_key(tmp_path, monkeypatch, capsys):
    # a second `K = ...` line is a usage error, not a silent override
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("K = 16\nc = 1\nK = 32\n")
    _assert_usage_error(
        monkeypatch, capsys, ["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")],
        re.escape(f"error: {cfgfile}:3: repeated config key 'K' (first at line 1)") + "$",
    )


def test_cli_sweep_flags_are_the_settings(monkeypatch):
    # the sweep parser has one flag per _SETTINGS key, spelled by _flag and
    # stored under the key, beside its own -h, --config and -v
    import argparse

    from kguniform.cli import _SETTINGS, _flag

    parsers = []

    def record(self, args=None, namespace=None):
        parsers.append(self)
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", record)
    with pytest.raises(SystemExit):
        cli_main(["sweep"])
    (top,) = parsers
    (sub,) = (a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices["sweep"]._actions
    assert [(tuple(a.option_strings), a.dest) for a in actions] == [
        (("-h", "--help"), "help"),
        (("--config",), "config"),
        *(((_flag(key),), key) for key in _SETTINGS),
        (("-v", "--verbose"), "verbose"),
    ]


def test_cli_rejects_unknown_scheme(tmp_path, monkeypatch, capsys):
    _assert_usage_error(
        monkeypatch, capsys, ["sweep", "--schemes", "rk4", "--out", str(tmp_path / "x.csv")],
        "unknown scheme",
    )


def test_cli_has_no_error_norm_order_flag(tmp_path, monkeypatch, capsys):
    # the error norm is H^1 alone: argparse rejects `--r` rather than taking
    # it as a prefix of `--ref-exp`, before any sweep work
    import kguniform.cli as cli_mod

    def no_sweep(cfg, progress=None):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli_mod, "run_sweep", no_sweep)
    with pytest.raises(SystemExit) as info:
        cli_main(["sweep", "--c", "1", "--r", "1", "--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("unrecognized arguments: --r 1")


def test_cli_paper_preset_builds_full_scale_config():
    import argparse

    from kguniform.cli import _build_config
    from kguniform.harness import PAPER_C_LIST

    def args(paper):
        return argparse.Namespace(
            config=None, schemes=None, c=None, tau_exp=None, T=None, K=None,
            ref_exp=None, paper=paper, out=None, format=None,
        )

    # nothing set: exactly the SweepConfig defaults
    default, out_path, out_format = _build_config(args(False))
    assert default == SweepConfig()
    assert (out_path, out_format) == ("results.csv", "csv")

    cfg, _, _ = _build_config(args(True))
    assert cfg.K == 512  # 1024 grid points: dx = 2*pi/1024 ~ 0.0061
    assert cfg.c_list == PAPER_C_LIST
    assert cfg.T == 0.1
    # --paper changes the grid and the c list only
    changed = {k for k in vars(cfg) if getattr(cfg, k) != getattr(default, k)}
    assert changed == {"K", "c_list"}
