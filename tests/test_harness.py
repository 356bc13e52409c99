import json
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


def test_initial_data_rejects_higher_dim():
    g = make_grid(1, 8)
    object.__setattr__(g, "d", 2)  # forged grid
    with pytest.raises(ValueError, match="d = 1"):
        paper_initial_data(g, 1.0)


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


def test_parse_table_rejects_json_row_without_key(tmp_path):
    row = {"scheme": "uei1", "tau": 0.1, "err_h1": 0.5, "wall_time_s": 0.2, "failed": None}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": [row], "fitted_orders": []}))
    with pytest.raises(ValueError, match="bad.json: row 0 has no key 'c'"):
        parse_table(str(path), "json")


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


def test_empty_scheme_list_gives_empty_table():
    cfg = SweepConfig(schemes=[], c_list=[1.0], tau_exponents=[4, 5, 6], K=16, ref_exponent=6)
    table = run_sweep(cfg)
    assert table.rows == [] and table.fitted_orders == {}


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


def test_sweep_thread_count_invariance(monkeypatch):
    cfg = SweepConfig(
        schemes=[SchemeId.LIE_LIMIT, SchemeId.STRANG_LIMIT],
        c_list=[1.0, 10.0],
        tau_exponents=[4, 5, 6],
        K=32,
        ref_exponent=12,
    )
    monkeypatch.delenv("KG_THREADS", raising=False)
    seq = run_sweep(cfg)
    monkeypatch.setenv("KG_THREADS", "4")
    par = run_sweep(cfg)
    for a, b in zip(seq.rows, par.rows):
        assert (a.scheme, a.c, a.tau, a.err) == (b.scheme, b.c, b.tau, b.err)


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


def test_cli_rejects_unknown_scheme(tmp_path):
    with pytest.raises(ValueError, match="unknown scheme"):
        cli_main(["sweep", "--schemes", "rk4", "--out", str(tmp_path / "x.csv")])


def test_cli_paper_preset_builds_full_scale_config():
    import argparse

    from kguniform.cli import _build_config
    from kguniform.harness import PAPER_C_LIST

    def args(paper):
        return argparse.Namespace(
            config=None, schemes=None, c=None, tau_exp=None, T=None, K=None,
            r=None, ref_exp=None, paper=paper, out=None, format=None,
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
