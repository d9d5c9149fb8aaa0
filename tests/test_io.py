"""Round-trip tests for CSV, binary, and JSON report formats."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcoupling import pathio, verify
from pathcoupling.coupling import CorrelationProcess, CoupledEnsemble, couple_brownians
from pathcoupling.errors import ConfigError
from pathcoupling.sde import PathEnsemble, TimeGrid, sample_brownian


def _ensemble(seed=5):
    return sample_brownian(TimeGrid(16), 2, 7, seed=seed)


def _coupled(seed=6):
    return couple_brownians(CorrelationProcess.constant(0.5, 2), TimeGrid(16), 5, seed=seed)


def test_csv_round_trip_plain(tmp_path):
    ens = _ensemble()
    f = tmp_path / "ens.csv"
    pathio.write_csv(f, ens)
    header = f.read_text().splitlines()[0]
    assert header == "path_id,step,t,x_1,x_2"
    back = pathio.read_csv(f)
    assert np.array_equal(back.values, ens.values)
    assert back.grid.n_steps == 16


def test_csv_round_trip_coupled(tmp_path):
    ens = _coupled()
    f = tmp_path / "pair.csv"
    pathio.write_csv(f, ens)
    assert f.read_text().splitlines()[0].endswith("x_1,x_2,y_1,y_2")
    back = pathio.read_csv(f)
    assert np.array_equal(back.x, ens.x) and np.array_equal(back.y, ens.y)


def test_csv_rejects_foreign_file(tmp_path):
    f = tmp_path / "other.csv"
    f.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        pathio.read_csv(f)


def _rewrite_rows(f, edit):
    header, *rows = f.read_text().splitlines(keepends=True)
    f.write_text(header + "".join(edit(rows)))


@pytest.mark.parametrize(
    "edit",
    [lambda rows: rows[:4] + [rows[3]] + rows[5:], lambda rows: rows[:4] + rows[5:]],
    ids=["duplicated", "missing"],
)
def test_csv_rejects_a_duplicated_or_missing_row(tmp_path, edit):
    # N=2, n=4: row (0, 3) written again in place of row (0, 4), or row (0, 4) dropped
    f = tmp_path / "pair.csv"
    pathio.write_csv(f, couple_brownians(CorrelationProcess.constant(0.5, 1), TimeGrid(4), 2, seed=3))
    _rewrite_rows(f, edit)
    with pytest.raises(ConfigError):
        pathio.read_csv(f)


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: [],
        lambda rows: ["nan" + rows[0][1:]] + rows[1:],
        lambda rows: [rows[0].replace(",0,", ",nan,", 1)] + rows[1:],
        lambda rows: [rows[0].replace(",0,", ",x,", 1)] + rows[1:],
    ],
    ids=["header-only", "nan-path_id", "nan-step", "text-step"],
)
def test_csv_with_a_malformed_key_column_is_a_config_error_naming_the_file(tmp_path, edit):
    # filterwarnings = error: a warning ahead of the ConfigError would fail the test
    f = tmp_path / "pair.csv"
    pathio.write_csv(f, couple_brownians(CorrelationProcess.constant(0.5, 1), TimeGrid(4), 2, seed=3))
    _rewrite_rows(f, edit)
    with pytest.raises(ConfigError, match="pair.csv"):
        pathio.read_csv(f)


def test_csv_reads_shuffled_rows_back_in_order(tmp_path):
    ens = _coupled()
    f, g = tmp_path / "pair.csv", tmp_path / "again.csv"
    pathio.write_csv(f, ens)
    original = f.read_bytes()
    _rewrite_rows(f, lambda rows: [rows[i] for i in np.random.default_rng(0).permutation(len(rows))])
    assert f.read_bytes() != original
    pathio.write_csv(g, pathio.read_csv(f))
    assert g.read_bytes() == original


def _savetxt_oracle(path, blocks, times):
    """The CSV as ``np.savetxt`` writes it from the full (N·(n+1), 3+kd) table."""
    n_paths, n_rows, d = blocks[0].shape
    header = ["path_id", "step", "t"] + [f"{v}_{i + 1}" for v in "xy"[: len(blocks)] for i in range(d)]
    ids = np.repeat(np.arange(n_paths), n_rows)
    keys = [ids, np.tile(np.arange(n_rows), n_paths), np.tile(times, n_paths)]
    table = np.column_stack(keys + [blk.reshape(-1, d) for blk in blocks])
    fmt = ["%d", "%d", "%.17g"] + ["%.17g"] * (len(blocks) * d)
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(header), comments="")


_FINITE_EXTREMES = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1 / 3]


@st.composite
def _ensembles(draw):
    d, n_paths, n_steps = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 9))
    shape = (n_paths, n_steps + 1, d)
    size = int(np.prod(shape))
    finite = draw(st.booleans())  # only a finite ensemble round-trips through CSV bit for bit
    extremes = _FINITE_EXTREMES + ([] if finite else [np.inf, -np.inf, np.nan])
    value = st.one_of(st.sampled_from(extremes), st.floats(allow_nan=not finite, allow_infinity=not finite))
    legs = [np.array(draw(st.lists(value, min_size=size, max_size=size))).reshape(shape)
            for _ in range(draw(st.integers(1, 2)))]
    grid = TimeGrid(n_steps)
    if len(legs) == 1:
        return PathEnsemble(grid=grid, values=legs[0], seed=draw(st.integers(0, 2**63)))
    return CoupledEnsemble(grid=grid, x=legs[0], y=legs[1], seed=draw(st.integers(0, 2**63)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ens=_ensembles())
def test_formats_match_savetxt_and_round_trip_bit_for_bit(tmp_path_factory, ens):
    tmp = tmp_path_factory.mktemp("formats")
    legs = (ens.x, ens.y) if isinstance(ens, CoupledEnsemble) else (ens.values,)
    pathio.write_csv(tmp / "a.csv", ens)
    _savetxt_oracle(tmp / "oracle.csv", legs, ens.grid.times)
    assert (tmp / "a.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()
    pathio.write_binary(tmp / "a.bin", ens)
    readers = [pathio.read_binary(tmp / "a.bin")]
    if all(np.isfinite(leg).all() for leg in legs):
        readers.append(pathio.read_csv(tmp / "a.csv"))
    for back in readers:
        back_legs = (back.x, back.y) if isinstance(back, CoupledEnsemble) else (back.values,)
        assert [leg.tobytes() for leg in back_legs] == [leg.tobytes() for leg in legs]


def test_csv_write_and_in_order_read_allocate_no_full_size_table(tmp_path):
    # the (64·2049, 7) float table alone is 7.3 MB; the parser's own table stays
    rng = np.random.default_rng(4)
    pair = CoupledEnsemble(
        grid=TimeGrid(2048), x=rng.standard_normal((64, 2049, 2)), y=rng.standard_normal((64, 2049, 2)), seed=4
    )
    f = tmp_path / "pair.csv"
    peaks = []
    for call in (lambda: pathio.write_csv(f, pair), lambda: pathio.read_csv(f)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2 * 2**20 and peaks[1] < 12 * 2**20


def test_binary_round_trip_plain(tmp_path):
    ens = _ensemble()
    f = tmp_path / "ens.bin"
    pathio.write_binary(f, ens)
    raw = f.read_bytes()
    assert raw.startswith(b"PCPL1")
    assert len(raw) == 5 + 24 + ens.values.size * 8
    back = pathio.read_binary(f)
    assert np.array_equal(back.values, ens.values)
    assert back.seed == ens.seed and back.grid.n_steps == ens.grid.n_steps


def test_binary_round_trip_coupled(tmp_path):
    ens = _coupled()
    f = tmp_path / "pair.bin"
    pathio.write_binary(f, ens)
    back = pathio.read_binary(f)
    assert np.array_equal(back.x, ens.x) and np.array_equal(back.y, ens.y)
    assert back.seed == ens.seed


def test_binary_rejects_corruption(tmp_path):
    f = tmp_path / "bad.bin"
    f.write_bytes(b"NOPE!")
    with pytest.raises(ConfigError):
        pathio.read_binary(f)
    ens = _ensemble()
    g = tmp_path / "trunc.bin"
    pathio.write_binary(g, ens)
    g.write_bytes(g.read_bytes()[:-8])
    with pytest.raises(ConfigError):
        pathio.read_binary(g)


def test_binary_write_is_deterministic(tmp_path):
    ens = _ensemble()
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    pathio.write_binary(a, ens)
    pathio.write_binary(b, ens)
    assert a.read_bytes() == b.read_bytes()


def test_reports_jsonl_round_trip(tmp_path):
    ens = sample_brownian(TimeGrid(64), 1, 200, seed=8)
    reports = [verify.wiener_marginal_test(ens, alpha=a) for a in (0.01, 0.05)]
    f = tmp_path / "reports.jsonl"
    pathio.write_reports_jsonl(f, reports)
    back = pathio.read_reports_jsonl(f)
    assert back == reports


def test_cost_report_payload(tmp_path):
    from pathcoupling import cost, presets

    model = presets.build("model", "bm", d=1, sigma=1.0)
    ens = couple_brownians(CorrelationProcess.constant(1.0, 1), TimeGrid(32), 16, seed=9)
    spec = cost.CostSpec.lp(2)
    est = cost.estimate(ens, spec)
    payload = pathio.cost_report(est, n_steps=32, seed=9)
    assert payload["cost_spec"] == "lp(p=2)" and payload["N"] == 16
    f = tmp_path / "cost.json"
    pathio.write_json(f, payload)
    assert json.loads(f.read_text())["n_steps"] == 32
    assert model.dim == 1
