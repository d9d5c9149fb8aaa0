"""Round-trip tests for CSV, binary, and JSON report formats."""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcoupling import cost, pathio, presets, verify
from pathcoupling.coupling import CoupledEnsemble, couple_brownians, couple_sdes
from pathcoupling.cost import CostSpec
from pathcoupling.errors import ConfigError
from pathcoupling.sde import CoefficientField, PathEnsemble, TimeGrid, sample_brownian


def _ensemble(seed=5):
    return sample_brownian(TimeGrid(16), 2, 7, seed=seed)


def _coupled(seed=6):
    return couple_brownians(CoefficientField.constant("correlation", 0.5, 2), TimeGrid(16), 5, seed=seed)


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


def _cut(line):  # the last column dropped
    return line[: line.rindex(",")] + "\n"


@pytest.mark.parametrize(
    "edit",
    [lambda rows: rows[:4] + [rows[3]] + rows[5:], lambda rows: rows[:4] + rows[5:]],
    ids=["duplicated", "missing"],
)
def test_csv_rejects_a_duplicated_or_missing_row(tmp_path, edit):
    # N=2, n=4: row (0, 3) written again in place of row (0, 4), or row (0, 4) dropped
    f = tmp_path / "pair.csv"
    pathio.write_csv(f, couple_brownians(CoefficientField.constant("correlation", 0.5, 1), TimeGrid(4), 2, seed=3))
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
    pathio.write_csv(f, couple_brownians(CoefficientField.constant("correlation", 0.5, 1), TimeGrid(4), 2, seed=3))
    _rewrite_rows(f, edit)
    with pytest.raises(ConfigError, match="pair.csv"):
        pathio.read_csv(f)


def test_csv_with_a_t_off_the_grid_is_a_config_error_naming_its_row(tmp_path):
    # N=2, n=4: row 2 is (path 0, step 1) at t = 0.25
    f = tmp_path / "pair.csv"
    pathio.write_csv(f, couple_brownians(CoefficientField.constant("correlation", 0.5, 1), TimeGrid(4), 2, seed=3))
    _rewrite_rows(f, lambda rows: rows[:1] + [rows[1].replace(",1,0.25,", ",1,7.5,", 1)] + rows[2:])
    with pytest.raises(ConfigError, match=r"pair.csv: the row for path_id 0, step 1 has t 7.5, not 0.25"):
        pathio.read_csv(f)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[:-1] + [rows[-1][: rows[-1].rindex(",")]], "the number of columns changed from 5 to 4 at row 10"),
        (lambda rows: rows + [rows[-1]], "ragged ensemble CSV: 11 rows for 2 paths, 5 steps+1"),
        (lambda rows: rows[:7] + [rows[7].replace(",2,0.5,", ",2,7.5,", 1)] + rows[8:],
         "the row for path_id 1, step 2 has t 7.5, not 0.5"),
    ],
    ids=["last-row-cut-short", "extra-last-row", "middle-t-off-the-grid"],
)
def test_csv_faults_keep_their_config_error_text(tmp_path, edit, message):
    # N=2, n=4: the rows keep (path_id, step) order around the fault; a row numpy cannot parse is
    # named by numpy's own message, with the row counted in the file
    f = tmp_path / "pair.csv"
    pathio.write_csv(f, couple_brownians(CoefficientField.constant("correlation", 0.5, 1), TimeGrid(4), 2, seed=3))
    _rewrite_rows(f, edit)
    with pytest.raises(ConfigError) as err:
        pathio.read_csv(f)
    assert str(err.value).startswith(f"{f}: {message}")


def test_csv_with_shuffled_rows_is_a_config_error_naming_the_first_row_out_of_place(tmp_path):
    # N=5, n=16: every row but the last is shuffled, so N and n+1 still come from the last row
    f = tmp_path / "pair.csv"
    pathio.write_csv(f, _coupled())
    order = np.random.default_rng(0).permutation(5 * 17 - 1)
    _rewrite_rows(f, lambda rows: [rows[i] for i in order] + rows[-1:])
    i = int(np.flatnonzero(order != np.arange(len(order)))[0])
    p, k = divmod(i, 17)
    with pytest.raises(ConfigError) as err:
        pathio.read_csv(f)
    assert str(err.value) == (f"{f}: no row for path_id {p}, step {k}: a row is missing or repeated, "
                              f"or row {i + 1} is out of (path_id, step) order")


@pytest.mark.parametrize(
    "text",
    [
        "path_id,step,t,x_1,x_2,y_1\n0,0,0,1,2,3\n0,1,1,1,2,3\n",
        "path_id,step,t\n0,0,0\n0,1,0.5\n0,2,1\n",
        "path_id,step,t,x_1\n0,0,0,0.5\n1,0,0,0.25\n",
    ],
    ids=["x-and-y-unequal", "no-value-column", "paths-of-one-knot"],
)
def test_csv_other_than_write_csv_writes_is_a_config_error_naming_the_file(tmp_path, text):
    f = tmp_path / "other.csv"
    f.write_text(text)
    with pytest.raises(ConfigError, match="other.csv"):
        pathio.read_csv(f)


def test_csv_whose_last_row_claims_more_paths_than_its_bytes_hold_allocates_nothing(tmp_path, traced_peak):
    f = tmp_path / "ens.csv"
    pathio.write_csv(f, sample_brownian(TimeGrid(2), 1, 3, seed=1))
    _rewrite_rows(f, lambda rows: rows[:-1] + ["1000000000" + rows[-1][1:]])
    peak = traced_peak(lambda: pytest.raises(ConfigError, pathio.read_csv, f))
    assert peak < 2**20, peak


@settings(max_examples=150, deadline=None, derandomize=True)
@given(d=st.integers(1, 3), n_paths=st.integers(1, 4), n_steps=st.integers(1, 6), coupled=st.booleans(),
       edit=st.sampled_from(["drop", "duplicate", "swap", "t-off-the-grid", "cut"]), data=st.data())
def test_one_edit_to_a_written_csv_is_a_config_error_naming_the_file(tmp_path_factory, d, n_paths, n_steps, coupled,
                                                                    edit, data):
    x, y = np.random.default_rng(d).standard_normal((2, n_paths, n_steps + 1, d))
    grid = TimeGrid(n_steps)
    ens = CoupledEnsemble(grid=grid, x=x, y=y, seed=0) if coupled else PathEnsemble(grid=grid, values=x, seed=0)
    f = tmp_path_factory.mktemp("edit") / "ens.csv"
    pathio.write_csv(f, ens)
    lines = f.read_text().splitlines(keepends=True)  # the header is line 0, and any edit may hit it
    i = data.draw(st.integers(0, len(lines) - 1))
    if edit == "drop":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "swap":
        j = data.draw(st.integers(0, len(lines) - 1).filter(lambda j: j != i))
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "t-off-the-grid":  # to the next float up, on a data row
        fields = lines[max(i, 1)].split(",")
        lines[max(i, 1)] = ",".join(fields[:2] + ["%.17g" % np.nextafter(float(fields[2]), 2.0)] + fields[3:])
    else:
        lines[i] = _cut(lines[i])
    f.write_text("".join(lines))
    with pytest.raises(ConfigError, match=re.escape(str(f))):
        pathio.read_csv(f)


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


def test_csv_binary_and_built_pairs_give_the_same_statistics_to_the_last_bit(tmp_path):
    # a statistic must not depend on whether its pair was built or read back: the readers hand
    # their legs to the constructors, which lay every ensemble out the same way
    src, dst = presets.build("model", "ou", d=1), presets.build("model", "ou", d=1, theta=2.0, mean=0.5)
    built = couple_sdes(src, dst, CoefficientField.constant("correlation", 0.5, 1), TimeGrid(256), 300, seed=5)
    pathio.write_csv(tmp_path / "pair.csv", built)
    pathio.write_binary(tmp_path / "pair.bin", built)
    separable = CostSpec.separable(presets.build("h", "l2", d=1), presets.build("g", "sqrt", d=1))

    def numbers(pair):
        cov = verify.realized_covariation(pair)
        return [
            cov.terminal_mean.tobytes(), cov.terminal_stderr.tobytes(),
            verify.monge_certificate(pair, src, dst).statistic, verify.monge_certificate(pair).statistic,
            verify.wiener_marginal_test(pair.y_ensemble()).details["z"],
            cost.estimate(pair, CostSpec.lp(2)).as_dict(), cost.estimate(pair, separable, src, dst).as_dict(),
        ]

    want = numbers(built)
    assert numbers(pathio.read_csv(tmp_path / "pair.csv")) == want
    assert numbers(pathio.read_binary(tmp_path / "pair.bin")) == want


def _long_pair():  # the cli-long-horizon size: 64 pairs of 2049 knots in d = 2, 2 MiB a leg
    rng = np.random.default_rng(4)
    legs = rng.standard_normal((2, 64, 2049, 2))
    return CoupledEnsemble(grid=TimeGrid(2048), x=legs[0], y=legs[1], seed=4)


def test_csv_write_and_in_order_read_allocate_no_full_size_table(tmp_path, traced_peak):
    # an in-order read holds the two legs it returns (4 MiB) and one path of parsed rows; the
    # (64·2049, 7) float table alone is 7.3 MB
    pair = _long_pair()
    f = tmp_path / "pair.csv"
    peaks = [traced_peak(lambda: pathio.write_csv(f, pair)), traced_peak(lambda: pathio.read_csv(f))]
    assert peaks[0] < 2 * 2**20 and peaks[1] < 5 * 2**20, peaks


@pytest.fixture(scope="module")
def long_csv_lines(tmp_path_factory):
    f = tmp_path_factory.mktemp("long") / "pair.csv"
    pathio.write_csv(f, _long_pair())
    return f.read_text().splitlines(keepends=True)


@pytest.mark.parametrize(
    "row, edit, message",
    [
        (64 * 2049, lambda line: line.replace(",2048,1,", ",2048,7.5,", 1),
         "the row for path_id 63, step 2048 has t 7.5, not 1.0"),
        (10253, _cut, "the number of columns changed from 7 to 6 at row 10253"),
        (10246, _cut, "the number of columns changed from 7 to 6 at row 10246"),
        (10250, lambda line: _cut(line)[:-1] + ",x\n", "could not convert string 'x' to float64 at row 10249, column 7."),
    ],
    ids=["last-t-off-the-grid", "row-10253-cut-short", "first-row-of-a-block-cut-short", "text-value"],
)
def test_a_fault_deep_in_a_long_csv_is_located_in_the_file_without_a_full_size_table(tmp_path, long_csv_lines, row,
                                                                                      edit, message, traced_peak):
    # line `row` of the file is data row `row`; a path of 2049 rows is a block, so row 10246 is the
    # first of the sixth and 10253 its eighth. numpy counts a short row from 1, a bad value from 0
    lines = list(long_csv_lines)
    lines[row] = edit(lines[row])
    f = tmp_path / "pair.csv"
    f.write_text("".join(lines))
    raised = []
    peak = traced_peak(lambda: raised.append(pytest.raises(ConfigError, pathio.read_csv, f)))
    assert str(raised[0].value).startswith(f"{f}: {message}") and peak < 5 * 2**20, (peak, raised[0].value)


def test_binary_write_and_checked_read_hold_no_second_copy_of_a_leg(tmp_path, traced_peak):
    # a write holds one block of paths, not a contiguous copy of a leg (2 MiB); a read holds the
    # two legs it returns and one block, not a path-major leg beside its time-major copy
    pair = _long_pair()
    f = tmp_path / "pair.bin"
    digest = pathio.write_binary(f, pair)
    peaks = [traced_peak(lambda: pathio.write_binary(f, pair)), traced_peak(lambda: pathio.read_binary(f, sha256=digest))]
    assert peaks[0] < 2**20 and peaks[1] < 5 * 2**20, peaks


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


def test_binary_with_zero_steps_is_a_config_error_naming_the_file(tmp_path):
    # the payload fits the header's one knot a path, so only the header check can refuse it
    f = tmp_path / "zero.bin"
    f.write_bytes(pathio.MAGIC + pathio._HEADER.pack(1, 0, 3, 0) + bytes(3 * 8))
    with pytest.raises(ConfigError, match=re.escape(f"{f}: header d=1, n_steps=0, N=3")):
        pathio.read_binary(f)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_binary_header_field_outside_its_range_is_a_config_error_naming_it(tmp_path, seed):
    ens, f = _ensemble(), tmp_path / "ens.bin"
    with pytest.raises(ConfigError, match=re.escape(f"{f}: header field 'seed' is {seed}, outside the 64-bit")):
        pathio.write_binary(f, PathEnsemble(grid=ens.grid, values=ens.values, seed=seed))
    assert not f.exists()
    pathio.write_binary(f, PathEnsemble(grid=ens.grid, values=ens.values, seed=(1 << 64) - 1))  # the largest fits
    assert pathio.read_binary(f).seed == (1 << 64) - 1


def test_binary_digest_is_of_the_bytes_written_and_read(tmp_path):
    f = tmp_path / "pair.bin"
    digest = pathio.write_binary(f, _coupled())
    assert digest == hashlib.sha256(f.read_bytes()).hexdigest()
    back = pathio.read_binary(f, sha256=digest)
    assert np.array_equal(back.x, _coupled().x) and np.array_equal(back.y, _coupled().y)
    f.write_bytes(f.read_bytes()[:-1] + b"\x01")
    with pytest.raises(ConfigError, match="do not match sha256"):
        pathio.read_binary(f, sha256=digest)


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
    ens = couple_brownians(CoefficientField.constant("correlation", 1.0, 1), TimeGrid(32), 16, seed=9)
    spec = cost.CostSpec.lp(2)
    est = cost.estimate(ens, spec)
    payload = pathio.cost_report(est, n_steps=32, seed=9)
    assert payload["cost_spec"] == "lp(p=2)" and payload["N"] == 16
    f = tmp_path / "cost.json"
    pathio.write_json(f, payload)
    assert json.loads(f.read_text())["n_steps"] == 32
    assert model.dim == 1
