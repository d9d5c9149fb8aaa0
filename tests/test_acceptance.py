"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Each test prints `[criterion N] PASS|FAIL <summary> (<wall time> s)` through
the capture so the verdict is visible in the live pytest output, then asserts.
Sizes and tolerances are the contract; do not shrink them to save time.
Criteria backed by a named experiment call its `pathcoupling.experiments`
function, the code `pathcoupling experiment <name>` runs, at their own sizes,
and assert the verdicts it returns by name.
"""

import math
import time

import numpy as np
import pytest

from pathcoupling import cost, experiments, presets, verify
from pathcoupling.coupling import (
    composed_monge,
    couple_brownians,
    couple_sdes,
    rotation_monge,
)
from pathcoupling.sde import CoefficientField, TimeGrid, inverse_ito_map, ito_map, sample_brownian


@pytest.fixture
def criterion(capsys):
    t0 = time.perf_counter()

    def emit(num, ok, detail):
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail} ({elapsed:.1f} s)")
        assert ok, f"criterion {num} failed: {detail}"

    return emit


def _bm(sigma, d=1):
    return presets.build("model", "bm", d=d, sigma=sigma)


def _verdicts(rep, *names):
    """The named verdicts of an experiment report, by name."""
    by_name = {v["name"]: v for v in rep["verdicts"]}
    return {name: by_name[name] for name in names}


def _hold(rep, *names):
    return all(v["ok"] for v in _verdicts(rep, *names).values())


def test_criterion_01_closed_form_d1(criterion):
    t0 = time.perf_counter()
    rep = experiments.closed_form_d1(N=10_000, n_steps=1024, seed=7, probe_N=64)
    elapsed = time.perf_counter() - t0

    v = _verdicts(rep, "closed_form", "attained")  # oracle (a-b)^2 = 1 with a=2, b=1
    ok = _hold(rep, "closed_form", "attained") and elapsed < 10.0
    criterion(
        1, ok,
        f"closed form d=1: value={rep['closed_form']:.6f} (|dev|={v['closed_form']['value']:.2e} <= 0.02), "
        f"attained gap={v['attained']['value']:.2e} <= {v['attained']['bound']:.2e}, runtime {elapsed:.1f}s < 10s",
    )


def test_criterion_02_closed_form_d2(criterion):
    # sigma = diag(2,1), sigma_bar = Id: the trace maximiser of diag(2,1) @ I is the identity
    rep = experiments.closed_form_d2(N=10_000, n_steps=512, seed=11, probe_N=32, grid_points=10_000)
    dev = _verdicts(rep, "closed_form")["closed_form"]["value"]  # (4+1) + 2 - 2*(2+1) = 1
    ok = _hold(rep, "closed_form", "attained", "qstar_max_dev", "grid_gap")
    criterion(
        2, ok,
        f"closed form d=2: value={rep['closed_form']:.6f} (|dev|={dev:.2e} <= 0.03), "
        f"|Q*-Id|={rep['qstar_max_dev']:.1e}, O(2) grid gap={rep['grid_gap']:.1e} <= 1e-6",
    )


def test_criterion_03_optimality_gap_suite(criterion):
    # bm sigma=2 -> bm sigma=1: the closed form is (2 - 1)^2 = 1; correlation c costs 4(1 - c)
    # above it (antithetic 8, independent 4, rho=0.5 2), the c=0.5 chop as much as rho=0.5
    rep = experiments.optimality_gap(a=2.0, b=1.0, N=10_000, n_steps=1024, seed=13, probe_N=64)
    names = ("synchronous", "antithetic", "independent", "mid", "chop")
    ok = _hold(rep, *(f"{name}_margin" for name in names), "antithetic_gap", "independent_gap")
    gaps = ", ".join(f"{name}:{rep[f'{name}_gap']:+.4e}" for name in names)
    criterion(
        3, ok,
        f"gap suite: no candidate beats the closed form by 3 stderr (gaps {{{gaps}}}); "
        f"antithetic gap={rep['antithetic_gap']:.4f}~8, independent gap={rep['independent_gap']:.4f}~4",
    )


def test_criterion_04_rotation_invariance_50_seeds(criterion):
    n_seeds = 50
    rep = experiments.rotation_invariance(d=2, N=10_000, n_steps=1024, n_seeds=n_seeds, seed=1000)
    rate = rep["pass_rate"]
    passes = round(rate * n_seeds)
    ok = _hold(rep, "pass_rate")
    criterion(4, ok, f"rotation invariance: wiener pass rate {passes}/{n_seeds} = {rate:.2f} >= 0.95")


def test_criterion_05_rho_recovery(criterion):
    cases = [{"d": 1, "c": -0.9}, {"d": 1, "c": 0.0}, {"d": 1, "c": 0.7},
             {"d": 2, "scale": 0.8, "theta": math.pi / 6}]
    rep = experiments.rho_recovery(cases, N=4000, n_steps=256, seed=50)
    details = ", ".join(f"{row['excess']:+.3f}" for row in rep["rows"])
    ok = _hold(rep, "worst_excess")
    criterion(5, ok, f"rho recovery: entrywise dev-budget excesses [{details}] all <= 0")


def test_criterion_06_certificate_separation(criterion):
    # transports keep the norm of every driver increment
    sign_pair = rotation_monge(
        presets.build("rotation", "sign", d=1),
        sample_brownian(TimeGrid(1024), 1, 2000, 61),
    )
    cert_d1 = verify.monge_certificate(sign_pair)

    state_pair = rotation_monge(
        presets.build("rotation", "rotation-by-state", d=2),
        sample_brownian(TimeGrid(1024), 2, 4000, 62),
    )
    cert_d2 = verify.monge_certificate(state_pair)

    # a strict-contraction correlation is not a transport and must fail
    rho_pair = couple_brownians(CoefficientField.constant("correlation", 0.7, 1), TimeGrid(1024), 2000, 63)
    cert_rho = verify.monge_certificate(rho_pair)

    # |rho| = 1 everywhere passes the necessary condition yet carries no map:
    # the nearest-neighbour probe on the unsigned driver cannot beat a coin flip
    tan = experiments.tanaka(N=2000, n_steps=4096, seed=64)
    accuracy = tan["adaptedness_accuracy"]

    ok = (
        cert_d1.passed
        and cert_d2.passed
        and not cert_rho.passed
        and _hold(tan, "certificate_passed", "adaptedness_failed", "adaptedness_accuracy")
    )
    criterion(
        6, ok,
        f"certificate: transports pass ({cert_d1.statistic:.3g}, {cert_d2.statistic:.3g}), "
        f"rho=0.7 fails ({cert_rho.statistic:.3f} > {cert_rho.threshold:.3g}), "
        f"tanaka passes ({tan['certificate_statistic']:.3g}) but adaptedness accuracy "
        f"{accuracy:.3f} stays within 0.5 +/- 0.05",
    )


def test_criterion_07_kernel_obstruction(criterion):
    # diag(1,0) -> Id screening both ways; monge_sde from const-matrix diag(2,1)
    # and from a rank-1 source onto a 2-d Brownian motion
    rep = experiments.kernel_infeasibility(N=500, n_steps=256, seed=71)
    fwd, rev = rep["verdict_obstructed"], rep["verdict_reverse"]
    res_ok, res_bad = rep["residual_invertible"], rep["residual_obstructed"]
    ok = _hold(rep, "verdict_obstructed", "verdict_reverse", "residual_invertible", "residual_obstructed")
    criterion(
        7, ok,
        f"kernel obstruction: diag(1,0)->Id {fwd}, reverse {rev}; "
        f"residuals {res_ok:.0e} (invertible) / {res_bad:.3f} >= 0.99 (obstructed)",
    )


def test_criterion_08_synchronous_1d_optimality(criterion):
    # OU(theta=1, mean=0, z0=1) -> OU(theta=2, mean=0.5, z0=0) under the L2 path cost
    rep = experiments.synchronous_1d_optimality(N=10_000, n_steps=1024, seed=17, p=2.0)
    labels = {"antithetic": "antithetic", "independent": "independent", "rho=0.5": "mid"}
    slack = {label: -rep[f"{key}_margin"] for label, key in labels.items()}
    ok = _hold(rep, "worst_margin")
    shown = ", ".join(f"{k}:{v:+.4f}" for k, v in slack.items())
    criterion(8, ok, f"1-d synchronous optimality: slack after 3 stderr {{{shown}}} all >= 0")


def test_criterion_09_chop_density(criterion):
    rep = experiments.rotation_chop_density(c=0.5, N=4000, seed=90, n_list=(2**8, 2**10, 2**12))
    mads = rep["mad"]
    cov_dev, cov_budget = rep["cov_error"], rep["cov_budget"]
    ok = _hold(rep, "mad_decreasing", "mad_final", "cov_error")
    criterion(
        9, ok,
        f"chop density: per-path |[X,Y]_1 - 0.5| means {mads[0]:.4f} > {mads[1]:.4f} > "
        f"{mads[2]:.4f} <= 0.05; Cov(X_1,Y_1) dev {cov_dev:.4f} <= {cov_budget:.4f}",
    )


def test_criterion_10_exact_identities(criterion):
    grid = TimeGrid(256)
    # nonlinear d=1 and matrix d=2 round trips through the forward map
    round_dev = 0.0
    for model, d in (
        (presets.build("model", "gbm-bounded", d=1, sigma=0.5, z0=1.0), 1),
        (presets.build("model", "const-matrix", d=2, sigma=[[2.0, 1.0], [0.0, 1.0]]), 2),
    ):
        driver = sample_brownian(grid, d, 200, 80 + d)
        solution = ito_map(model, driver)
        recovered = inverse_ito_map(model, solution)
        round_dev = max(round_dev, float(np.max(np.abs(recovered.values - driver.values))))

    src = _bm(2.0)
    sync = couple_sdes(src, src, CoefficientField.constant("correlation", 1.0, 1), grid, 200, 81)
    sync_cost = cost.estimate(sync, cost.CostSpec.lp(2.0)).mean

    ident = composed_monge(src, src, CoefficientField.constant("rotation", 1.0, 1, "identity"), grid, 200, 82)
    ident_dist = float(np.max(np.abs(ident.x - ident.y)))

    ok = round_dev < 1e-10 and sync_cost == 0.0 and ident_dist == 0.0
    criterion(
        10, ok,
        f"exact identities: inverse_ito o ito dev {round_dev:.1e} < 1e-10; "
        f"synchronous identical-model cost == {sync_cost}; "
        f"composed identity coupling distance == {ident_dist}",
    )
