"""The eight named experiments, each written once as a plain function.

Each function takes the fields of its config file under
``pathcoupling/experiments/`` as keyword arguments, with the same defaults,
plus ``n_workers``, and returns the report dict.  ``pathcoupling experiment``
calls them through :data:`EXPERIMENTS`; the acceptance suite calls them at
its own contract sizes.
"""

from __future__ import annotations

import math

import numpy as np

from . import coupling, cost, presets, sde, verify
from .errors import ConfigError
from .linalg import psd_sqrt, rotation_grid_max, trace_max_rotation


def zero_identity_spec(d):
    """The separable cost with h = 0 and g = id: the expected bracket term."""
    h = presets.build("h", "zero", d=d)
    g = presets.build("g", "identity", d=d)
    return cost.CostSpec.separable(h, g, label="separable(h=zero, g=identity)")


def probe(src, n_steps, n_paths, seed):
    """Source paths on which ``cost.closed_form_optimal`` evaluates the coefficients."""
    driver = sde.sample_brownian(sde.TimeGrid(n_steps), src.dim, n_paths, seed)
    return sde.ito_map(src, driver)


def _closed_form_attained(src, dst, n_steps, N, seed, probe_N, n_workers):
    """The closed form of the bracket cost on ``probe_N`` source paths (seed + 1),
    then its Monte Carlo estimate over the transport built from the optimal ``Q*``."""
    spec = zero_identity_spec(src.dim)
    paths = probe(src, n_steps, probe_N, seed + 1)
    closed, q_star = cost.closed_form_optimal(src, dst, spec, paths)
    grid = sde.TimeGrid(n_steps)
    pair = coupling.monge_sde(dst.drift, dst.diffusion, q_star, src, grid, N, seed, n_workers=n_workers)
    est = cost.estimate(pair, spec, src=src, dst=dst)
    fields = {
        "closed_form": closed.mean,
        "closed_form_stderr": closed.stderr,
        "estimate": est.mean,
        "stderr": est.stderr,
        "gap": est.mean - closed.mean,
    }
    return fields, q_star, paths


def closed_form_d1(a=2.0, b=1.0, N=10_000, n_steps=1024, seed=7, probe_N=8, n_workers=1):
    """Closed-form optimum (a - b)^2 for dX = a dB, dY = b dB, then attained by Monte Carlo."""
    src = presets.build("model", "bm", d=1, sigma=a)
    dst = presets.build("model", "bm", d=1, sigma=b)
    fields, _, _ = _closed_form_attained(src, dst, n_steps, N, seed, probe_N, n_workers)
    return {"a": a, "b": b, "N": N, "n_steps": n_steps, "seed": seed, "oracle": (a - b) ** 2, **fields}


def closed_form_d2(
    sigma=((2.0, 0.0), (0.0, 1.0)),
    sigma_bar=((1.0, 0.0), (0.0, 1.0)),
    N=10_000,
    n_steps=512,
    seed=11,
    probe_N=8,
    grid_points=10_000,
    n_workers=1,
):
    """Closed-form optimum for constant 2-d volatilities, cross-checked by an O(2) scan."""
    sigma = np.asarray(sigma, dtype=float)
    sigma_bar = np.asarray(sigma_bar, dtype=float)
    src = presets.build("model", "const-matrix", d=2, sigma=sigma.tolist())
    dst = presets.build("model", "const-matrix", d=2, sigma=sigma_bar.tolist())
    fields, q_star, paths = _closed_form_attained(src, dst, n_steps, N, seed, probe_N, n_workers)

    # cross-check the trace maximiser against a brute-force O(2) scan
    probed = sigma @ psd_sqrt(sigma_bar @ sigma_bar.T)
    _, svd_value = trace_max_rotation(probed)
    _, grid_value = rotation_grid_max(probed, n_points=grid_points)
    qstar_dev = 0.0
    for k in (0, n_steps // 2, n_steps - 1):
        q = q_star.eval(k, k * paths.grid.dt, paths.values[0, : k + 1])
        qstar_dev = max(qstar_dev, float(np.max(np.abs(q - np.eye(2)))))
    return {
        "sigma": sigma.tolist(),
        "sigma_bar": sigma_bar.tolist(),
        "N": N,
        "n_steps": n_steps,
        "seed": seed,
        **fields,
        "qstar_max_dev": qstar_dev,
        "trace_max_value": svd_value,
        "grid_value": grid_value,
        "grid_gap": abs(svd_value - grid_value),
    }


def rotation_invariance(
    N=2000, n_steps=256, n_seeds=20, seed=100, alpha=0.01, scale=1.0, d=2, n_workers=1
):
    """Wiener marginal test of a state-dependent rotation integral, seeds seed..seed+n_seeds-1."""
    grid = sde.TimeGrid(n_steps)
    q = presets.build("rotation", "rotation-by-state", d=d, scale=scale)
    passes = 0
    worst = 0.0
    for i in range(n_seeds):
        driver = sde.sample_brownian(grid, d, N, seed + i, n_workers=n_workers)
        pair = coupling.rotation_monge(q, driver)
        rep = verify.wiener_marginal_test(pair.y_ensemble(), alpha=alpha)
        passes += int(rep.passed)
        worst = max(worst, rep.statistic - rep.threshold)
    return {
        "N": N,
        "n_steps": n_steps,
        "n_seeds": n_seeds,
        "alpha": alpha,
        "pass_rate": passes / n_seeds,
        "worst_excess": worst,
    }


def tanaka(N=2000, n_steps=4096, seed=5, window=verify.DEFAULT_WINDOW, alpha=0.01, n_workers=1):
    """The Tanaka coupling passes the certificate and the Wiener test yet carries no adapted map."""
    pair = coupling.tanaka_coupling(sde.TimeGrid(n_steps), N, seed, n_workers=n_workers)
    cert = verify.monge_certificate(pair, window=window)
    wien = verify.wiener_marginal_test(pair.x_ensemble(), alpha=alpha)
    adapted = verify.adaptedness_probe(pair)
    return {
        "N": N,
        "n_steps": n_steps,
        "seed": seed,
        "certificate_passed": cert.passed,
        "certificate_statistic": cert.statistic,
        "wiener_passed": wien.passed,
        "wiener_statistic": wien.statistic,
        "adaptedness_failed": not adapted.passed,
        "adaptedness_accuracy": adapted.statistic,
    }


def rho_recovery(cases=None, N=4000, n_steps=256, seed=21, n_workers=1):
    """Terminal realized covariation of constant-correlation couplings, entry by entry.

    Each case is ``{"d": d, "c": c}`` (scalar or d x d) or ``{"d": 2, "scale": s,
    "theta": th}``; the i-th case uses seed ``seed + i``.  ``worst_excess`` is the
    largest ``|dev_ij| - budget_ij`` over all entries of all cases.
    """
    if not cases:
        raise ConfigError("rho-recovery needs a non-empty 'cases' list")
    grid = sde.TimeGrid(n_steps)
    rows = []
    for i, case in enumerate(cases):
        d = int(case.get("d", 1))
        if "c" in case:
            rho = presets.build("correlation", "const", d=d, c=case["c"])
        else:
            rho = presets.build(
                "correlation", "scaled-rotation", d=d, scale=case["scale"], theta=case["theta"]
            )
        target = rho.eval(0, 0.0, None, None)  # both presets are constant fields
        pair = coupling.couple_brownians(rho, grid, N, seed + i, n_workers=n_workers)
        rep = verify.realized_covariation(pair)
        dev = np.abs(rep.terminal_mean - target)
        budget = verify.covariation_budget(rep, grid.dt)
        rows.append({
            "case": case,
            "max_dev": float(np.max(dev)),
            "budget": budget.tolist(),
            "excess": float(np.max(dev - budget)),
            "terminal_mean": rep.terminal_mean.tolist(),
        })
    return {
        "N": N,
        "n_steps": n_steps,
        "cases": rows,
        "worst_excess": max(row["excess"] for row in rows),
    }


def rotation_chop_density(c=0.5, block=16, N=4000, seed=33, n_list=(256, 1024, 4096), n_workers=1):
    """Per-path bracket deviation of +/-1 chopping from c as the grid refines.

    The i-th resolution in ``n_list`` uses seed ``seed + i``; the covariance
    check is made at the last (finest) one.
    """
    mads = []
    cov_err = cov_budget = None
    for i, n_steps in enumerate(n_list):
        pair = coupling.rotation_chop(c, sde.TimeGrid(n_steps), N, seed + i, block, n_workers=n_workers)
        target = pair.provenance["achieved_c"]
        bracket = np.einsum(
            "pkd,pkd->p", verify._increments(pair.x, n_steps), verify._increments(pair.y, n_steps)
        )
        mads.append(float(np.mean(np.abs(bracket - target))))
        x1 = pair.x[:, -1, 0]
        y1 = pair.y[:, -1, 0]
        prods = (x1 - x1.mean()) * (y1 - y1.mean())
        cov_err = abs(float(prods.mean() * N / (N - 1)) - target)
        cov_budget = 3.0 * float(np.std(prods, ddof=1) / math.sqrt(N))
    return {
        "c": c,
        "block": block,
        "N": N,
        "n_list": list(n_list),
        "mad": mads,
        "mad_final": mads[-1],
        "cov_error": cov_err,
        "cov_budget": cov_budget,
    }


def kernel_infeasibility(N=1000, n_steps=256, seed=42, n_workers=1):
    """Rank screening and kernel residuals for diag(1, 0) versus the identity."""
    grid = sde.TimeGrid(n_steps)
    degenerate = np.diag([1.0, 0.0])
    identity = np.eye(2)
    fwd = coupling.feasibility_check([degenerate], [identity])
    rev = coupling.feasibility_check([identity], [degenerate])

    src_ok = presets.build("model", "const-matrix", d=2, sigma=[[2.0, 0.0], [0.0, 1.0]])
    src_bad = presets.build("model", "degenerate", d=2, rank=1)
    dst = presets.build("model", "bm", d=2)
    q = coupling.RotationProcess.identity(2)
    invertible = coupling.monge_sde(dst.drift, dst.diffusion, q, src_ok, grid, N, seed, n_workers=n_workers)
    obstructed = coupling.monge_sde(
        dst.drift, dst.diffusion, q, src_bad, grid, N, seed + 1, n_workers=n_workers
    )
    return {
        "N": N,
        "n_steps": n_steps,
        "verdict_obstructed": fwd.verdict,
        "verdict_reverse": rev.verdict,
        "residual_invertible": invertible.provenance["kernel_residual"],
        "residual_obstructed": obstructed.provenance["kernel_residual"],
    }


def synchronous_1d_optimality(
    N=4000,
    n_steps=512,
    seed=17,
    p=2.0,
    src_params=(("theta", 1.0), ("mean", 0.0), ("z0", 1.0)),
    dst_params=(("theta", 2.0), ("mean", 0.5), ("z0", 0.0)),
    n_workers=1,
):
    """Synchronous coupling of two 1-d OU models against antithetic, independent and rho=0.5.

    ``<name>_margin`` is ``synchronous - (<name> - 3 * combined stderr)``; every
    margin is negative when the synchronous cost is the smallest by more than
    three combined standard errors.
    """
    grid = sde.TimeGrid(n_steps)
    src = presets.build("model", "ou", d=1, **dict(src_params))
    dst = presets.build("model", "ou", d=1, **dict(dst_params))
    spec = cost.CostSpec.lp(p)

    def run(c):
        rho = coupling.CorrelationProcess.constant(c, d=1)
        pair = coupling.couple_sdes(src, dst, rho, grid, N, seed, n_workers=n_workers)
        return cost.estimate(pair, spec)

    sync = run(1.0)
    result = {
        "N": N,
        "n_steps": n_steps,
        "seed": seed,
        "p": p,
        "synchronous": sync.mean,
        "synchronous_stderr": sync.stderr,
    }
    margins = []
    for name, c in (("antithetic", -1.0), ("independent", 0.0), ("mid", 0.5)):
        est = run(c)
        margin = sync.mean - (est.mean - 3.0 * math.hypot(sync.stderr, est.stderr))
        result[name] = est.mean
        result[f"{name}_stderr"] = est.stderr
        result[f"{name}_margin"] = margin
        margins.append(margin)
    result["worst_margin"] = max(margins)
    return result


#: experiment ``kind`` (as in the config files) -> function
EXPERIMENTS = {
    "closed-form-d1": closed_form_d1,
    "closed-form-d2": closed_form_d2,
    "rotation-invariance": rotation_invariance,
    "tanaka": tanaka,
    "rho-recovery": rho_recovery,
    "rotation-chop-density": rotation_chop_density,
    "kernel-infeasibility": kernel_infeasibility,
    "synchronous-1d-optimality": synchronous_1d_optimality,
}
