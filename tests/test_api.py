"""The public surface: every name a module exports resolves, and every ensemble a public
function returns is laid out as the ensemble constructors lay it out."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcoupling import coupling, pathio, presets
from pathcoupling.sde import (
    CoefficientField,
    PathEnsemble,
    TimeGrid,
    decompose,
    inverse_ito_map,
    ito_map,
    sample_brownian,
)


@pytest.mark.parametrize("module", ["sde", "coupling", "cost", "linalg", "presets"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"pathcoupling.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"pathcoupling.{module}.__all__ lists missing names {missing}"


# (N, n+1, d) arrays in the layouts a caller may hand in
_LAYOUTS = {
    "path-major": np.ascontiguousarray,
    "time-major": lambda v: np.ascontiguousarray(np.swapaxes(v, 0, 1)).swapaxes(0, 1),
    "fortran": np.asfortranarray,
    "strided": lambda v: np.repeat(v, 2, axis=0)[::2],
}


def _legs(ens):
    return (ens.x, ens.y) if isinstance(ens, coupling.CoupledEnsemble) else (ens.values,)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_paths=st.integers(1, 5), n=st.integers(1, 9), d=st.integers(1, 3),
    layout=st.sampled_from(sorted(_LAYOUTS)), seed=st.integers(0, 2**32 - 1),
)
def test_every_returned_ensemble_is_a_view_of_time_major_storage(tmp_path_factory, n_paths, n, d, layout, seed):
    grid = TimeGrid(n)
    x, y = np.cumsum(np.random.default_rng(seed).standard_normal((2, n_paths, n + 1, d)), axis=2)
    ens = PathEnsemble(grid=grid, values=_LAYOUTS[layout](x), seed=seed)
    pair = coupling.CoupledEnsemble(grid=grid, x=_LAYOUTS[layout](x), y=_LAYOUTS[layout](y), seed=seed)
    assert [leg.tobytes() for leg in (ens.values, pair.x, pair.y)] == [x.tobytes(), x.tobytes(), y.tobytes()]
    ou = presets.build("model", "ou", d=d)
    q = presets.build("rotation", "identity", d=d)
    rho = CoefficientField.constant("correlation", 0.5, d)
    tmp = tmp_path_factory.mktemp("layout")
    pathio.write_csv(tmp / "pair.csv", pair)
    pathio.write_binary(tmp / "pair.bin", pair)
    pathio.write_binary(tmp / "ens.bin", ens)
    returned = [
        ens, pair, *decompose(ou, ens), ito_map(ou, ens), inverse_ito_map(ou, ens),
        sample_brownian(grid, d, n_paths, seed),
        coupling.couple_brownians(rho, grid, n_paths, seed), coupling.couple_sdes(ou, ou, rho, grid, n_paths, seed),
        coupling.rotation_monge(q, ens), coupling.composed_monge(ou, ou, q, grid, n_paths, seed),
        coupling.monge_sde(ou.drift, ou.diffusion, q, ou, grid, n_paths, seed),
        pathio.read_csv(tmp / "pair.csv"), pathio.read_binary(tmp / "pair.bin"), pathio.read_binary(tmp / "ens.bin"),
    ]
    for leg in (leg for out in returned for leg in _legs(out)):
        assert leg.shape == (n_paths, n + 1, d) and np.swapaxes(leg, 0, 1).flags.c_contiguous
