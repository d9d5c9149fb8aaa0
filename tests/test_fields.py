"""The field contract every kernel relies on, checked on every shipped field.

A coefficient field is pure in (k, t, prefixes), row i of a per-path value
reads only row i of each prefix, and it sees the grid only through k and t.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcoupling import cost, coupling, experiments, presets

#: the dimension of the presets that take only one, and params that make an expression read t and x
_DIMS = {"sign": 1, "chop": 1, "angle": 2, "rotation-by-state": 2, "scaled-rotation": 2}
_PARAMS = {"expr": {"sigma_expr": "1 + 0.5 * sin(x0 * t)", "mu_expr": "t - x"}}


def _fields():
    """name -> (field, the number of prefixes it reads): each model preset's drift and diffusion,
    each rotation and correlation preset, a chop and the optimal rotation of a closed form."""
    fields = {}
    for p in presets.available():
        if p.kind not in ("model", "rotation", "correlation"):
            continue
        built = presets.build(p.kind, p.name, d=_DIMS.get(p.name, 2), **_PARAMS.get(p.name, {}))
        if p.kind == "model":
            fields[f"model-{p.name}-drift"] = (built.drift, 1)
            fields[f"model-{p.name}-diffusion"] = (built.diffusion, 1)
        else:
            fields[f"{p.kind}-{p.name}"] = (built, 2 if p.kind == "correlation" else 1)
    fields["chop_rotation"] = (coupling.chop_rotation(0.3), 1)
    # a path-dependent source makes Q* per path; its 16-step probe does not limit the steps it serves
    src = presets.build("model", "gbm-bounded", d=2)
    dst = presets.build("model", "expr", d=2, sigma_expr="1 + t")
    spec = experiments.zero_identity_spec(2)
    fields["q_star"] = (cost.closed_form_optimal(src, dst, spec, experiments.probe(src, 16, 8, 1))[1], 1)
    return fields


FIELDS = _fields()


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_a_field_is_pure_and_row_local_on_any_grid(name, data):
    field, n_prefixes = FIELDS[name]
    n_steps = data.draw(st.integers(1, 64), label="n_steps")
    k = data.draw(st.integers(0, n_steps - 1), label="k")
    n_paths = data.draw(st.integers(1, 5), label="n_paths")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))  # distinct rows
    prefixes = list(rng.normal(size=(n_prefixes, n_paths, k + 1, field.dim)))
    rows = data.draw(st.lists(st.integers(0, n_paths - 1), min_size=1, unique=True), label="rows")
    t = k / n_steps

    value = field.eval(k, t, *prefixes)
    again = field.eval(k, t, *prefixes)
    assert value.shape == again.shape and value.tobytes() == again.tobytes()
    subset = field.eval(k, t, *(p[rows] for p in prefixes))
    shared = value.ndim == (1 if field.kind == "drift" else 2)
    want = value if shared else value[rows]
    assert subset.shape == want.shape and subset.tobytes() == want.tobytes()
