"""Named presets for models, rotations, correlations and cost functionals.

The registry is the only place the CLI builds coefficients from; library
users can always construct :class:`~pathcoupling.sde.CoefficientField`
objects directly.  Every model preset has weak uniqueness of the
associated SDE (constant, linear or bounded-Lipschitz coefficients);
the free-form ``expr`` preset is the documented escape hatch and is
accepted without any such check.
"""

from __future__ import annotations

import ast
import functools
import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coupling import chop_rotation
from .errors import ConfigError
from .sde import CoefficientField, SdeModel, time_blocks

__all__ = ["Preset", "get_preset", "build", "available"]


@dataclass(frozen=True)
class Preset:
    name: str
    kind: str  # "model" | "rotation" | "correlation" | "h" | "g"
    description: str
    builder: Callable

    @property
    def defaults(self) -> dict:
        """The parameters the preset takes, each with its default: its builder's, but ``d``."""
        return {k: p.default for k, p in inspect.signature(self.builder).parameters.items() if k != "d"}


_REGISTRY: dict[tuple[str, str], Preset] = {}


def _register(name, kind, description):
    def wrap(fn):
        _REGISTRY[(kind, name)] = Preset(name, kind, description, fn)
        return fn

    return wrap


def available(kind: str | None = None) -> list[Preset]:
    items = [p for p in _REGISTRY.values() if kind is None or p.kind == kind]
    return sorted(items, key=lambda p: (p.kind, p.name))


def get_preset(kind: str, name: str) -> Preset:
    try:
        return _REGISTRY[(kind, name)]
    except KeyError:
        names = ", ".join(sorted(n for k, n in _REGISTRY if k == kind))
        raise ConfigError(
            f"unknown {kind} preset {name!r}; available: {names}"
        ) from None


def build(kind: str, name: str, d: int = 1, **params):
    """The ``kind`` preset ``name`` in dimension ``d``.  A parameter it does not take, or a value of the
    wrong type, shape or range (builders run no numerics, so a Dimension- or DomainError out of one is
    the config's), such as a matrix that is not d x d, is a ConfigError naming the preset."""
    preset = get_preset(kind, name)
    unknown = set(params) - set(preset.defaults)
    if unknown:
        raise ConfigError(
            f"{kind} preset {name!r} does not take parameter(s) "
            f"{sorted(unknown)}; accepted: {sorted(preset.defaults)}"
        )
    try:
        return preset.builder(d=d, **params)
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:  # a Dimension- or DomainError is a ValueError too
        raise ConfigError(f"{kind} preset {name!r} with params {params}: {err}") from None


# ---------------------------------------------------------------------------
# model presets


def _diagonal(vol, n_paths, d):
    """(N, d, d) matrices with diagonal ``vol`` ((N, d), or broadcast to it) and zeros elsewhere.
    Index arrays write it faster than the strided view ``out.reshape(N, d * d)[:, :: d + 1]``,
    whose inner run of d elements makes the copy twice as slow at d = 2."""
    out = np.zeros((n_paths, d, d))
    idx = np.arange(d)
    out[:, idx, idx] = vol
    return out


@_register("bm", "model", "standard Brownian motion, optionally scaled")
def _bm(d, sigma=1.0, z0=0.0):
    return SdeModel(
        z0=np.full(d, float(z0)),
        drift=CoefficientField.constant("drift", 0.0, d),
        diffusion=CoefficientField.constant("diffusion", float(sigma), d),
        label=f"bm(d={d},sigma={sigma},z0={z0})",
    )


@_register("const-matrix", "model", "constant matrix diffusion and vector drift")
def _const_matrix(d, sigma=1.0, mu=0.0, z0=0.0):
    sig = np.asarray(sigma, dtype=float)
    return SdeModel(
        z0=np.broadcast_to(np.atleast_1d(np.asarray(z0, dtype=float)), (d,)),
        drift=CoefficientField.constant("drift", mu, d),
        diffusion=CoefficientField.constant("diffusion", sig, d),
        label=f"const-matrix(d={d},sigma={np.asarray(sig).tolist()},mu={mu},z0={z0})",
    )


@_register("ou", "model", "mean-reverting linear drift with constant volatility")
def _ou(d, theta=1.0, mean=0.0, sigma=1.0, z0=0.0):
    theta = float(theta)
    mean_vec = np.full(d, float(mean))

    def drift(k, t, prefix):
        return -theta * (prefix[:, -1] - mean_vec)

    return SdeModel(
        z0=np.full(d, float(z0)),
        drift=CoefficientField("drift", d, drift, label=f"ou(theta={theta},mean={mean})"),
        diffusion=CoefficientField.constant("diffusion", float(sigma), d),
        label=f"ou(d={d},theta={theta},mean={mean},sigma={sigma},z0={z0})",
    )


@_register("gbm-bounded", "model", "bounded state-dependent diagonal volatility sigma*(1 + x^2/(1+x^2))")
def _gbm_bounded(d, sigma=1.0, z0=0.0):
    s = float(sigma)

    def diffusion(k, t, prefix):
        x = prefix[:, -1]
        return _diagonal(s * (1.0 + x * x / (1.0 + x * x)), x.shape[0], d)

    return SdeModel(
        z0=np.full(d, float(z0)),
        drift=CoefficientField.constant("drift", 0.0, d),
        diffusion=CoefficientField("diffusion", d, diffusion, label=f"gbm-bounded({s})"),
        label=f"gbm-bounded(d={d},sigma={sigma},z0={z0})",
    )


@_register("degenerate", "model", "constant diffusion diag(1..1,0..0) with rank ones (d-1 if None)")
def _degenerate(d, rank=None):
    r = d - 1 if rank is None else int(rank)
    if not 0 <= r <= d:
        raise ConfigError(f"rank must be in [0, {d}], got {r}")
    sig = np.diag(np.concatenate([np.ones(r), np.zeros(d - r)]))
    return SdeModel(
        z0=np.zeros(d),
        drift=CoefficientField.constant("drift", 0.0, d),
        diffusion=CoefficientField.constant("diffusion", sig, d),
        label=f"degenerate(d={d},rank={r})",
    )


_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh, "sign": np.sign,
    "minimum": np.minimum, "maximum": np.maximum, "where": np.where,
    "pi": math.pi, "e": math.e,
}


#: the syntax of an expression: numbers, names, arithmetic, comparisons and calls of the functions above
_EXPR_NODES = (ast.Expression, ast.Constant, ast.Name, ast.Load, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Call,
               ast.operator, ast.unaryop, ast.cmpop)


def _compile_expr(expr: str, d: int):
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as err:
        raise ConfigError(f"bad expression {expr!r}: {err.msg}") from err
    nodes = list(ast.walk(tree))  # every node, nested ones too
    bad = [n for n in nodes if not isinstance(n, _EXPR_NODES) or isinstance(n, ast.Constant)
           and type(n.value) not in (int, float)]
    bad += [n for n in nodes if isinstance(n, ast.Call) and not callable(_EXPR_NAMES.get(getattr(n.func, "id", "")))]
    if bad:
        raise ConfigError(f"expression {expr!r} may not use {type(bad[0]).__name__} {ast.unparse(bad[0])!r}; "
                          "only numbers, names, arithmetic, comparisons and calls of the allowed functions")
    allowed = set(_EXPR_NAMES) | {"t", "x"} | {f"x{j}" for j in range(d)}
    unknown = sorted({n.id for n in nodes if isinstance(n, ast.Name)} - allowed)
    if unknown:
        raise ConfigError(
            f"expression {expr!r} uses unknown names {unknown}; "
            f"allowed: t, x, x0..x{d - 1}, {', '.join(sorted(_EXPR_NAMES))}"
        )
    code = compile(tree, "<preset-expr>", "eval")

    def evaluate(t, x):
        names = dict(_EXPR_NAMES)
        names["t"] = t
        names["x"] = x[:, 0] if d == 1 else x
        for j in range(d):
            names[f"x{j}"] = x[:, j]
        return eval(code, {"__builtins__": {}}, names)  # noqa: S307 - sandboxed names

    return evaluate


@_register("expr", "model", "scalar expressions over (t, x, x0..) applied isotropically")
def _expr_model(d, sigma_expr="1", mu_expr="0", z0=0.0):
    sig_fn = _compile_expr(str(sigma_expr), d)
    mu_fn = _compile_expr(str(mu_expr), d)

    # an expression that reads no x evaluates to one number: a value shared by every path
    def drift(k, t, prefix):
        val = np.asarray(mu_fn(t, prefix[:, -1]), dtype=float)
        out = np.zeros((len(prefix), d) if val.ndim else d)
        out[:] = val.reshape(-1, 1) if val.ndim == 1 else val
        return out

    def diffusion(k, t, prefix):
        val = np.asarray(sig_fn(t, prefix[:, -1]), dtype=float)
        vol = _diagonal(val.reshape(-1, 1) if val.ndim == 1 else val, len(prefix) if val.ndim else 1, d)
        return vol if val.ndim else vol[0]

    return SdeModel(
        z0=np.full(d, float(z0)),
        drift=CoefficientField("drift", d, drift, label=f"expr({mu_expr})"),
        diffusion=CoefficientField("diffusion", d, diffusion, label=f"expr({sigma_expr})"),
        label=f"expr(d={d},sigma={sigma_expr!r},mu={mu_expr!r},z0={z0})",
    )


# ---------------------------------------------------------------------------
# rotation presets


@_register("identity", "rotation", "the identity transport")
def _rot_identity(d):
    return CoefficientField.constant("rotation", 1.0, d, "identity")


@_register("sign", "rotation", "constant sign s = +/-1 in dimension 1 (-1 is the antithetic map)")
def _rot_sign(d, s=-1.0):
    if d != 1:
        raise ConfigError("the 'sign' rotation preset is 1-d only")
    if float(s) not in (-1.0, 1.0):
        raise ConfigError(f"s must be +1 or -1, got {s}")
    return CoefficientField.constant("rotation", [[float(s)]])


@_register("angle", "rotation", "constant planar rotation by theta radians")
def _rot_angle(d, theta=0.0):
    if d != 2:
        raise ConfigError("the 'angle' rotation preset is 2-d only")
    th = float(theta)
    c, s = math.cos(th), math.sin(th)
    return CoefficientField.constant("rotation", [[c, -s], [s, c]], label=f"angle({theta})")


@_register("matrix", "rotation", "constant orthogonal matrix q (the identity if None)")
def _rot_matrix(d, q=None):
    return CoefficientField.constant("rotation", np.eye(d) if q is None else q, d)


@_register("rotation-by-state", "rotation", "planar rotation by the first component")
def _rot_by_state(d, scale=1.0):
    if d != 2:
        raise ConfigError("the 'rotation-by-state' preset is 2-d only")
    a = float(scale)

    def fn(k, t, prefix):
        theta = a * prefix[:, -1, 0]
        c, s = np.cos(theta), np.sin(theta)
        out = np.empty((theta.shape[0], 2, 2))
        out[:, 0, 0] = c
        out[:, 0, 1] = -s
        out[:, 1, 0] = s
        out[:, 1, 1] = c
        return out

    return CoefficientField("rotation", 2, fn, label=f"rotation-by-state(scale={a})")


@_register("chop", "rotation", "fast +/-1 chopping whose running mean tracks the correlation c")
def _rot_chop(d, c=0.0):
    if d != 1:
        raise ConfigError("the 'chop' rotation preset is 1-d only")
    return chop_rotation(float(c))


# ---------------------------------------------------------------------------
# correlation presets


@_register("const", "correlation", "constant correlation c, a scalar (times identity) or a d x d matrix")
def _corr_const(d, c=0.0):
    return CoefficientField.constant("correlation", c, d)


@_register("scaled-rotation", "correlation", "contraction scale * R(theta) of a planar rotation, scale in [0, 1]")
def _corr_scaled_rotation(d, scale=0.8, theta=0.0):
    if d != 2:
        raise ConfigError("the 'scaled-rotation' correlation preset is 2-d only")
    th, sc = float(theta), float(scale)
    c, s = math.cos(th), math.sin(th)
    mat = sc * np.array([[c, -s], [s, c]])
    return CoefficientField.constant("correlation", mat, label=f"scaled-rotation({sc},{th})")


# ---------------------------------------------------------------------------
# cost functional presets (h acts on a batch of paths, g on nonnegative scalars)


@_register("zero", "h", "ignore the finite-variation difference")
def _h_zero(d):
    def h(paths):
        return np.zeros(paths.shape[0])

    return h


@_register("sup", "h", "sup over time of the euclidean norm")
def _h_sup(d):
    def h(paths):  # a few blocks of steps at a time
        return functools.reduce(np.maximum, (np.linalg.norm(v, axis=2).max(axis=0) for (v,) in time_blocks(paths)))

    return h


@_register("l2", "h", "time integral of the squared euclidean norm")
def _h_l2(d):
    def h(paths):  # left endpoints, summed in time order a few blocks of steps at a time
        return sum((v[:-1] ** 2).sum(axis=2).sum(axis=0) for (v,) in time_blocks(paths)) / (paths.shape[1] - 1)

    return h


@_register("identity", "g", "g(r) = r")
def _g_identity(d):
    return lambda r: np.asarray(r, dtype=float)


@_register("sqrt", "g", "g(r) = sqrt(r)")
def _g_sqrt(d):
    return lambda r: np.sqrt(np.asarray(r, dtype=float))


@_register("square", "g", "g(r) = r^2")
def _g_square(d):
    return lambda r: np.asarray(r, dtype=float) ** 2
