"""Form-tagged coefficient functions for controlled SDE problems.

Problems are described by six coefficient functions: a drift b(t, x, a), a
diffusion sigma(t, x, a), a singular gain G(t), a running cost h(t, x, a), a
terminal cost g(x) and a singular cost rate k(t).  To keep problem files
portable and bit-reproducible, coefficients are not arbitrary code: they are
built from a small set of closed forms (zero, constant, affine, quadratic
cost) that serialize to plain JSON and whose state gradients are available in
closed form.  build_coefficients returns them as the coefficient keyword
arguments of model.ProblemSpec, which holds the only copy.

Conventions
-----------
* state arguments broadcast: x has shape (..., n) and results keep the
  leading axes, so a whole path ensemble can be evaluated in one call;
* the control argument a is always a single point of shape (k,);
* sigma returns (..., n, d); its state gradient returns (..., d, n, n) with
  entry [j] the Jacobian of the j-th diffusion column;
* forms ignore t.

The drift, diffusion and running-cost forms are each written once, as a
control part plus a state part, and their value function is built from that
split, which it exposes as two attributes: ``state_part(x)`` gives the
(..., n), (..., n, d) or (...,) state term (None when the form has none) and
``control_part(U)`` the stacked control terms at the rows u of U, (L, n),
(L, n, d) or (L,), with a single row when the form does not depend on the
control.  Since fn(t, x, a) is the control term at a plus the state part,
row i (or the single row) plus the state part is fn(t, x, U[i]) bit for
bit.  ``control_part`` remembers the last U it was given, so a sweep that
asks for the same points at every knot computes them once.  The terminal
cost g is the state part of its quadratic form alone.  The cost forms h and
g carry their quadratic state matrix as ``state_quad`` (the
declared-convexity evidence of the sufficiency certificate), and the drift
and diffusion forms carry ``is_zero``, true when all their terms vanish; a
coefficient replaced by another callable carries neither.

Every number read from a problem or run file goes through read_count or
read_reals (read_numbers when finiteness is checked later), which refuse a
bool at any depth and raise ProblemError naming the key and the value.
"""

from __future__ import annotations

import numpy as np


class ProblemError(ValueError):
    """Raised for inconsistent problem definitions, malformed problem or run
    data, or non-finite coefficients."""


def _holds_bool(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def read_count(value, name, minimum=1) -> int:
    """value as an integer no smaller than minimum (0 or 1): an integral
    number such as 8.0 or a digit string; a fraction or a bool is not one."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ProblemError(f"{name} must be an integer, got {value!r}") from None
    if out < minimum:
        raise ProblemError(f"{name} must be {'positive' if minimum else 'nonnegative'}, got {out}")
    return out


def read_numbers(value, name) -> np.ndarray:
    """value as a float array: a number, a numeric string or a nested list of
    them.  A bool at any depth is refused: numpy would read JSON's true and
    false as 1.0 and 0.0."""
    try:
        if _holds_bool(value):
            raise TypeError
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ProblemError(f"{name} must be numeric, got {value!r}") from None


def read_reals(value, name, shape=None) -> np.ndarray:
    """read_numbers(value, name), of the given shape if one is given, with
    every entry finite."""
    out = read_numbers(value, name)
    if shape is not None and out.shape != shape:
        raise ProblemError(f"{name}: expected shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ProblemError(f"{name} must be finite, got {value!r}")
    return out


def _form(state_part, control_point, uses_control):
    """The value function fn(t, x, a) = control_point(a), plus state_part(x)
    when that is not None, with the split attached (see the module
    docstring).

    control_part(U) stacks control_point(u) over the rows u of U (over the
    first row only when uses_control is false) and remembers the last U, by
    value, with its read-only result.  The (U, result) entry is replaced as
    one object, so a concurrent caller never pairs a U with another U's
    result.
    """
    last = None

    def fn(t, x, a):
        out = control_point(np.asarray(a, dtype=float))
        state = state_part(x)
        return out if state is None else out + state

    def control_part(U):
        nonlocal last
        U = np.asarray(U, dtype=float)
        key = (U.shape, U.tobytes())
        entry = last
        if entry is None or entry[0] != key:
            rows = U if uses_control else U[:1]
            values = np.stack([np.asarray(control_point(u), dtype=float) for u in rows])
            values.flags.writeable = False
            entry = last = (key, values)
        return entry[1]

    fn.state_part = state_part
    fn.control_part = control_part
    return fn


def _affine(cfg, name, shape, state_shape, control_shape, state_term, control_term):
    """const + state_term(A, x) + control_term(B, a), with const of the value
    shape, A of state_shape and B of control_shape; returns the value function
    (flagged is_zero when all three vanish) and its state gradient, A
    broadcast over the batch axes of x.

    When the value does not depend on x the function returns the unbatched
    value; callers rely on normal numpy broadcasting.
    """
    c = read_reals(cfg.get("const", np.zeros(shape)), f"{name}.const", shape)
    A = read_reals(cfg.get("state", np.zeros(state_shape)), f"{name}.state", state_shape)
    B = read_reals(cfg.get("control", np.zeros(control_shape)), f"{name}.control", control_shape)
    has_A, has_B = bool(A.any()), bool(B.any())

    fn = _form(lambda x: state_term(A, np.asarray(x, dtype=float)) if has_A else None,
               lambda a: c + control_term(B, a) if has_B else c, has_B)
    fn.is_zero = not (c.any() or has_A or has_B)

    def grad(t, x, a):
        return np.broadcast_to(A, np.shape(x)[:-1] + state_shape)

    return fn, grad


def _matmul_columns(A, x):
    # (d, n, n) acting on (..., n) -> (..., n, d)
    return np.einsum("jpq,...q->...pj", A, x)


def _time_affine(cfg, shape, name):
    """G(t) = const + t * slope (slope optional)."""
    c = read_reals(cfg.get("const", np.zeros(shape)), f"{name}.const", shape)
    s = read_reals(cfg.get("slope", np.zeros(shape)), f"{name}.slope", shape)

    def fn(t):
        return c + t * s

    return fn


def _quadratic_cost(cfg, n, k, name, with_control):
    """h = sum_i poly_i(a_i) + (x'Qx + r.x + c0) and its gradient (Q+Q')x + r;
    without the control the cost g is the state part alone.  Q travels with
    the cost as its attribute state_quad."""
    Q = read_reals(cfg.get("state_quad", np.zeros((n, n))), f"{name}.state_quad", (n, n))
    r = read_reals(cfg.get("state_lin", np.zeros(n)), f"{name}.state_lin", (n,))
    c0 = float(read_reals(cfg.get("const", 0.0), f"{name}.const", ()))
    sym = Q + Q.T
    poly = None
    if with_control:
        raw = cfg.get("control_poly")
        if raw is not None:
            poly = [read_reals(p, f"{name}.control_poly[{i}]") for i, p in enumerate(raw)]
            if len(poly) != k or any(p.ndim != 1 for p in poly):
                raise ProblemError(
                    f"{name}.control_poly: expected {k} coefficient lists, got {raw!r}")

    def control_point(a):
        if poly is None:
            return 0.0
        total = 0.0
        for i, p in enumerate(poly):
            # p holds coefficients of a_i^0, a_i^1, ...
            total += sum(cj * a[i] ** j for j, cj in enumerate(p))
        return total

    has_Q, has_r = bool(Q.any()), bool(r.any())

    def state_part(x):
        x = np.asarray(x, dtype=float)
        out = np.einsum("...p,pq,...q->...", x, Q, x) if has_Q else np.zeros(x.shape[:-1])
        if has_r:
            out = out + x @ r
        return out + c0

    def gradient(x):
        return np.asarray(x, dtype=float) @ sym.T + r

    if not with_control:
        state_part.state_quad = Q
        return state_part, gradient
    fn = _form(state_part, control_point, poly is not None)
    fn.state_quad = Q
    return fn, lambda t, x, a: gradient(x)


def _object(value, name):
    if not isinstance(value, dict):
        raise ProblemError(f"{name} must be an object, got {value!r}")
    return value


_VECTOR_FORMS = ("zero", "affine")
_COST_FORMS = ("zero", "quadratic")
_TIME_FORMS = ("zero", "constant", "time_affine")


def build_coefficients(config: dict) -> dict:
    """The coefficient keyword arguments of ProblemSpec, built from a
    JSON-style problem description: the dimensions n, d, k and m, and the
    six coefficient functions with their four state gradients.  The drift
    and diffusion carry their is_zero flag, the costs their state_quad.

    Parameters
    ----------
    config : dict
        Mapping with keys ``dims`` ({n, d, k, m}) and ``coefficients``
        holding form-tagged entries ``drift``, ``diffusion``,
        ``singular_gain``, ``running_cost``, ``terminal_cost`` and
        ``singular_cost``.  See the README for the field-by-field schema.
    """
    dims = _object(config.get("dims"), "dims")
    for key in ("n", "d", "k", "m"):
        if key not in dims:
            raise ProblemError(f"dims missing {key!r}")
    n, d, k, m = (read_count(dims[key], f"dims.{key}") for key in ("n", "d", "k", "m"))
    coeffs = _object(config.get("coefficients", {}), "coefficients")

    def section(name, forms):
        """The parameters of coefficient `name`: none for the zero form, and
        the value of a constant form as the const of a time-affine one."""
        cfg = _object(coeffs.get(name, {"form": "zero"}), f"coefficients.{name}")
        form = cfg.get("form", "zero")
        if form not in forms:
            raise ProblemError(f"{name}: unknown form '{form}'")
        if form == "constant":
            if "value" not in cfg:
                raise ProblemError(f"{name}: form 'constant' needs a 'value'")
            return {"const": cfg["value"]}
        return cfg if form != "zero" else {}

    b, b_x = _affine(section("drift", _VECTOR_FORMS), "drift", (n,), (n, n), (n, k),
                     lambda A, x: x @ A.T, lambda B, a: B @ a)
    sigma, sigma_x = _affine(section("diffusion", _VECTOR_FORMS), "diffusion", (n, d),
                             (d, n, n), (d, n, k), _matmul_columns,
                             lambda B, a: np.einsum("jpq,q->pj", B, a))
    G = _time_affine(section("singular_gain", _TIME_FORMS), (n, m), "singular_gain")
    h, h_x = _quadratic_cost(section("running_cost", _COST_FORMS), n, k, "running_cost", True)
    g, g_x = _quadratic_cost(
        section("terminal_cost", _COST_FORMS), n, k, "terminal_cost", False
    )
    k_cost = _time_affine(section("singular_cost", _TIME_FORMS), (m,), "singular_cost")

    return dict(n=n, d=d, k=k, m=m, b=b, sigma=sigma, G=G, h=h, g=g, k_cost=k_cost,
                b_x=b_x, sigma_x=sigma_x, h_x=h_x, g_x=g_x)
