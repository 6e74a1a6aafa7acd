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

The drift, diffusion and running-cost forms are a state part plus a control
part, and expose the split as two attributes of the value function:
``state_part(x)`` gives the (..., n), (..., n, d) or (...,) state term (None
when the form has none) and ``control_part(U)`` the stacked control terms
at the rows u of U, (L, n), (L, n, d) or (L,), with a single row when the
form does not depend on the control.  Adding row i (or the single row) to
the state part reproduces fn(t, x, U[i]) bit for bit.  ``control_part``
remembers the last U it was given, so a sweep that asks for the same points
at every knot computes them once.  The cost forms h and g carry their
quadratic state matrix as ``state_quad`` (the declared-convexity evidence of
the sufficiency certificate), so a cost replaced by another callable
carries none.
"""

from __future__ import annotations

import numpy as np


class CoefficientError(ValueError):
    """Raised for malformed coefficient configurations."""


def _arr(value, shape, name):
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CoefficientError(f"{name}: {exc}") from None
    if out.shape != shape:
        raise CoefficientError(f"{name}: expected shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise CoefficientError(f"{name}: values must be finite, got {value!r}")
    return out


def _split(fn, state_part, control_point, uses_control):
    """Attach the state/control split (see the module docstring) to fn.

    control_part(U) stacks control_point(u) over the rows u of U (over the
    first row only when uses_control is false) and remembers the last U, by
    value, with its read-only result.  The (U, result) entry is replaced as
    one object, so a concurrent caller never pairs a U with another U's
    result.
    """
    last = None

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


def _vector_affine(cfg, n, k, name):
    """b = const + state @ x + control @ a, returning ((t,x,a)->(...,n), Jacobian).

    When the value does not depend on x the function returns an unbatched
    (n,) vector; callers rely on normal numpy broadcasting.
    """
    c = _arr(cfg.get("const", np.zeros(n)), (n,), f"{name}.const")
    A = _arr(cfg.get("state", np.zeros((n, n))), (n, n), f"{name}.state")
    B = _arr(cfg.get("control", np.zeros((n, k))), (n, k), f"{name}.control")
    has_A, has_B = bool(A.any()), bool(B.any())

    def fn(t, x, a):
        out = c + B @ np.asarray(a, dtype=float) if has_B else c
        if has_A:
            out = out + np.asarray(x, dtype=float) @ A.T
        return out

    def jac(t, x, a):
        return np.broadcast_to(A, np.shape(x)[:-1] + (n, n))

    _split(fn, lambda x: np.asarray(x, dtype=float) @ A.T if has_A else None,
           lambda a: c + B @ a if has_B else c, has_B)

    return fn, jac, not (c.any() or has_A or has_B)


def _matmul_columns(A, x):
    # (d, n, n) acting on (..., n) -> (..., n, d)
    return np.einsum("jpq,...q->...pj", A, x)


def _matrix_affine(cfg, n, d, k, name):
    """sigma columns are affine in (x, a); returns ((t,x,a)->(...,n,d), gradient).

    As with the drift form, an x-independent diffusion comes back unbatched
    as (n, d).
    """
    C0 = _arr(cfg.get("const", np.zeros((n, d))), (n, d), f"{name}.const")
    A = _arr(cfg.get("state", np.zeros((d, n, n))), (d, n, n), f"{name}.state")
    B = _arr(cfg.get("control", np.zeros((d, n, k))), (d, n, k), f"{name}.control")
    has_A, has_B = bool(A.any()), bool(B.any())

    def fn(t, x, a):
        out = C0 + np.einsum("jpq,q->pj", B, np.asarray(a, dtype=float)) if has_B else C0
        if has_A:
            out = out + _matmul_columns(A, np.asarray(x, dtype=float))
        return out

    def grad(t, x, a):
        return np.broadcast_to(A, np.shape(x)[:-1] + (d, n, n))

    _split(fn, lambda x: _matmul_columns(A, np.asarray(x, dtype=float)) if has_A else None,
           lambda a: C0 + np.einsum("jpq,q->pj", B, a) if has_B else C0, has_B)

    return fn, grad, not (C0.any() or has_A or has_B)


def _time_affine(cfg, shape, name):
    """G(t) = const + t * slope (slope optional)."""
    c = _arr(cfg.get("const", np.zeros(shape)), shape, f"{name}.const")
    s = _arr(cfg.get("slope", np.zeros(shape)), shape, f"{name}.slope")

    def fn(t):
        return c + t * s

    return fn


def _quadratic_cost(cfg, n, k, name, with_control):
    """h = x'Qx + r.x + c0 + sum_i poly_i(a_i) and its gradient (Q+Q')x + r;
    Q travels with h as its attribute state_quad."""
    Q = _arr(cfg.get("state_quad", np.zeros((n, n))), (n, n), f"{name}.state_quad")
    r = _arr(cfg.get("state_lin", np.zeros(n)), (n,), f"{name}.state_lin")
    c0 = float(_arr(cfg.get("const", 0.0), (), f"{name}.const"))
    sym = Q + Q.T
    poly = None
    if with_control:
        raw = cfg.get("control_poly")
        if raw is not None:
            try:
                poly = [np.asarray(p, dtype=float) for p in raw]
            except (TypeError, ValueError) as exc:
                raise CoefficientError(f"{name}.control_poly: {exc}") from None
            if not all(np.all(np.isfinite(p)) for p in poly):
                raise CoefficientError(f"{name}.control_poly: values must be finite, got {raw!r}")
            if len(poly) != k:
                raise CoefficientError(
                    f"{name}.control_poly: expected {k} coefficient lists, got {len(poly)}"
                )

    def control_part(a):
        if poly is None:
            return 0.0
        a = np.asarray(a, dtype=float)
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

    if with_control:

        def fn(t, x, a):
            return state_part(x) + control_part(a)

        def grad(t, x, a):
            return np.asarray(x, dtype=float) @ sym.T + r

        _split(fn, state_part, control_part, poly is not None)

    else:

        def fn(x):
            return state_part(x)

        def grad(x):
            return np.asarray(x, dtype=float) @ sym.T + r

    fn.state_quad = Q
    return fn, grad


def _object(value, name):
    if not isinstance(value, dict):
        raise CoefficientError(f"{name} must be an object, got {value!r}")
    return value


_VECTOR_FORMS = ("zero", "affine")
_COST_FORMS = ("zero", "quadratic")
_TIME_FORMS = ("zero", "constant", "time_affine")


def build_coefficients(config: dict) -> dict:
    """The coefficient keyword arguments of ProblemSpec, built from a
    JSON-style problem description: the dimensions n, d, k and m, the six
    coefficient functions with their four state gradients, and
    diffusion_is_zero, which flags problems whose paths are deterministic.

    Parameters
    ----------
    config : dict
        Mapping with keys ``dims`` ({n, d, k, m}) and ``coefficients``
        holding form-tagged entries ``drift``, ``diffusion``,
        ``singular_gain``, ``running_cost``, ``terminal_cost`` and
        ``singular_cost``.  See the README for the field-by-field schema.
    """
    dims = _object(config.get("dims"), "dims")
    try:
        n, d, k, m = (int(dims[key]) for key in ("n", "d", "k", "m"))
    except KeyError as exc:
        raise CoefficientError(f"dims missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CoefficientError(f"dims: {exc}") from None
    if min(n, d, k, m) <= 0:
        raise CoefficientError(f"dims must be positive, got {dims}")
    coeffs = _object(config.get("coefficients", {}), "coefficients")

    def section(name, forms):
        """The parameters of coefficient `name`: none for the zero form, and
        the value of a constant form as the const of a time-affine one."""
        cfg = _object(coeffs.get(name, {"form": "zero"}), f"coefficients.{name}")
        form = cfg.get("form", "zero")
        if form not in forms:
            raise CoefficientError(f"{name}: unknown form '{form}'")
        if form == "constant":
            if "value" not in cfg:
                raise CoefficientError(f"{name}: form 'constant' needs a 'value'")
            return {"const": cfg["value"]}
        return cfg if form != "zero" else {}

    b, b_x, _ = _vector_affine(section("drift", _VECTOR_FORMS), n, k, "drift")
    sigma, sigma_x, sig_zero = _matrix_affine(
        section("diffusion", _VECTOR_FORMS), n, d, k, "diffusion"
    )
    G = _time_affine(section("singular_gain", _TIME_FORMS), (n, m), "singular_gain")
    h, h_x = _quadratic_cost(section("running_cost", _COST_FORMS), n, k, "running_cost", True)
    g, g_x = _quadratic_cost(
        section("terminal_cost", _COST_FORMS), n, k, "terminal_cost", False
    )
    k_cost = _time_affine(section("singular_cost", _TIME_FORMS), (m,), "singular_cost")

    return dict(n=n, d=d, k=k, m=m, b=b, sigma=sigma, G=G, h=h, g=g, k_cost=k_cost,
                b_x=b_x, sigma_x=sigma_x, h_x=h_x, g_x=g_x, diffusion_is_zero=sig_zero)
