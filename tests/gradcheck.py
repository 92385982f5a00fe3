"""Finite-difference gradient checking shared across the test suite.

Central differences with h = 1e-6 in 64-bit floats; analytic gradients
must agree to relative error below 1e-5 at points away from the
non-smooth sets of the checked operations.
"""

import numpy as np

from evssl.autodiff import Parameter

FD_STEP = 1e-6
REL_TOL = 1e-5


def trainable(name, data):
    """A Parameter with its gradient on, as an optimizer holding it sets it:
    a bare Parameter requires no gradient."""
    p = Parameter(name, data)
    p.requires_grad = True
    return p


def numeric_gradient(build, param, h=FD_STEP):
    """Central-difference gradient of the scalar build() w.r.t. one tensor."""
    base = param.data.copy()
    grad = np.zeros_like(base)
    flat = grad.ravel()
    for i in range(base.size):
        for sign in (1.0, -1.0):
            bumped = base.copy()
            bumped.ravel()[i] += sign * h
            param.data = bumped
            value = build().item()
            flat[i] += sign * value / (2.0 * h)
    param.data = base
    return grad


def check_gradients(build, params, h=FD_STEP, rtol=REL_TOL):
    """Assert analytic gradients of build() match central differences.

    build() must construct a fresh scalar graph over `params` each call.
    Every parameter must be float64: a step of h is below float32's
    resolution, so a check there would compare rounding noise.
    """
    for p in params:
        if p.data.dtype != np.float64:
            raise TypeError(f"gradient check of {getattr(p, 'name', 'tensor')} needs float64, "
                            f"got {p.data.dtype}")
        p.grad = None
    out = build()
    out.backward()
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = numeric_gradient(build, p, h=h)
        scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        err = np.abs(analytic - numeric) / scale
        worst = float(err.max()) if err.size else 0.0
        assert worst < rtol, (
            f"gradient mismatch for {getattr(p, 'name', 'tensor')} "
            f"(max rel err {worst:.3e} >= {rtol})")
    for p in params:
        p.grad = None
