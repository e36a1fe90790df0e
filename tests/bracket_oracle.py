"""The pointwise Lie bracket, kept as a test oracle: no engine path calls it.

lie_bracket fixes the engine's sign convention [u, v] = (Dv) u - (Du) v in
the bracket tests.
"""

import numpy as np

from recavg.avgcore import fd_jacobian


def lie_bracket(f, g, x, jac_f=None, jac_g=None) -> np.ndarray:
    """Lie bracket [f, g](x) = (Dg)(x) f(x) - (Df)(x) g(x).

    f and g map R^n -> R^n with any extra arguments already frozen.
    Jacobians are used when supplied and finite-differenced otherwise.
    """
    x = np.asarray(x, dtype=float)
    df = np.asarray(jac_f(x)) if jac_f is not None else fd_jacobian(f, x)
    dg = np.asarray(jac_g(x)) if jac_g is not None else fd_jacobian(g, x)
    if not (np.all(np.isfinite(df)) and np.all(np.isfinite(dg))):
        raise ValueError("non-finite Jacobian entries")
    return dg @ np.asarray(f(x)) - df @ np.asarray(g(x))
