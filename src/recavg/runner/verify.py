"""Self-verification of the averaging conventions.

Two independent closed forms pin the bracket sign and the 1/2-prefactor
placement: the constant gain matrix of the rigid-body seeker and the
sin/cos commutator field. The deliberate-breakage flags demonstrate that
either convention error is caught; verify_averaging says how it applies
them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .. import avgcore, seek3d
from ..avgcore import TwoScaleField, TwoScaleSystem

A_TOL = 1e-6
ROT_TOL = 1e-8
SINCOS_TOL = 1e-8
BRACKET_CONVENTION = "[f, g] = (Dg) f - (Df) g"
PREFACTOR_CONVENTION = "1/(2 T1 T2) on the bracket term, 1/(T1 T2) on the mean"

_B1 = np.array([[0.0, 1.0], [0.0, 0.0]])
_B2 = np.array([[0.0, 0.0], [1.0, 0.0]])


@dataclass(frozen=True)
class VerificationReport:
    a_matrix: np.ndarray
    a_error: float
    rotation_residual: float
    sincos_error: float
    passed: bool
    diagnosis: str

    def lines(self):
        status = "PASS" if self.passed else "FAIL"
        out = [
            f"gain matrix error        : {self.a_error:.3e} (tol {A_TOL:g})",
            f"rotation-block residual  : {self.rotation_residual:.3e} (tol {ROT_TOL:g})",
            f"sin/cos oracle error     : {self.sincos_error:.3e} (tol {SINCOS_TOL:g})",
            f"bracket convention       : {BRACKET_CONVENTION}",
            f"prefactor convention     : {PREFACTOR_CONVENTION}",
            f"verification             : {status}",
        ]
        if self.diagnosis:
            out.append(f"diagnosis                : {self.diagnosis}")
        return out


def sincos_test_system() -> TwoScaleSystem:
    """Oscillation sin(tau) b1(x) + cos(tau) b2(x) with linear b1, b2.

    Its averaged drift has the closed form -[b1, b2] / 2, i.e. the matrix
    [[1/2, 0], [0, -1/2]] acting on x for the shipped b1, b2.
    """

    def f1(x, t, sigma, tau):
        if np.ndim(tau) == 0:  # [sin(tau) x1, cos(tau) x0] on floats, for the RK4 loop
            return [math.sin(tau) * x[1], math.cos(tau) * x[0]]
        v1, v2 = _B1 @ x, _B2 @ x
        return np.sin(tau)[:, None] * v1[None, :] + np.cos(tau)[:, None] * v2[None, :]

    def jac1(x, t, sigma, taus):
        return np.sin(taus)[:, None, None] * _B1 + np.cos(taus)[:, None, None] * _B2

    field1 = TwoScaleField(
        dim=2, func=f1, T1=2 * math.pi, T2=2 * math.pi, jac=jac1, depends_sigma=False
    )
    field2 = avgcore.zero_field(2, 2 * math.pi, 2 * math.pi)
    return TwoScaleSystem(f1=field1, f2=field2, omega=400.0)


def sincos_expected_drift(x) -> np.ndarray:
    comm = _B2 @ _B1 - _B1 @ _B2
    return -0.5 * (comm @ np.asarray(x))


def verify_averaging(
    *,
    flip_bracket: bool = False,
    swap_prefactors: bool = False,
    n_probes: int = 24,
    seed: int = 7,
) -> VerificationReport:
    """Recompute both closed-form oracles through the quadrature engine.

    flip_bracket and swap_prefactors report what an engine with the bracket
    sign inverted, or with the 1/2 prefactor on the mean term in place of
    the bracket term, would compute. Both oracle systems have a zero f2, so
    the averaged drift is the bracket term alone and each error multiplies
    it by a constant: the engine's gain matrix and sin/cos drift are scaled
    by factor = (-1 if flip_bracket) * (2 if swap_prefactors), and the
    rotation residual by |factor|. Scaling by -1 and 2 rounds nothing, so
    the report is the broken engine's wherever both stop refining at the
    same level.
    """
    factor = (-1 if flip_bracket else 1) * (2 if swap_prefactors else 1)
    params = seek3d.SeekParams(alpha=1.0 / 8.0, omega=4.0 * math.pi, mu=1.0 / (16.0 * math.pi**2))
    a_matrix, rot_res, _ = seek3d.compute_A_numeric(params, n_probes=n_probes, seed=seed)
    a_matrix, rot_res = factor * a_matrix, abs(factor) * rot_res
    a_error = float(np.abs(a_matrix - seek3d.AVERAGED_GAIN).max())

    averaged = avgcore.average_fields(sincos_test_system())
    rng = np.random.default_rng(seed)
    sincos_error = 0.0
    for _ in range(10):
        x = rng.normal(0.0, 1.0, 2)
        dev = np.abs(factor * averaged(x, 0.0) - sincos_expected_drift(x)).max()
        sincos_error = max(sincos_error, float(dev))

    passed = a_error <= A_TOL and rot_res <= ROT_TOL and sincos_error <= SINCOS_TOL
    diagnosis = ""
    if not passed:
        if np.abs(a_matrix + seek3d.AVERAGED_GAIN).max() <= A_TOL:
            diagnosis = (
                "computed gain is the negative of the reference: "
                "the bracket sign convention is inverted"
            )
        elif np.abs(a_matrix - 2.0 * seek3d.AVERAGED_GAIN).max() <= 1e-4:
            diagnosis = (
                "computed gain is twice the reference: the 1/2 prefactor "
                "sits on the mean term instead of the bracket term"
            )
        else:
            diagnosis = "discrepancy does not match a known convention error"
    return VerificationReport(a_matrix, a_error, rot_res, sincos_error, passed, diagnosis)
