"""3D source seeking for a rigid body with a single collocated scalar sensor.

The vehicle translates along its body x-axis at constant speed sqrt(2 w) and
is steered by roll and yaw inputs built from a washout filter of the sensed
signal strength. Four representations of the same closed loop are provided:

* full:        state (p, R, z) with the literal feedback law;
* transformed: state (p, Q, z) in the co-rotating frame that removes the
               nominal yaw and roll phases (an exact change of variables);
* embedded:    the transformed rotation unpacked into R^12 column
               coordinates, packaged as a slow/fast system for the averaging
               engine;
* rora:        the closed-form averaged limit dp/dt = Q A Q^T grad c with
               the constant gain matrix A = [[3,1,0],[1,3,0],[0,0,2]] / 4.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import avgcore
from .avgcore import SingularField, SingularSystem
from .geom3 import as_mat3, as_vec3, rot_exp, rot_z
from .odeint import IntegratorSettings, Trajectory, integrate

AVERAGED_GAIN = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 2.0]]) / 4.0
# largest per-equation mismatch compute_A_numeric accepts in its linear fit
_FIT_TOL = 1e-6


@dataclass(frozen=True)
class SeekParams:
    """Roll amplitude coefficient, forcing frequency, filter time constant."""

    alpha: float
    omega: float
    mu: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.alpha, self.omega, self.mu)):
            raise ValueError("alpha, omega, mu must all be finite and strictly positive")

    @property
    def sigma_period(self) -> float:
        """Period in sigma of the roll-frame rotation (angle alpha*sigma*sqrt(2))."""
        return math.sqrt(2.0) * math.pi / self.alpha

    @property
    def tau_period(self) -> float:
        """Common period in tau of the translation and roll oscillations."""
        return 2.0 * math.pi


@dataclass(frozen=True)
class SignalField:
    """Scalar strength field with analytic gradient and the source path."""

    strength: Callable  # (p, t) -> float
    gradient: Callable  # (p, t) -> (3,)
    source: Callable  # t -> (3,)
    kappa: Optional[float] = None


def signal_field(kind: str, **params) -> SignalField:
    """Log-family field c(p, t) = -log(1 + |p - p*(t)|^2 / 2).

    kind "static": fixed source at `center` (default origin).
    kind "orbit": source on the closed path
        (r sin(a t), r cos(a t), h cos(b t))
    with radius r (`radius`, default 2), rate a (`rate`, default 0.05),
    vertical amplitude h (`height`, default 2) and rate b (`vertical_rate`,
    default 0.1). Every parameter, and `kappa` when given, must be finite.
    """
    kappa = params.pop("kappa", None)
    if kappa is not None:
        kappa = float(kappa)
        if not math.isfinite(kappa):
            raise ValueError(f"kappa must be finite, got {kappa!r}")
    if kind == "static":
        center = as_vec3(params.pop("center", np.zeros(3)))
        if params:
            raise ValueError(f"unknown parameters for static field: {sorted(params)}")
        source = lambda t: center
    elif kind == "orbit":
        r = float(params.pop("radius", 2.0))
        a = float(params.pop("rate", 0.05))
        h = float(params.pop("height", 2.0))
        b = float(params.pop("vertical_rate", 0.1))
        if params:
            raise ValueError(f"unknown parameters for orbit field: {sorted(params)}")
        if not all(map(math.isfinite, (r, a, h, b))):
            raise ValueError("orbit radius, rates and height must be finite")

        def source(t):
            return np.array([r * math.sin(a * t), r * math.cos(a * t), h * math.cos(b * t)])
    else:
        raise ValueError(f"unknown field kind {kind!r}")

    def strength(p, t):
        d = p - source(t)
        return -math.log1p(0.5 * float(d @ d))

    def gradient(p, t):
        d = p - source(t)
        return -d / (1.0 + 0.5 * float(d @ d))

    return SignalField(strength=strength, gradient=gradient, source=source, kappa=kappa)


@dataclass(frozen=True)
class RigidState:
    """Seeker state: position, body-to-reference rotation, filter value."""

    p: np.ndarray
    R: np.ndarray
    z: float


EMBEDDED_DIM = 12  # p(3), q1(3), q2(3), q3(3)
_ROT_BLOCK = (3,)  # rotation coordinates start at offset 3 in all layouts


def embed_columns(p, Q) -> np.ndarray:
    """Pack (p, Q) into the 12-vector [p, q1, q2, q3] of Q's columns."""
    Q = as_mat3(Q)
    return np.concatenate([as_vec3(p), Q[:, 0], Q[:, 1], Q[:, 2]])


def split_columns(x):
    """Inverse of embed_columns: returns (p, Q)."""
    x = np.asarray(x, dtype=float)
    Q = np.column_stack([x[3:6], x[6:9], x[9:12]])
    return x[0:3].copy(), Q


def manifold_defect(x) -> float:
    """Deviation of the embedded rotation coordinates from the group structure.

    Checks both orthonormality q_i . q_j = delta_ij and the orientation
    (right-handedness) relations q_i x q_j = q_k for cyclic (i, j, k).
    """
    _, Q = split_columns(x)
    ortho = np.abs(Q.T @ Q - np.eye(3)).max()
    cols = [Q[:, 0], Q[:, 1], Q[:, 2]]
    cross = max(
        np.abs(np.cross(cols[i], cols[(i + 1) % 3]) - cols[(i + 2) % 3]).max()
        for i in range(3)
    )
    return float(max(ortho, cross))


# ---------------------------------------------------------------------------
# the feedback law and its representations

def _feedback(p, z: float, t: float, params: SeekParams, field: SignalField):
    """Roll rate, yaw rate, and filter derivative of the seeking law.

    dz/dt = (c(p, t) - z) / mu, yaw = omega - dz/dt, and the roll
    oscillates as 2 alpha sqrt(2 omega) sin(omega t - z + pi/4).
    """
    zdot = (field.strength(p, t) - z) / params.mu
    omega_roll = (
        2.0
        * params.alpha
        * math.sqrt(2.0 * params.omega)
        * math.sin(params.omega * t - z + math.pi / 4.0)
    )
    return omega_roll, params.omega - zdot, zdot


def _rigid_rates(q, v, w, zdot) -> list:
    """The 13 floats [M v, rows of M hat(w), zdot] for M given as 9 row-major floats.

    Row i of M hat(w) is m_i x w for the i-th row m_i of M.
    """
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = q
    v0, v1, v2 = v
    w0, w1, w2 = w
    return [
        m00 * v0 + m01 * v1 + m02 * v2,
        m10 * v0 + m11 * v1 + m12 * v2,
        m20 * v0 + m21 * v1 + m22 * v2,
        m01 * w2 - m02 * w1, m02 * w0 - m00 * w2, m00 * w1 - m01 * w0,
        m11 * w2 - m12 * w1, m12 * w0 - m10 * w2, m10 * w1 - m11 * w0,
        m21 * w2 - m22 * w1, m22 * w0 - m20 * w2, m20 * w1 - m21 * w0,
        zdot,
    ]


def _full_rates(p, r, z, t, params, field) -> list:
    omega_roll, omega_yaw, zdot = _feedback(p, z, t, params, field)
    speed = math.sqrt(2.0 * params.omega)
    return _rigid_rates(r, (speed, 0.0, 0.0), (omega_roll, 0.0, omega_yaw), zdot)


def full_rhs(state: RigidState, t: float, params: SeekParams, field: SignalField):
    """Closed-loop kinematics: dp = sqrt(2 w) R e1, dR = R hat(roll e1 + yaw e3)."""
    out = np.array(
        _full_rates(state.p, np.ravel(state.R).tolist(), float(state.z), t, params, field)
    )
    return out[0:3], out[3:12].reshape(3, 3), float(out[12])


def _full_rhs_flat(t, y, params, field):
    return _full_rates(y[0:3], y[3:12], y[12], t, params, field)


_SQRT2 = math.sqrt(2.0)
# hat of the roll axis n = (e1 + e2) / sqrt(2), and n n^T
_ROLL_HAT = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]) / _SQRT2
_ROLL_OUTER = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]) / 2.0


def roll_frame(sigma, alpha: float) -> np.ndarray:
    """Co-rotating roll frame R2 = exp(alpha sigma (hat(e1) + hat(e2))).

    R2 turns by th = sqrt(2) alpha sigma about n = (e1 + e2) / sqrt(2), so
    R2 = cos th I + sin th hat(n) + (1 - cos th) n n^T. Broadcasts: sigma of
    shape (...) gives shape (..., 3, 3).
    """
    th = _SQRT2 * alpha * np.asarray(sigma, dtype=float)[..., None, None]
    c = np.cos(th)
    return c * np.eye(3) + np.sin(th) * _ROLL_HAT + (1.0 - c) * _ROLL_OUTER


def _turn_in_plane(c, s, u, v):
    """Components of R2 (u, v, 0) for R2 of angle th, with c = cos th, s = sin th.

    Rodrigues' formula cos th x + sin th (n x x) + (1 - cos th) (n . x) n on
    an in-plane x; u and v may be arrays of one shape.
    """
    h = 0.5 * (1.0 - c) * (u + v)
    return c * u + h, c * v + h, (v - u) * (s / _SQRT2)


def _frame_vectors(z: float, sigma: float, tau: float, alpha: float):
    """The vectors f and L of transformed_rhs as two 3-tuples of floats.

    f = sqrt(2) R2(sigma) R1(tau, z) e1 and
    L = alpha R2(sigma) exp(2 (tau - z) hat(e3)) (e1 - e2), at scalar
    arguments; _embedded_frame is the same map over a tau grid.
    """
    th = _SQRT2 * alpha * sigma
    c, s = math.cos(th), math.sin(th)
    phi = tau - z
    f = _turn_in_plane(c, s, _SQRT2 * math.cos(phi), _SQRT2 * math.sin(phi))
    c2, s2 = math.cos(2.0 * phi), math.sin(2.0 * phi)
    lam = _turn_in_plane(c, s, alpha * (c2 + s2), alpha * (s2 - c2))
    return f, lam


def _transformed_rates(p, q, z, t, params, field) -> list:
    sqw = math.sqrt(params.omega)
    (f0, f1, f2), (l0, l1, l2) = _frame_vectors(z, sqw * t, params.omega * t, params.alpha)
    zdot = (field.strength(p, t) - z) / params.mu
    return _rigid_rates(q, (sqw * f0, sqw * f1, sqw * f2), (sqw * l0, sqw * l1, sqw * l2), zdot)


def transformed_rhs(p, Q, z, t, params: SeekParams, field: SignalField):
    """Dynamics of the co-rotating representation.

    dp = sqrt(w) Q f, dQ = sqrt(w) Q hat(L) with f = sqrt(2) R2(sigma)
    R1(tau, z) e1 and L = alpha R2(sigma) exp(2 (tau - z) hat(e3)) (e1 - e2),
    where sigma = sqrt(w) t and tau = w t.
    """
    out = np.array(_transformed_rates(p, np.ravel(Q).tolist(), float(z), t, params, field))
    return out[0:3], out[3:12].reshape(3, 3), float(out[12])


def _transformed_rhs_flat(t, y, params, field):
    return _transformed_rates(y[0:3], y[3:12], y[12], t, params, field)


def reconstruct_R(Q, z, t, params: SeekParams) -> np.ndarray:
    """Recover the physical attitude R = Q R2(sigma) R1(tau, z).

    Broadcasts: Q of shape (..., 3, 3) with z and t of shape (...) gives
    shape (..., 3, 3).
    """
    t = np.asarray(t, dtype=float)
    return (
        np.asarray(Q, dtype=float)
        @ roll_frame(math.sqrt(params.omega) * t, params.alpha)
        @ rot_z(params.omega * t - z)
    )


def initial_Q(R0, z0: float, t0: float, params: SeekParams) -> np.ndarray:
    """Co-rotating frame matching R0 at time t0: Q = R R1^T R2^T."""
    sigma = math.sqrt(params.omega) * t0
    tau = params.omega * t0
    return as_mat3(R0) @ rot_z(tau - z0).T @ roll_frame(sigma, params.alpha).T


def rora_rhs(p, Q, t, field: SignalField):
    """Closed-form averaged drift: dp = Q A Q^T grad c(p, t), dQ = 0.

    Returns (dp, dQ, zbar) with zbar = c(p, t), the quasi-steady filter value.
    """
    dp = Q @ (AVERAGED_GAIN @ (Q.T @ field.gradient(p, t)))
    return dp, np.zeros((3, 3)), field.strength(p, t)


_GAIN = AVERAGED_GAIN.ravel().tolist()


def _rora_rates(p, q, t, field) -> list:
    """rora_rhs's (dp, dQ) as 12 floats, for Q given as 9 row-major floats.

    dp = Q v with v = A u and u = Q^T grad c; dQ is zero.
    """
    g0, g1, g2 = field.gradient(p, t).tolist()
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = q
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = _GAIN
    u0 = m00 * g0 + m10 * g1 + m20 * g2
    u1 = m01 * g0 + m11 * g1 + m21 * g2
    u2 = m02 * g0 + m12 * g1 + m22 * g2
    v0 = a00 * u0 + a01 * u1 + a02 * u2
    v1 = a10 * u0 + a11 * u1 + a12 * u2
    v2 = a20 * u0 + a21 * u1 + a22 * u2
    return [
        m00 * v0 + m01 * v1 + m02 * v2,
        m10 * v0 + m11 * v1 + m12 * v2,
        m20 * v0 + m21 * v1 + m22 * v2,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    ]


# ---------------------------------------------------------------------------
# embedding into R^12 for the averaging engine

def _embedded_frame(z: float, sigma: float, taus, alpha: float):
    """_frame_vectors's f and L on a tau grid, both of shape (3, len(taus))."""
    th = _SQRT2 * alpha * sigma
    c, s = math.cos(th), math.sin(th)
    phi = np.asarray(taus) - z
    c2, s2 = np.cos(2.0 * phi), np.sin(2.0 * phi)
    f = np.array(_turn_in_plane(c, s, _SQRT2 * np.cos(phi), _SQRT2 * np.sin(phi)))
    lam = np.array(_turn_in_plane(c, s, alpha * (c2 + s2), alpha * (s2 - c2)))
    return f, lam


def _embedded_frame_dz(z: float, sigma: float, taus, alpha: float):
    """d f/dz and d L/dz on a tau grid, both of shape (3, len(taus)).

    The heading and the roll axis turn about e3 at angle rates 1 and 2 in
    tau - z, so their z-derivatives are -hat(e3) and -2 hat(e3) applied to
    f and L, again in-plane vectors.
    """
    th = _SQRT2 * alpha * sigma
    c, s = math.cos(th), math.sin(th)
    phi = np.asarray(taus) - z
    c2, s2 = np.cos(2.0 * phi), np.sin(2.0 * phi)
    fz = np.array(_turn_in_plane(c, s, _SQRT2 * np.sin(phi), -_SQRT2 * np.cos(phi)))
    lamz = np.array(_turn_in_plane(c, s, 2.0 * alpha * (s2 - c2), -2.0 * alpha * (c2 + s2)))
    return fz, lamz


def _embedded_rows(x, f, lam):
    """Embedded field rows, shape (m, 12), for f and L of shape (3, m).

    The translation rows are f.T @ x[3:12] as the matrix of rows q_i; the
    column rows broadcast L's rows against the q_i, np.outer's products bit
    for bit. Linear in (f, L): the same map of their z-derivatives is jac_z.
    """
    q1, q2, q3 = x[3:6], x[6:9], x[9:12]
    l0, l1, l2 = lam[:, :, None]
    out = np.empty((f.shape[1], 12))
    out[:, 0:3] = f.T @ x[3:12].reshape(3, 3)
    out[:, 3:6] = l2 * q2 - l1 * q3
    out[:, 6:9] = l0 * q3 - l2 * q1
    out[:, 9:12] = l1 * q1 - l0 * q2
    return out


def _embedded_rates(x, z: float, sigma: float, tau: float, alpha: float) -> list:
    """The 12 floats of _embedded_rows at one tau, for x given as 12 floats.

    Q f, then the column rows [L2 q2 - L1 q3, L0 q3 - L2 q1, L1 q1 - L0 q2],
    with f and L from _frame_vectors.
    """
    (f0, f1, f2), (l0, l1, l2) = _frame_vectors(z, sigma, tau, alpha)
    _, _, _, a0, a1, a2, b0, b1, b2, c0, c1, c2 = x
    return [
        f0 * a0 + f1 * b0 + f2 * c0,
        f0 * a1 + f1 * b1 + f2 * c1,
        f0 * a2 + f1 * b2 + f2 * c2,
        l2 * b0 - l1 * c0, l2 * b1 - l1 * c1, l2 * b2 - l1 * c2,
        l0 * c0 - l2 * a0, l0 * c1 - l2 * a1, l0 * c2 - l2 * a2,
        l1 * a0 - l0 * b0, l1 * a1 - l0 * b1, l1 * a2 - l0 * b2,
    ]


def embedded_field(params: SeekParams) -> SingularField:
    """The R^12 coordinate field of the transformed kinematics.

    Translation rows carry sum_i f_i q_i; each rotation-column row j carries
    sum_{i,k} L_i eps_{ijk} q_k, the cross-product structure written without
    reference to the group so that state Jacobians are plain matrices.

    The callbacks keep SingularField's contract, and func picks its kernel
    by tau: a tau array gets the broadcast rows of shape (len(tau), 12)
    (_embedded_rows), and a scalar tau gets the 12 floats of
    _embedded_rates as a list, for a state given as a list of floats or as
    an array. jac_x and jac_z take tau arrays only.
    """
    alpha, ndarray = params.alpha, np.ndarray

    def func(x, z, t, sigma, tau):
        # an exact type test on a local name: on a float tau, the sweep's RK4
        # stages pay ~40 ns a call more for isinstance(tau, np.ndarray)
        if type(tau) is ndarray:
            f, lam = _embedded_frame(float(z[0]), sigma, tau, alpha)
            return _embedded_rows(np.asarray(x, float), f, lam)
        return _embedded_rates(x, float(z[0]), sigma, tau, alpha)

    def jac_x(x, z, t, sigma, taus):
        f, lam = _embedded_frame(float(z[0]), sigma, taus, alpha)
        jac = np.zeros((len(taus), 12, 12))
        eye = np.eye(3)
        for i in range(3):
            jac[:, 0:3, 3 + 3 * i : 6 + 3 * i] = f[i][:, None, None] * eye
        jac[:, 3:6, 6:9] = lam[2][:, None, None] * eye
        jac[:, 3:6, 9:12] = -lam[1][:, None, None] * eye
        jac[:, 6:9, 9:12] = lam[0][:, None, None] * eye
        jac[:, 6:9, 3:6] = -lam[2][:, None, None] * eye
        jac[:, 9:12, 3:6] = lam[1][:, None, None] * eye
        jac[:, 9:12, 6:9] = -lam[0][:, None, None] * eye
        return jac

    def jac_z(x, z, t, sigma, taus):
        fz, lamz = _embedded_frame_dz(float(z[0]), sigma, taus, alpha)
        return _embedded_rows(np.asarray(x, float), fz, lamz)[:, :, None]

    return SingularField(
        dim=EMBEDDED_DIM,
        fast_dim=1,
        func=func,
        T1=params.sigma_period,
        T2=params.tau_period,
        jac_x=jac_x,
        jac_z=jac_z,
        depends_sigma=True,
    )


def embedded_system(
    params: SeekParams, field: SignalField, validate: bool = True
) -> SingularSystem:
    """Package the embedded kinematics as a slow/fast averaging problem.

    The fast state is the filter value with g(x, z) = c(p, t) - z and
    quasi-steady map phi(x) = c(p, t); the oscillatory drift is entirely in
    the sqrt(w) slot, so f2 is None, the zero order-one field.
    """

    def g(x, z, t):
        return np.array([field.strength(x[0:3], t) - float(z[0])])

    def phi(x, t):
        return np.array([field.strength(x[0:3], t)])

    def phi_jac(x, t):
        out = np.zeros((1, EMBEDDED_DIM))
        out[0, 0:3] = field.gradient(x[0:3], t)
        return out

    return SingularSystem(
        f1=embedded_field(params),
        f2=None,
        g=g,
        phi=phi,
        mu=params.mu,
        omega=params.omega,
        phi_jac=phi_jac,
        validate=validate,
    )


def compute_A_numeric(
    params: SeekParams,
    *,
    n_probes: int = 24,
    seed: int = 7,
):
    """Recover the averaged gain matrix from the generic averaging engine.

    Averages the embedded system of the static log-family field with the
    default quadrature settings and the engine's fixed bracket sign and
    prefactors (runner.verify scales the result to show a broken one),
    evaluates the reduced averaged field at random (p, Q) probes and solves
    the overdetermined linear system Q^T v_translation = A (Q^T grad c) for
    the constant matrix A. Returns (A, rotation_residual, fit_residual)
    where rotation_residual is the largest averaged rotation-row entry seen
    (the averaged frame must be stationary) and fit_residual the worst
    per-equation mismatch of the linear fit. A fit residual above 1e-6
    means the averaged translation is not of the assumed form, which
    signals a convention error upstream; that raises ArithmeticError.
    """
    field = signal_field("static")
    ssys = embedded_system(params, field, validate=False)
    averaged = avgcore.rora_reduce(ssys)
    rng = np.random.default_rng(seed)
    rows, rhs = [], []
    rotation_residual = 0.0
    for _ in range(n_probes):
        p = rng.normal(0.0, 2.0, 3)
        Q = rot_exp(rng.normal(0.0, 1.0, 3))
        x = embed_columns(p, Q)
        v = averaged(x, 0.0)
        rotation_residual = max(rotation_residual, float(np.abs(v[3:]).max()))
        u = Q.T @ field.gradient(p, 0.0)
        w = Q.T @ v[0:3]
        for i in range(3):
            row = np.zeros(9)
            row[3 * i : 3 * i + 3] = u
            rows.append(row)
            rhs.append(w[i])
    rows = np.array(rows)
    rhs = np.array(rhs)
    coeffs, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    fit_residual = float(np.abs(rows @ coeffs - rhs).max())
    if fit_residual > _FIT_TOL:
        raise ArithmeticError(
            "averaged translation drift does not fit the Q A Q^T grad c form "
            f"(residual {fit_residual:.3e}); averaging conventions are inconsistent"
        )
    return coeffs.reshape(3, 3), rotation_residual, fit_residual


# ---------------------------------------------------------------------------
# trajectory helpers shared by the scenario runner and the tests

def _seek_dt(params: SeekParams, settings: IntegratorSettings) -> float:
    # the filter adds a relaxation scale mu that the fixed step must resolve:
    # explicit RK4 diverges once dt/mu exceeds ~2.8
    return min(params.tau_period / params.omega / settings.steps_per_period, params.mu)


def _projected_trajectory(rhs_flat, params, field, p0, M0, z0, t0, tf, settings, sample_dt):
    y0 = np.concatenate([as_vec3(p0), as_mat3(M0).ravel(), [float(z0)]])
    return integrate(
        lambda t, y: rhs_flat(t, y, params, field), y0, t0, t0 + tf, settings,
        rotation_blocks=_ROT_BLOCK, dt=_seek_dt(params, settings), sample_dt=sample_dt,
    )


def full_trajectory(
    params: SeekParams,
    field: SignalField,
    p0,
    R0,
    z0: float,
    t0: float,
    tf: float,
    settings: IntegratorSettings = IntegratorSettings(),
    *,
    sample_dt: float = None,
) -> Trajectory:
    """Integrate the literal closed loop; states are [p, R rows, z]."""
    return _projected_trajectory(
        _full_rhs_flat, params, field, p0, R0, z0, t0, tf, settings, sample_dt
    )


def transformed_trajectory(
    params: SeekParams,
    field: SignalField,
    p0,
    Q0,
    z0: float,
    t0: float,
    tf: float,
    settings: IntegratorSettings = IntegratorSettings(),
    *,
    sample_dt: float = None,
) -> Trajectory:
    """Integrate the co-rotating representation; states are [p, Q rows, z]."""
    return _projected_trajectory(
        _transformed_rhs_flat, params, field, p0, Q0, z0, t0, tf, settings, sample_dt
    )


def rora_trajectory(
    params: SeekParams,
    field: SignalField,
    p0,
    Q0,
    t0: float,
    tf: float,
    settings: IntegratorSettings = IntegratorSettings(),
    *,
    sample_dt: float = None,
) -> Trajectory:
    """Integrate the closed-form averaged flow; states are [p, Q rows].

    The averaged frame is constant by construction, so the rotation block
    needs no projection; the drift is order-one and integrates on a
    1 / steps_per_period step.
    """
    y0 = np.concatenate([as_vec3(p0), as_mat3(Q0).ravel()])
    return integrate(
        lambda t, y: _rora_rates(y[0:3], y[3:12], t, field), y0, t0, t0 + tf, settings,
        dt=1.0 / settings.steps_per_period, sample_dt=sample_dt,
    )
