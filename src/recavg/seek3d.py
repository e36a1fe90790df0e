"""3D source seeking for a rigid body with a single collocated scalar sensor.

The vehicle translates along its body x-axis at constant speed sqrt(2 w) and
is steered by roll and yaw inputs built from a washout filter of the sensed
signal strength. Four representations of the same closed loop are provided:

* full:        state (p, R, z) with the literal feedback law;
* transformed: state (p, Q, z) in the co-rotating frame that removes the
               nominal yaw and roll phases (an exact change of variables);
* embedded:    the transformed state without z, [p, rows of Q] in R^12,
               packaged as a slow/fast system for the averaging engine;
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


EMBEDDED_DIM = 12  # p(3), the rows of Q (9)
_ROT_BLOCK = (3,)  # rotation coordinates start at offset 3 in all layouts


def embed_columns(p, Q) -> np.ndarray:
    """Pack (p, Q) into the embedded 12-vector [p, rows of Q].

    The layout is the transformed state's without z. The name is older than
    the layout and stays because the benchmark under perfbench/ calls it.
    """
    return np.concatenate([as_vec3(p), as_mat3(Q).ravel()])


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


def _rigid_rates(q, v, w) -> list:
    """The 12 floats [M v, rows of M hat(w)] for M given as 9 row-major floats.

    Row i of M hat(w) is m_i x w for the i-th row m_i of M. The full and
    transformed kernels append zdot; the embedded and rora ones do not.
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
    ]


def _full_rates(p, r, z, t, params, field) -> list:
    omega_roll, omega_yaw, zdot = _feedback(p, z, t, params, field)
    speed = math.sqrt(2.0 * params.omega)
    rates = _rigid_rates(r, (speed, 0.0, 0.0), (omega_roll, 0.0, omega_yaw))
    rates.append(zdot)
    return rates


def full_rhs(state: RigidState, t: float, params: SeekParams, field: SignalField):
    """Closed-loop kinematics: dp = sqrt(2 w) R e1, dR = R hat(roll e1 + yaw e3)."""
    out = np.array(
        _full_rates(state.p, np.ravel(state.R).tolist(), float(state.z), t, params, field)
    )
    return out[0:3], out[3:12].reshape(3, 3), float(out[12])


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


def transformed_rhs(p, Q, z, t, params: SeekParams, field: SignalField):
    """Dynamics of the co-rotating representation.

    dp = sqrt(w) Q f, dQ = sqrt(w) Q hat(L) with f = sqrt(2) R2(sigma)
    R1(tau, z) e1 and L = alpha R2(sigma) exp(2 (tau - z) hat(e3)) (e1 - e2),
    where sigma = sqrt(w) t and tau = w t: sqrt(w) times the embedded
    field's scalar kernel, and dz = g / mu of embedded_system.
    """
    sqw = math.sqrt(params.omega)
    frame = _frame_vectors(float(z), sqw * t, params.omega * t, params.alpha)
    out = sqw * np.array(_rigid_rates(np.ravel(Q).tolist(), *frame))
    zdot = (field.strength(p, t) - z) / params.mu
    return out[0:3], out[3:12].reshape(3, 3), float(zdot)


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

    The rigid rates of velocity v = A u, with u = Q^T grad c, and no turn:
    dp = Q v and dQ = Q hat(0), zero.
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
    return _rigid_rates(q, (v0, v1, v2), (0.0, 0.0, 0.0))


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

    At each node: Q f, then the rows q_i x L of Q hat(L), _rigid_rates's
    products and differences broadcast over the nodes. Linear in (f, L):
    the same map of their z-derivatives is jac_z.
    """
    Q = x[3:12].reshape(3, 3)
    l0, l1, l2 = lam[:, :, None]
    out = np.empty((f.shape[1], 4, 3))
    out[:, 0] = f.T @ Q.T
    out[:, 1:, 0] = l2 * Q[:, 1] - l1 * Q[:, 2]
    out[:, 1:, 1] = l0 * Q[:, 2] - l2 * Q[:, 0]
    out[:, 1:, 2] = l1 * Q[:, 0] - l0 * Q[:, 1]
    return out.reshape(-1, EMBEDDED_DIM)


def embedded_field(params: SeekParams) -> SingularField:
    """The R^12 field of the transformed kinematics on [p, rows of Q].

    dp = Q f and dQ = Q hat(L), with f and L from _frame_vectors and no
    sqrt(w) factor: the averaging engine applies it. Row i of dQ is q_i x L,
    written without reference to the group so that state Jacobians are
    plain matrices: f^T in the translation rows and -hat(L) on the diagonal
    of the rotation rows.

    The callbacks keep SingularField's contract, and func picks its kernel
    by tau: a tau array gets the broadcast rows of shape (len(tau), 12)
    (_embedded_rows), and a scalar tau gets _rigid_rates's 12 floats as a
    list, for a state given as a list of floats or as an array. jac_x and
    jac_z take tau arrays only.
    """
    alpha, ndarray = params.alpha, np.ndarray

    def func(x, z, t, sigma, tau):
        # an exact type test on a local name: on a float tau, the sweep's RK4
        # stages pay ~40 ns a call more for isinstance(tau, np.ndarray)
        if type(tau) is ndarray:
            f, lam = _embedded_frame(z[0], sigma, tau, alpha)
            return _embedded_rows(np.asarray(x, float), f, lam)
        return _rigid_rates(x[3:12], *_frame_vectors(z[0], sigma, tau, alpha))

    def jac_x(x, z, t, sigma, taus):
        f, (l0, l1, l2) = _embedded_frame(z[0], sigma, taus, alpha)
        zero = np.zeros_like(l0)
        minus_hat = np.moveaxis(np.array([[zero, l2, -l1], [-l2, zero, l0], [l1, -l0, zero]]), 2, 0)
        jac = np.zeros((len(taus), 4, 3, 4, 3))
        for i in range(3):
            jac[:, 0, i, 1 + i] = f.T
            jac[:, 1 + i, :, 1 + i] = minus_hat
        return jac.reshape(-1, EMBEDDED_DIM, EMBEDDED_DIM)

    def jac_z(x, z, t, sigma, taus):
        fz, lamz = _embedded_frame_dz(z[0], sigma, taus, alpha)
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
    quasi-steady map phi(x) = c(p, t); g and phi answer their fast_dim = 1
    value as a one-element list. The oscillatory drift is entirely in the
    sqrt(w) slot, so f2 is None, the zero order-one field.
    """

    def g(x, z, t):
        return [field.strength(x[0:3], t) - z[0]]

    def phi(x, t):
        return [field.strength(x[0:3], t)]

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
    us, ws = [], []
    rotation_residual = 0.0
    for _ in range(n_probes):
        p = rng.normal(0.0, 2.0, 3)
        Q = rot_exp(rng.normal(0.0, 1.0, 3))
        v = averaged(embed_columns(p, Q), 0.0)
        rotation_residual = max(rotation_residual, float(np.abs(v[3:]).max()))
        us.append(Q.T @ field.gradient(p, 0.0))
        ws.append(Q.T @ v[0:3])
    # each probe's w = A u is a row of U A^T = W
    us, ws = np.array(us), np.array(ws)
    coeffs, *_ = np.linalg.lstsq(us, ws, rcond=None)
    fit_residual = float(np.abs(us @ coeffs - ws).max())
    if fit_residual > _FIT_TOL:
        raise ArithmeticError(
            "averaged translation drift does not fit the Q A Q^T grad c form "
            f"(residual {fit_residual:.3e}); averaging conventions are inconsistent"
        )
    return coeffs.T, rotation_residual, fit_residual


# ---------------------------------------------------------------------------
# trajectory helpers shared by the scenario runner and the tests

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
    y0 = np.concatenate([as_vec3(p0), as_mat3(R0).ravel(), [float(z0)]])
    # the step transformed_trajectory takes: the runs share their grid
    dt = avgcore.oscillatory_step(
        params.sigma_period, params.tau_period, params.omega, params.mu, settings
    )
    return integrate(
        lambda t, y: _full_rates(y[0:3], y[3:12], y[12], t, params, field),
        y0, t0, t0 + tf, settings, rotation_blocks=_ROT_BLOCK, dt=dt, sample_dt=sample_dt,
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
    """Integrate the co-rotating representation, simulate_singular of
    embedded_system from [p0, rows of Q0] and z0; states are [p, Q rows, z].

    The phases are anchored at t0: sigma = sqrt(w) (t - t0) and
    tau = w (t - t0). From t0 = 0 they are the absolute phases of
    transformed_rhs and reconstruct_R.
    """
    return avgcore.simulate_singular(
        embedded_system(params, field, validate=False), embed_columns(p0, Q0), [z0],
        t0, tf, settings, sample_dt=sample_dt, rotation_blocks=_ROT_BLOCK,
    )


def rora_drift(field: SignalField) -> Callable:
    """The closed-form averaged drift (x, t) -> dx/dt on the rora state
    [p, rows of Q], as a list of 12 floats (_rora_rates)."""
    return lambda x, t: _rora_rates(x[0:3], x[3:12], t, field)


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
    """Integrate the closed-form averaged flow (simulate_averaged of
    rora_drift); states are [p, Q rows].

    The averaged frame is constant by construction, so the rotation block
    needs no projection.
    """
    y0 = np.concatenate([as_vec3(p0), as_mat3(Q0).ravel()])
    return avgcore.simulate_averaged(rora_drift(field), y0, t0, tf, settings, sample_dt=sample_dt)
