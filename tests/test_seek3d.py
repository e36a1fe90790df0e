"""Source-seeker checks across all four representations.

Key oracles: central finite differences of the signal strength for the
gradient, the constant-gain matrix recovered through the averaging engine,
and the exact change of variables between the full and co-rotating forms.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from recavg import avgcore, seek3d
from recavg.geom3 import E1, E2, E3, hat, rot_exp, so3_defect
from recavg.odeint import IntegratorSettings, integrate
from recavg.seek3d import (
    AVERAGED_GAIN,
    RigidState,
    SeekParams,
    _feedback,
    embed_columns,
    embedded_field,
    embedded_system,
    full_rhs,
    full_trajectory,
    initial_Q,
    reconstruct_R,
    rora_rhs,
    rora_trajectory,
    signal_field,
    transformed_rhs,
    transformed_trajectory,
)

import embedded_oracle as columns
from rk4_oracle import numpy_integrate

PARAMS = SeekParams(alpha=0.125, omega=4.0 * math.pi, mu=1.0 / (16.0 * math.pi**2))
STATIC = signal_field("static")
P0 = np.array([-2.0, -2.0, 6.0])


def fd_gradient(field, p, t, h=1e-6):
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (field.strength(p + e, t) - field.strength(p - e, t)) / (2.0 * h)
    return g


# --- signal field -------------------------------------------------------------

def test_strength_zero_at_source():
    assert STATIC.strength(np.zeros(3), 0.0) == 0.0
    orbit = signal_field("orbit")
    for t in (0.0, 7.3, 100.0):
        assert abs(orbit.strength(orbit.source(t), t)) < 1e-15


def test_strength_log_two():
    p = np.array([math.sqrt(2.0), 0.0, 0.0])
    assert abs(STATIC.strength(p, 0.0) + math.log(2.0)) < 1e-12


def test_gradient_closed_form_value():
    p = np.array([1.0, 0.0, 0.0])
    assert np.abs(STATIC.gradient(p, 0.0) - np.array([-2.0 / 3.0, 0.0, 0.0])).max() < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    orbit = signal_field("orbit")
    for field in (STATIC, orbit):
        for _ in range(10):
            p = rng.normal(0.0, 3.0, 3)
            t = float(rng.uniform(0.0, 50.0))
            assert np.abs(field.gradient(p, t) - fd_gradient(field, p, t)).max() < 1e-6


def test_orbit_path_matches_parameters():
    orbit = signal_field("orbit")
    t = 12.0
    expected = np.array(
        [2.0 * math.sin(0.05 * t), 2.0 * math.cos(0.05 * t), 2.0 * math.cos(0.1 * t)]
    )
    assert np.abs(orbit.source(t) - expected).max() < 1e-15


def test_unknown_field_kind_rejected():
    with pytest.raises(ValueError):
        signal_field("gaussian")
    with pytest.raises(ValueError):
        signal_field("static", wobble=3)


# --- control inputs and full dynamics ------------------------------------------

def test_zero_error_inputs():
    p = np.array([1.0, 1.0, 1.0])
    z = STATIC.strength(p, 0.0)
    roll, yaw, zdot = _feedback(p, z, 0.0, PARAMS, STATIC)
    assert zdot == 0.0
    assert yaw == PARAMS.omega


def test_roll_amplitude_extremes():
    # phase omega t - z + pi/4 equal to pi/2 gives the sine maximum
    z = math.pi / 4.0 - math.pi / 2.0  # at t = 0
    roll, _, _ = _feedback(np.zeros(3), z, 0.0, PARAMS, STATIC)
    assert abs(roll - 2.0 * PARAMS.alpha * math.sqrt(2.0 * PARAMS.omega)) < 1e-12
    roll0, _, _ = _feedback(np.zeros(3), math.pi / 4.0, 0.0, PARAMS, STATIC)
    assert abs(roll0) < 1e-12


def test_full_rhs_identity_attitude():
    state = RigidState(p=P0, R=np.eye(3), z=STATIC.strength(P0, 0.0))
    dp, _, _ = full_rhs(state, 0.0, PARAMS, STATIC)
    assert np.abs(dp - math.sqrt(2.0 * PARAMS.omega) * E1).max() < 1e-12


def test_full_rhs_speed_invariant():
    rng = np.random.default_rng(22)
    for _ in range(10):
        R = rot_exp(rng.normal(size=3))
        state = RigidState(p=rng.normal(size=3), R=R, z=0.3)
        dp, _, _ = full_rhs(state, 0.5, PARAMS, STATIC)
        assert abs(np.linalg.norm(dp) - math.sqrt(2.0 * PARAMS.omega)) < 1e-10


def test_full_rhs_attitude_equation():
    # zero filter error and zero roll phase: dR = R hat(omega e3)
    p = np.array([1.0, 1.0, 1.0])
    z = STATIC.strength(p, 0.0)
    t = (z - math.pi / 4.0) / PARAMS.omega  # sine phase is zero here
    state = RigidState(p=p, R=rot_exp(np.array([0.2, -0.1, 0.4])), z=z)
    _, dR, _ = full_rhs(state, t, PARAMS, STATIC)
    assert np.abs(dR - state.R @ hat(PARAMS.omega * E3)).max() < 1e-9


# --- transformed representation -------------------------------------------------

def test_transformed_reduces_to_identity_phases():
    # sigma = 0 and tau = z: every rotation factor is the identity
    z = 0.37
    t = 0.0
    params = PARAMS
    p = P0
    Q = np.eye(3)
    # evaluate the pieces directly at tau = z
    sigma = 0.0
    f, lam = seek3d._frame_vectors(z, sigma, z, params.alpha)
    assert np.abs(f - math.sqrt(2.0) * E1).max() < 1e-12
    assert np.abs(lam - params.alpha * (E1 - E2)).max() < 1e-12


def test_transformed_norm_invariants():
    rng = np.random.default_rng(23)
    for _ in range(20):
        z = float(rng.normal())
        t = float(rng.uniform(0.0, 10.0))
        sigma = math.sqrt(PARAMS.omega) * t
        tau = PARAMS.omega * t
        f, lam = seek3d._frame_vectors(z, sigma, tau, PARAMS.alpha)
        assert abs(np.linalg.norm(f) - math.sqrt(2.0)) < 1e-12
        assert abs(np.linalg.norm(lam) - PARAMS.alpha * math.sqrt(2.0)) < 1e-12


def test_transformed_speed_matches_full():
    # |dp| = sqrt(2 omega) in both representations
    z = -1.1
    dp, _, _ = transformed_rhs(P0, rot_exp(np.array([0.1, 0.2, 0.3])), z, 0.7, PARAMS, STATIC)
    assert abs(np.linalg.norm(dp) - math.sqrt(2.0 * PARAMS.omega)) < 1e-10


def test_reconstruct_R_at_time_zero():
    Q = rot_exp(np.array([0.3, -0.2, 0.5]))
    assert np.abs(reconstruct_R(Q, 0.0, 0.0, PARAMS) - Q).max() < 1e-15


def test_reconstruct_round_trip():
    rng = np.random.default_rng(24)
    for _ in range(10):
        R = rot_exp(rng.normal(size=3))
        z = float(rng.normal())
        t = float(rng.uniform(0.0, 20.0))
        Q = initial_Q(R, z, t, PARAMS)
        back = reconstruct_R(Q, z, t, PARAMS)
        assert np.abs(back - R).max() < 1e-12
        assert so3_defect(back) < 1e-12


# --- kernels against the forms they replaced ----------------------------------------
# Test-only oracles: the RigidState/hat form of the full dynamics and the
# rot_exp form of the co-rotating dynamics, as the library computed them
# before the scalar kernels.

def reference_full_rhs(p, R, z, t, params, field):
    zdot = (field.strength(p, t) - z) / params.mu
    omega_yaw = params.omega - zdot
    omega_roll = (
        2.0 * params.alpha * math.sqrt(2.0 * params.omega)
        * math.sin(params.omega * t - z + math.pi / 4.0)
    )
    dp = math.sqrt(2.0 * params.omega) * (R @ E1)
    return dp, R @ hat(omega_roll * E1 + omega_yaw * E3), zdot


def reference_transformed_rhs(p, Q, z, t, params, field):
    sigma, tau = math.sqrt(params.omega) * t, params.omega * t
    R2 = rot_exp(params.alpha * sigma * (E1 + E2))
    th = tau - z
    heading = np.array([math.cos(th), math.sin(th), 0.0])
    axis = np.array(
        [math.cos(2 * th) + math.sin(2 * th), math.sin(2 * th) - math.cos(2 * th), 0.0]
    )
    f = math.sqrt(2.0) * (R2 @ heading)
    lam = params.alpha * (R2 @ axis)
    sqw = math.sqrt(params.omega)
    dz = (field.strength(p, t) - z) / params.mu
    return sqw * (Q @ f), sqw * (Q @ hat(lam)), dz


def singular_rates(y, t, params, field):
    """The co-rotating RHS at state y = [p, rows of Q, z] as simulate_singular
    forms it from embedded_system's callbacks, phases anchored at t0 = 0."""
    ssys = embedded_system(params, field, validate=False)
    sqw = math.sqrt(params.omega)
    x, z = list(y[0:12]), list(y[12:])
    v = ssys.f1.func(x, z, t, sqw * t, params.omega * t)
    return [sqw * a for a in v] + [b / ssys.mu for b in ssys.g(x, z, t)]


def test_kernels_match_reference_forms():
    orbit = signal_field("orbit")
    rng = np.random.default_rng(29)
    for k in range(240):
        field = orbit if k % 2 else STATIC
        p = rng.normal(0.0, 3.0, 3)
        M = rot_exp(rng.normal(size=3))
        z = float(rng.normal(0.0, 2.0))
        t = float(rng.uniform(0.0, 200.0))
        y = np.concatenate([p, M.ravel(), [z]])
        views = (
            (seek3d._full_rates(y[0:3], y[3:12], y[12], t, PARAMS, field),
             full_rhs(RigidState(p, M, z), t, PARAMS, field), reference_full_rhs),
            (singular_rates(y.tolist(), t, PARAMS, field),
             transformed_rhs(p, M, z, t, PARAMS, field), reference_transformed_rhs),
        )
        for rates, public, reference in views:
            dp, dM, dz = reference(p, M, z, t, PARAMS, field)
            expected = np.concatenate([dp, dM.ravel(), [dz]])
            tol = 1e-12 * np.maximum(1.0, np.abs(expected))
            assert np.all(np.abs(np.array(rates) - expected) <= tol)
            got = np.concatenate([public[0], public[1].ravel(), [public[2]]])
            assert np.all(np.abs(got - expected) <= tol)
        sigma = math.sqrt(PARAMS.omega) * t
        R2 = rot_exp(PARAMS.alpha * sigma * (E1 + E2))
        assert np.abs(seek3d.roll_frame(sigma, PARAMS.alpha) - R2).max() <= 1e-12


def test_reconstruct_R_batch_matches_rows():
    rng = np.random.default_rng(30)
    Qs = np.array([rot_exp(rng.normal(size=3)) for _ in range(8)])
    zs = rng.normal(size=8)
    ts = rng.uniform(0.0, 50.0, 8)
    batch = reconstruct_R(Qs, zs, ts, PARAMS)
    for Q, z, t, R in zip(Qs, zs, ts, batch):
        assert np.abs(reconstruct_R(Q, z, t, PARAMS) - R).max() <= 1e-15


def _random_start(rng):
    """t0 in [0, 50] and a state [p, rows of a rotation, z] from rng."""
    t0 = float(rng.uniform(0.0, 50.0))
    y0 = np.concatenate([rng.normal(0.0, 3.0, 3), rot_exp(rng.normal(size=3)).ravel(),
                         [float(rng.normal(0.0, 2.0))]])
    return t0, y0


def test_float_path_matches_array_path():
    # the full seeker's list kernel through integrate's float loop, and the
    # same kernel wrapped in np.array through the numpy oracle, must agree
    # bit for bit
    orbit = signal_field("orbit")
    settings = IntegratorSettings(steps_per_period=64, projection=True)
    dt = avgcore.oscillatory_step(
        PARAMS.sigma_period, PARAMS.tau_period, PARAMS.omega, PARAMS.mu, settings
    )
    rng = np.random.default_rng(31)
    for k in range(20):
        field = orbit if k % 2 else STATIC
        t0, y0 = _random_start(rng)
        flat = lambda t, y: seek3d._full_rates(y[0:3], y[3:12], y[12], t, PARAMS, field)
        runs = [
            run(rhs, y0, t0, t0 + 21 * dt, settings, rotation_blocks=(3,), dt=dt,
                sample_dt=3 * dt)
            for run, rhs in (
                (integrate, flat),
                (numpy_integrate, lambda t, y: np.array(flat(t, y))),
            )
        ]
        # 21 steps, a sample every 3: after steps 3, 6, ..., 21
        assert len(runs[0]) == 8
        assert runs[0].times[-1] - runs[0].times[-2] == pytest.approx(3 * dt)
        assert np.array_equal(runs[0].times, runs[1].times)
        assert np.array_equal(runs[0].states, runs[1].states)


def test_simulate_singular_float_branch_matches_array_branch():
    # ex1's embedded system with list-answering callbacks runs simulate_singular's
    # float branch; the same callbacks wrapped to answer arrays run its numpy
    # branch; the two must agree bit for bit
    orbit = signal_field("orbit")
    settings = IntegratorSettings(steps_per_period=64, projection=True)
    dt = avgcore.oscillatory_step(
        PARAMS.sigma_period, PARAMS.tau_period, PARAMS.omega, PARAMS.mu, settings
    )
    rng = np.random.default_rng(33)
    for k in range(12):
        ssys = embedded_system(PARAMS, orbit if k % 2 else STATIC, validate=False)
        f1, g = ssys.f1.func, ssys.g
        seen = set()

        def listed(x, z, t, sigma, tau):
            seen.add(type(x))
            return f1(x, z, t, sigma, tau)

        arrays = replace(
            ssys,
            f1=replace(ssys.f1, func=lambda *a: np.array(f1(*a))),
            g=lambda x, z, t: np.array(g(x, z, t)),
        )
        t0, y0 = _random_start(rng)
        runs = [
            avgcore.simulate_singular(
                system, y0[0:12], y0[12:], t0, 24 * dt, settings,
                sample_dt=4 * dt, rotation_blocks=(3,),
            )
            for system in (replace(ssys, f1=replace(ssys.f1, func=listed)), arrays)
        ]
        # after the first call on x0, the float branch hands f1 lists
        assert list in seen
        assert len(runs[0]) == 7
        assert np.array_equal(runs[0].times, runs[1].times)
        assert np.array_equal(runs[0].states, runs[1].states)


def test_rora_kernel_matches_rora_rhs():
    # rora_rhs, the numpy form, is the oracle for the float kernel
    orbit = signal_field("orbit")
    rng = np.random.default_rng(32)
    for k in range(200):
        field = orbit if k % 2 else STATIC
        p = rng.normal(0.0, 3.0, 3)
        Q = rot_exp(rng.normal(size=3))
        t = float(rng.uniform(0.0, 200.0))
        dp, dQ, _ = rora_rhs(p, Q, t, field)
        got = seek3d._rora_rates(p.tolist(), Q.ravel().tolist(), t, field)
        assert all(type(v) is float for v in got)
        assert np.all(np.abs(np.array(got[0:3]) - dp) <= 1e-12 * np.abs(dp).max())
        assert got[3:12] == dQ.ravel().tolist()


# --- embedding -------------------------------------------------------------------

def test_embedded_translation_at_reference_phases():
    x = embed_columns(P0, np.eye(3))
    f1 = embedded_field(PARAMS)
    out = f1.func(x, np.array([0.0]), 0.0, 0.0, 0.0)
    assert np.abs(out[0:3] - math.sqrt(2.0) * E1).max() < 1e-12


def test_embedded_field_matches_transformed_rhs():
    # the R^12 field is the co-rotating dynamics of (p, Q) without z, over
    # sqrt(w); the rot_exp form is the oracle of both
    f1 = embedded_field(PARAMS)
    sqw = math.sqrt(PARAMS.omega)
    rng = np.random.default_rng(28)
    for _ in range(16):
        p = rng.normal(0.0, 2.0, 3)
        Q = rot_exp(rng.normal(size=3))
        z = float(rng.normal())
        t = float(rng.uniform(0.0, 50.0))
        got = np.array(f1.func(embed_columns(p, Q).tolist(), [z], t, sqw * t, PARAMS.omega * t))
        dp, dQ, _ = reference_transformed_rhs(p, Q, z, t, PARAMS, STATIC)
        assert np.abs(got - np.concatenate([dp, dQ.ravel()]) / sqw).max() < 1e-12
        dp, dQ, _ = transformed_rhs(p, Q, z, t, PARAMS, STATIC)
        assert np.array_equal(sqw * got, np.concatenate([dp, dQ.ravel()]))


def test_embedded_field_periodicity():
    f1 = embedded_field(PARAMS)
    rng = np.random.default_rng(25)
    for _ in range(16):
        x = rng.normal(size=12)
        z = np.array([rng.normal()])
        sigma = float(rng.uniform(0.0, PARAMS.sigma_period))
        tau = float(rng.uniform(0.0, PARAMS.tau_period))
        base = np.asarray(f1.func(x, z, 0.0, sigma, tau))
        assert np.abs(f1.func(x, z, 0.0, sigma + PARAMS.sigma_period, tau) - base).max() < 1e-9
        assert np.abs(f1.func(x, z, 0.0, sigma, tau + PARAMS.tau_period) - base).max() < 1e-9


def test_embedded_jacobians_match_finite_differences():
    f1 = embedded_field(PARAMS)
    rng = np.random.default_rng(26)
    x = rng.normal(size=12)
    z = np.array([0.4])
    sigma, taus = 1.3, np.array([2.1])
    jx = f1.jac_x(x, z, 0.0, sigma, taus)[0]
    jz = f1.jac_z(x, z, 0.0, sigma, taus)[0]
    h = 1e-6
    row = lambda y, zz: f1.func(y, zz, 0.0, sigma, taus)[0]
    for j in range(12):
        e = np.zeros(12)
        e[j] = h
        fd = (row(x + e, z) - row(x - e, z)) / (2 * h)
        assert np.abs(jx[:, j] - fd).max() < 1e-8
    fdz = (row(x, z + h) - row(x, z - h)) / (2 * h)
    assert np.abs(jz[:, 0] - fdz).max() < 1e-8


def reference_embedded_pieces(z, sigma, taus, alpha):
    """f, d f/dz, L, d L/dz on a tau grid: the four-piece form the callbacks replaced."""
    th = math.sqrt(2.0) * alpha * sigma
    c, s = math.cos(th), math.sin(th)
    phi = np.asarray(taus) - z
    cp, sp = np.cos(phi), np.sin(phi)
    c2, s2 = np.cos(2.0 * phi), np.sin(2.0 * phi)
    turn = seek3d._turn_in_plane
    f = np.array(turn(c, s, math.sqrt(2.0) * cp, math.sqrt(2.0) * sp))
    fz = np.array(turn(c, s, math.sqrt(2.0) * sp, -math.sqrt(2.0) * cp))
    lam = np.array(turn(c, s, alpha * (c2 + s2), alpha * (s2 - c2)))
    lamz = np.array(turn(c, s, 2.0 * alpha * (s2 - c2), -2.0 * alpha * (c2 + s2)))
    return f, fz, lam, lamz


def _close(got, want):
    return np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)


def test_embedded_frame_helpers_match_four_piece_reference():
    rng = np.random.default_rng(31)
    for i in range(200):
        alpha = float(rng.uniform(0.05, 2.0))
        z = float(rng.normal(0.0, 3.0))
        sigma = float(rng.uniform(-50.0, 50.0))
        taus = rng.uniform(-20.0, 20.0, int(rng.integers(1, 130)))
        f, fz, lam, lamz = reference_embedded_pieces(z, sigma, taus, alpha)
        got_f, got_lam = seek3d._embedded_frame(z, sigma, taus, alpha)
        got_fz, got_lamz = seek3d._embedded_frame_dz(z, sigma, taus, alpha)
        for got, want in ((got_f, f), (got_lam, lam), (got_fz, fz), (got_lamz, lamz)):
            assert got.shape == want.shape == (3, taus.size)
            assert _close(got, want), i


def test_embedded_callbacks_match_four_piece_reference():
    rng = np.random.default_rng(32)
    for i in range(200):
        params = SeekParams(alpha=float(rng.uniform(0.05, 2.0)), omega=1.0, mu=1.0)
        f1 = embedded_field(params)
        x = rng.normal(size=12)
        z = np.array([rng.normal(0.0, 3.0)])
        sigma = float(rng.uniform(-50.0, 50.0))
        taus = rng.uniform(-20.0, 20.0, 9)
        f, fz, lam, lamz = reference_embedded_pieces(float(z[0]), sigma, taus, params.alpha)
        rows = seek3d._embedded_rows(x, f, lam)
        assert _close(f1.func(x, z, 0.0, sigma, taus), rows), i
        assert _close(f1.func(x, z, 0.0, sigma, float(taus[0])), rows[0]), i
        assert _close(f1.jac_x(x, z, 0.0, sigma, taus) @ x, rows), i
        assert _close(f1.jac_z(x, z, 0.0, sigma, taus)[:, :, 0],
                      seek3d._embedded_rows(x, fz, lamz)), i


def reference_embedded_rows(x, f, lam):
    """The np.outer form of the rows-layout field: Q f, then q_i x L for each row q_i."""
    Q = x[3:12].reshape(3, 3)
    out = np.empty((f.shape[1], 4, 3))
    out[:, 0] = f.T @ Q.T
    out[:, 1:, 0] = np.outer(lam[2], Q[:, 1]) - np.outer(lam[1], Q[:, 2])
    out[:, 1:, 1] = np.outer(lam[0], Q[:, 2]) - np.outer(lam[2], Q[:, 0])
    out[:, 1:, 2] = np.outer(lam[1], Q[:, 0]) - np.outer(lam[0], Q[:, 1])
    return out.reshape(-1, 12)


def test_embedded_rows_match_outer_product_reference():
    # the same products and sums in the same order as np.outer's: equal bit
    # for bit; against the column layout, the rotation rows are equal bit for
    # bit and the translation rows, one matmul on Q^T's other memory order,
    # close to rounding; for the frame pieces and their z-derivatives as
    # built, and for arbitrary (f, L) of every grid size from 1 to 130
    rng = np.random.default_rng(33)
    for i in range(260):
        m = 1 + i % 130
        x = rng.normal(size=12) * 10.0 ** rng.uniform(-3.0, 3.0)
        if i % 2:
            f, lam = rng.normal(size=(3, m)), rng.normal(size=(3, m))
        else:
            z, sigma = float(rng.normal(0.0, 3.0)), float(rng.uniform(-50.0, 50.0))
            pieces = seek3d._embedded_frame_dz if i % 4 else seek3d._embedded_frame
            f, lam = pieces(z, sigma, rng.uniform(-20.0, 20.0, m), float(rng.uniform(0.05, 2.0)))
        got = seek3d._embedded_rows(x, f, lam)
        assert got.shape == (m, 12)
        assert np.array_equal(got, reference_embedded_rows(x, f, lam)), i
        want = columns.values_to_rows(columns.embedded_rows(x[columns.COLUMNS], f, lam))
        assert np.array_equal(got[:, 3:], want[:, 3:]), i
        assert _close(got[:, 0:3], want[:, 0:3]), i


@pytest.mark.parametrize("kind", ["static", "orbit"])
def test_embedded_callbacks_match_column_oracle(kind):
    # the rows-layout callbacks against the column-layout kernels they
    # replaced, under the column <-> row permutation, with z on the slow
    # manifold as the sweep and the averaging evaluate them
    field = signal_field(kind)
    rng = np.random.default_rng(34)
    for i in range(200):
        params = SeekParams(alpha=float(rng.uniform(0.05, 2.0)), omega=1.0, mu=1.0)
        f1 = embedded_field(params)
        reduced = avgcore.reduce_to_slow_manifold(
            embedded_system(params, field, validate=False), validate=False
        ).f1
        x = embed_columns(rng.normal(0.0, 3.0, 3), rot_exp(rng.normal(size=3)))
        t = float(rng.uniform(0.0, 200.0))
        sigma, tau = float(rng.uniform(-50.0, 50.0)), float(rng.uniform(-20.0, 20.0))
        taus = rng.uniform(-20.0, 20.0, 1 + i % 9)
        z = field.strength(x[0:3], t)
        xc = x[columns.COLUMNS]

        want = columns.values_to_rows(columns.embedded_rates(xc.tolist(), z, sigma, tau,
                                                             params.alpha))
        for state in (x, x.tolist()):
            assert _close(np.array(f1.func(state, [z], t, sigma, tau)), want), i
            assert _close(np.array(reduced.func(state, t, sigma, tau)), want), i

        f, lam = seek3d._embedded_frame(z, sigma, taus, params.alpha)
        fz, lamz = seek3d._embedded_frame_dz(z, sigma, taus, params.alpha)
        rows_c = columns.embedded_rows(xc, f, lam)
        jac_x_c = columns.jac_x(f, lam)
        jac_z_c = columns.embedded_rows(xc, fz, lamz)
        dphi_c = np.concatenate([field.gradient(x[0:3], t), np.zeros(9)])
        assert _close(f1.func(x, [z], t, sigma, taus), columns.values_to_rows(rows_c)), i
        assert _close(f1.jac_x(x, [z], t, sigma, taus), columns.jacobians_to_rows(jac_x_c)), i
        assert _close(f1.jac_z(x, [z], t, sigma, taus)[:, :, 0],
                      columns.values_to_rows(jac_z_c)), i
        composed = jac_x_c + jac_z_c[:, :, None] * dphi_c
        assert _close(reduced.jac(x, t, sigma, taus), columns.jacobians_to_rows(composed)), i


def test_embedded_float_kernel_matches_array_rows():
    # embedded_field.func on a list state at scalar tau runs _rigid_rates;
    # the broadcast array rows at the same tau are its oracle, with z on the
    # slow manifold of each field, as the sweep evaluates it
    rng = np.random.default_rng(33)
    for kind in ("static", "orbit"):
        field = signal_field(kind)
        for i in range(200):
            params = SeekParams(alpha=float(rng.uniform(0.05, 2.0)), omega=1.0, mu=1.0)
            x = rng.normal(size=12)
            x[0:3] *= 3.0
            t = float(rng.uniform(0.0, 200.0))
            sigma = float(rng.uniform(-50.0, 50.0))
            tau = float(rng.uniform(-20.0, 20.0))
            z = field.strength(x[0:3], t)
            f, lam = seek3d._embedded_frame(z, sigma, np.array([tau]), params.alpha)
            want = seek3d._embedded_rows(x, f, lam)[0]
            got = embedded_field(params).func(x.tolist(), np.array([z]), t, sigma, tau)
            assert type(got) is list and all(type(v) is float for v in got), (kind, i)
            assert _close(np.array(got), want), (kind, i)
            reduced = avgcore.reduce_to_slow_manifold(
                embedded_system(params, field, validate=False), validate=False
            )
            assert reduced.f1.func(x.tolist(), t, sigma, tau) == got, (kind, i)


def manifold_defect(x) -> float:
    """Deviation of the embedded rows of Q from the group structure.

    Checks both orthonormality q_i . q_j = delta_ij and the orientation
    (right-handedness) relations q_i x q_j = q_k for cyclic (i, j, k).
    """
    Q = np.asarray(x[3:12]).reshape(3, 3)
    ortho = np.abs(Q @ Q.T - np.eye(3)).max()
    cross = max(np.abs(np.cross(Q[i], Q[(i + 1) % 3]) - Q[(i + 2) % 3]).max() for i in range(3))
    return float(max(ortho, cross))


def test_embedded_simulation_preserves_manifold():
    from recavg.avgcore import simulate_singular

    ssys = embedded_system(PARAMS, STATIC, validate=False)
    x0 = embed_columns(P0, np.eye(3))
    z0 = ssys.phi(x0, 0.0)
    settings = IntegratorSettings(steps_per_period=64, projection=True)
    traj = simulate_singular(
        ssys, x0, z0, 0.0, 5.0, settings, sample_dt=0.05, rotation_blocks=[3]
    )
    worst = max(manifold_defect(y[:12]) for y in traj.states)
    assert worst <= 1e-8


def test_embed_split_round_trip():
    # the embedded layout is the transformed state's without z: [p, rows of Q]
    rng = np.random.default_rng(27)
    p = rng.normal(size=3)
    Q = rot_exp(rng.normal(size=3))
    x = embed_columns(p, Q)
    assert np.array_equal(x[0:3], p)
    assert np.array_equal(x[3:12].reshape(3, 3), Q)


# --- averaged gain ----------------------------------------------------------------

def test_gain_matrix_reproduced_by_engine():
    a, rot_res, fit_res = seek3d.compute_A_numeric(PARAMS, n_probes=8)
    assert np.abs(a - AVERAGED_GAIN).max() < 1e-6
    assert rot_res <= 1e-8
    assert fit_res < 1e-8


def test_gain_matrix_eigenvalues():
    a, _, _ = seek3d.compute_A_numeric(PARAMS, n_probes=8)
    eigs = np.sort(np.linalg.eigvalsh(a))
    assert np.abs(eigs - np.array([0.5, 0.5, 1.0])).max() < 1e-6
    assert np.abs(a - a.T).max() < 1e-9


def test_rora_rhs_axis_gain():
    # a unit gradient along e3 maps to e3 / 2
    assert np.abs(AVERAGED_GAIN @ E3 - 0.5 * E3).max() == 0.0
    # gradient along e3 is scaled by the 3,3 entry (one half)
    p_for_e3 = np.array([0.0, 0.0, -1.0])
    grad = STATIC.gradient(p_for_e3, 0.0)
    assert np.abs(grad - np.array([0.0, 0.0, 2.0 / 3.0])).max() < 1e-12
    dp, dQ, zbar = rora_rhs(p_for_e3, np.eye(3), 0.0, STATIC)
    assert np.abs(dp - np.array([0.0, 0.0, 1.0 / 3.0])).max() < 1e-12
    assert np.abs(dQ).max() == 0.0


def test_rora_rhs_in_plane_value():
    p = np.array([1.0, 0.0, 0.0])  # grad c = (-2/3, 0, 0)
    dp, _, _ = rora_rhs(p, np.eye(3), 0.0, STATIC)
    assert np.abs(dp - np.array([-0.5, -1.0 / 6.0, 0.0])).max() < 1e-12


def test_rora_rhs_vanishes_at_source():
    dp, _, _ = rora_rhs(np.zeros(3), rot_exp(np.array([0.1, 0.2, 0.3])), 0.0, STATIC)
    assert np.abs(dp).max() == 0.0


def test_rora_ascent_monotone_and_frame_constant():
    Q0 = initial_Q(np.eye(3), STATIC.strength(P0, 0.0), 0.0, PARAMS)
    traj = rora_trajectory(PARAMS, STATIC, P0, Q0, 0.0, 60.0,
                           IntegratorSettings(steps_per_period=64), sample_dt=0.1)
    cs = np.array([STATIC.strength(y[0:3], t) for t, y in zip(traj.times, traj.states)])
    assert np.all(np.diff(cs) >= -1e-9)
    assert np.abs(traj.states[:, 3:12] - traj.states[0, 3:12]).max() == 0.0


# --- change of variables ------------------------------------------------------------

def test_full_and_transformed_agree():
    settings = IntegratorSettings(steps_per_period=64, projection=True)
    z0 = STATIC.strength(P0, 0.0)
    Q0 = initial_Q(np.eye(3), z0, 0.0, PARAMS)
    tf = 2.0
    full = full_trajectory(PARAMS, STATIC, P0, np.eye(3), z0, 0.0, tf, settings, sample_dt=0.05)
    tran = transformed_trajectory(PARAMS, STATIC, P0, Q0, z0, 0.0, tf, settings, sample_dt=0.05)
    gap = np.linalg.norm(full.states[:, 0:3] - tran.states[:, 0:3], axis=1).max()
    assert gap < 2e-5  # 64 steps/period; the acceptance check runs at 256
    # reconstructed attitude matches the directly integrated one
    worst_R = 0.0
    for t, yf, yt in zip(full.times, full.states, tran.states):
        Rrec = reconstruct_R(yt[3:12].reshape(3, 3), yt[12], t, PARAMS)
        worst_R = max(worst_R, np.abs(Rrec - yf[3:12].reshape(3, 3)).max())
    assert worst_R < 2e-5


def test_trajectory_speed_invariants():
    # sampled finite-difference speed agrees with sqrt(2 omega) to first order
    settings = IntegratorSettings(steps_per_period=256, projection=True)
    z0 = STATIC.strength(P0, 0.0)
    traj = full_trajectory(PARAMS, STATIC, P0, np.eye(3), z0, 0.0, 0.5, settings)
    dts = np.diff(traj.times)
    speeds = np.linalg.norm(np.diff(traj.states[:, 0:3], axis=0), axis=1) / dts
    assert np.abs(speeds - math.sqrt(2.0 * PARAMS.omega)).max() < 0.05


@pytest.mark.parametrize("alpha, omega, mu", [
    (0.125, 4.0 * math.pi, 1.0 / (16.0 * math.pi**2)),  # the tau-period binds
    (8.0, 4.0 * math.pi, 1.0 / (16.0 * math.pi**2)),  # the roll-frame period T1 binds
    (1.0, 400.0, 1e-4),  # mu binds
])
def test_seeker_steps_as_simulate_singular(alpha, omega, mu):
    # the full and transformed seekers take the step that simulate_singular
    # takes for the embedded system of the same params
    params = SeekParams(alpha=alpha, omega=omega, mu=mu)
    settings = IntegratorSettings(steps_per_period=64, projection=True)
    ssys = embedded_system(params, STATIC, validate=False)
    z0 = STATIC.strength(P0, 0.0)
    tf = 0.02
    want = avgcore.simulate_singular(ssys, embed_columns(P0, np.eye(3)), [z0], 0.0, tf, settings)
    step = avgcore.oscillatory_step(ssys.f1.T1, ssys.f1.T2, omega, mu, settings)
    assert len(want) == math.ceil(tf / step - 1e-12) + 1
    for run in (full_trajectory, transformed_trajectory):
        got = run(params, STATIC, P0, np.eye(3), z0, 0.0, tf, settings)
        assert np.array_equal(got.times, want.times)


def test_seek_params_validation():
    with pytest.raises(ValueError):
        SeekParams(alpha=0.0, omega=1.0, mu=1.0)
    with pytest.raises(ValueError):
        SeekParams(alpha=1.0, omega=-1.0, mu=1.0)
    with pytest.raises(ValueError):
        SeekParams(alpha=1.0, omega=1.0, mu=0.0)


@pytest.mark.parametrize("name", ["alpha", "omega", "mu"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_seek_params_reject_non_finite(name, bad):
    values = {"alpha": 1.0, "omega": 1.0, "mu": 1.0, name: bad}
    with pytest.raises(ValueError, match="finite"):
        SeekParams(**values)


# --- practical stability --------------------------------------------------------------

def test_residual_ball_shrinks_as_one_over_sqrt_omega():
    """The paper's practical stability: around a static source the vehicle
    circles at the probing-loop radius sqrt(2 / w), its speed sqrt(2 w) over
    its turn rate w, so the residual ball shrinks as 1 / sqrt(w).

    The reduced embedded system (filter pinned to c(p, t)) runs from
    p0 = (0.6, -0.4, 0.5) with identity Q to t = 20, sampled every 0.01, and
    |p| is measured on [10, 20]. At w = 4 pi, 16 pi and 64 pi, mean |p| *
    sqrt(w / 2) measured 1.0027, 1.0007 and 1.0004, and the sup of |p| fell
    by 1.977 and 1.969 per quadrupling of w.
    """
    p0 = np.array([0.6, -0.4, 0.5])
    settings = IntegratorSettings(steps_per_period=64, projection=False)
    sups = []
    for omega in (4.0 * math.pi, 16.0 * math.pi, 64.0 * math.pi):
        params = SeekParams(alpha=0.125, omega=omega, mu=1.0 / (16.0 * math.pi**2))
        reduced = avgcore.reduce_to_slow_manifold(
            embedded_system(params, STATIC, validate=False), validate=False
        )
        traj = avgcore.simulate_two_scale(
            reduced, embed_columns(p0, np.eye(3)), 0.0, 20.0, settings, sample_dt=0.01
        )
        radius = np.linalg.norm(traj.states[traj.times >= 10.0, 0:3], axis=1)
        assert abs(radius.mean() * math.sqrt(omega / 2.0) - 1.0) <= 0.01
        sups.append(radius.max())
    for wide, narrow in zip(sups, sups[1:]):
        assert 1.9 <= wide / narrow <= 2.1


def test_coupled_filter_ball_grows_once_the_filter_lags():
    """The singular-perturbation half of practical stability: the same
    residual ball with the filter coupled at the demo's mu = 1 / (16 pi^2),
    through transformed_trajectory (simulate_singular of the embedded system).

    From p0 = (0.6, -0.4, 0.5), identity Q and z0 = c(p0), to t = 20 with
    projection, |p| measured on [10, 20]. Mean |p| * sqrt(w / 2) measured
    1.0027, 1.0008 and 1.1662 at w = 4 pi, 16 pi and 64 pi, against the
    mu-free 1.0027, 1.0007 and 1.0004: the ball keeps the probing-loop radius
    while mu w = 0.08 and 0.32, and grows by 17% at mu w = 4 / pi, where the
    filter lags the forcing period. The sup of |p| fell by 1.961 from 4 pi to
    16 pi, and not at all (0.970) from 16 pi to 64 pi. A dropped sqrt(2) in f
    read 0.7145 at 4 pi and a flipped z in tau - z read 16.90.
    """
    p0 = np.array([0.6, -0.4, 0.5])
    settings = IntegratorSettings(steps_per_period=64, projection=True)
    means, sups = [], []
    for omega in (4.0 * math.pi, 16.0 * math.pi, 64.0 * math.pi):
        params = SeekParams(alpha=0.125, omega=omega, mu=1.0 / (16.0 * math.pi**2))
        traj = transformed_trajectory(
            params, STATIC, p0, np.eye(3), STATIC.strength(p0, 0.0), 0.0, 20.0, settings,
            sample_dt=0.01,
        )
        radius = np.linalg.norm(traj.states[traj.times >= 10.0, 0:3], axis=1)
        means.append(radius.mean() * math.sqrt(omega / 2.0))
        sups.append(radius.max())
    assert abs(means[0] - 1.0) <= 0.01 and abs(means[1] - 1.0) <= 0.01
    assert 1.1 <= means[2] <= 1.25
    assert 1.9 <= sups[0] / sups[1] <= 2.1
    assert 0.9 <= sups[1] / sups[2] <= 1.1


def test_approach_phase_follows_rora():
    """The approach to the source: p of the reduced embedded system against
    rora_trajectory from the demo's start (-2, -2, 6) with identity Q, at
    w = 4 pi on t in [0, 10], sampled every 0.05.

    The sup position gap measured 0.8287, and the sup gap of the rotation
    rows from the rora's constant frame 0.0597. The bounds sit between these
    and the readings of a doubled alpha in L of _frame_vectors, 0.8415 and
    0.1547; a dropped sqrt(2) in f read 1.339 and a flipped z in tau - z
    4.062 on the position gap.
    """
    params = SeekParams(alpha=0.125, omega=4.0 * math.pi, mu=1.0 / (16.0 * math.pi**2))
    settings = IntegratorSettings(steps_per_period=64, projection=False)
    reduced = avgcore.reduce_to_slow_manifold(
        embedded_system(params, STATIC, validate=False), validate=False
    )
    traj = avgcore.simulate_two_scale(
        reduced, embed_columns(P0, np.eye(3)), 0.0, 10.0, settings, sample_dt=0.05
    )
    rora = rora_trajectory(params, STATIC, P0, np.eye(3), 0.0, 10.0, settings, sample_dt=0.05)
    assert np.allclose(traj.times, rora.times, rtol=0.0, atol=1e-12)
    gap = np.linalg.norm(traj.states[:, 0:3] - rora.states[:, 0:3], axis=1).max()
    assert gap <= 0.835
    assert np.abs(traj.states[:, 3:12] - rora.states[:, 3:12]).max() <= 0.1
