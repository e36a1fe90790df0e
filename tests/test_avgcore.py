"""Averaging-engine checks.

The two closed forms doing the heavy lifting:

* linear commutator oracle  [b1, b2](x) = (B2 B1 - B1 B2) x for linear
  fields b_i(x) = B_i x, pinning the bracket sign convention;
* the sin/cos oscillation sin(tau) b1 + cos(tau) b2, whose averaged drift
  integrates by hand to -[b1, b2] / 2, pinning the 1/2 prefactor placement.
"""

import itertools
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from recavg import seek3d
from recavg.avgcore import (
    QuadratureError,
    QuadratureSettings,
    SingularField,
    SingularSystem,
    TwoScaleField,
    TwoScaleSystem,
    _BLOCK_POINTS,
    _SKEW_MAX_NODES,
    _averaged_value,
    _by_parts_factor,
    _periodic_antiderivative,
    _sigma_blocks,
    _zero_values,
    average_fields,
    convergence_study,
    fd_jacobian,
    oscillatory_step,
    reduce_to_slow_manifold,
    rora_reduce,
    simulate_averaged,
    simulate_singular,
    simulate_two_scale,
    zero_field,
)
from recavg.odeint import IntegratorSettings, integrate
from recavg.runner.verify import sincos_test_system

from bracket_oracle import lie_bracket

TWO_PI = 2.0 * math.pi

B1 = np.array([[0.0, 1.0], [0.0, 0.0]])
B2 = np.array([[0.0, 0.0], [1.0, 0.0]])
COMMUTATOR = B2 @ B1 - B1 @ B2  # equals diag(-1, 1)


def sincos_field(with_jvp=True):
    """sin(tau) B1 x + cos(tau) B2 x as a TwoScaleField."""

    def func(x, t, sigma, tau):
        if np.ndim(tau) == 0:  # B1 x = (x1, 0) and B2 x = (0, x0), on floats
            return [math.sin(tau) * x[1], math.cos(tau) * x[0]]
        v1, v2 = B1 @ x, B2 @ x
        return np.sin(tau)[:, None] * v1[None, :] + np.cos(tau)[:, None] * v2[None, :]

    jvp = None
    if with_jvp:

        def jvp(x, t, sigma, taus, v):
            return np.sin(taus)[:, None] * (v @ B1.T) + np.cos(taus)[:, None] * (v @ B2.T)

    return TwoScaleField(dim=2, func=func, T1=TWO_PI, T2=TWO_PI, jvp=jvp)


def sincos_system(omega=400.0, with_jvp=True):
    return TwoScaleSystem(
        f1=sincos_field(with_jvp), f2=zero_field(2, TWO_PI, TWO_PI), omega=omega
    )


def matrix_jvp(matrices):
    """The jvp of a field linear in x, M(sigma, tau) x + c, from its
    matrices(sigmas, taus) of shape (len(taus), dim, dim)."""
    return lambda x, t, sigmas, taus, v: (matrices(sigmas, taus) @ v[:, :, None])[:, :, 0]


def grid_jacobians(f, x, t, sigmas, taus):
    """f's state Jacobians on a grid, shape (len(taus), dim, dim): column j is
    f.jvp along e_j at every node (exact for the fields here, which multiply
    the direction's entries by coefficients and add), else central differences."""
    if f.jvp is None:
        return fd_jacobian(lambda y: f.eval_grid(y, t, sigmas, taus), x)
    units = np.broadcast_to(np.eye(f.dim)[:, None, :], (f.dim, len(taus), f.dim))
    return np.stack([f.jvp(x, t, sigmas, taus, e) for e in units], axis=-1)


def expected_drift(x):
    return -0.5 * (COMMUTATOR @ np.asarray(x))


def constant_test_field(value):
    """The field equal to value at every (x, t, sigma, tau)."""
    vec = np.asarray(value, dtype=float)

    def func(x, t, sigma, tau):
        if isinstance(tau, np.ndarray):
            return np.broadcast_to(vec, (len(tau), vec.size))
        return vec

    return TwoScaleField(dim=vec.size, func=func, T1=TWO_PI, T2=TWO_PI)


# --- lie_bracket ------------------------------------------------------------

def test_bracket_of_constants_is_zero():
    f = lambda x: np.array([1.0, -2.0])
    g = lambda x: np.array([0.5, 3.0])
    assert np.abs(lie_bracket(f, g, np.array([0.3, -0.7]))).max() < 1e-12


def test_bracket_linear_commutator_oracle():
    # finite differences against the exact matrix commutator
    f = lambda x: B1 @ x
    g = lambda x: B2 @ x
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.normal(size=2)
        assert np.abs(lie_bracket(f, g, x) - COMMUTATOR @ x).max() < 1e-9


def test_bracket_with_self_vanishes():
    f = lambda x: np.array([math.sin(x[0]), x[0] * x[1]])
    x = np.array([0.4, -1.2])
    assert np.abs(lie_bracket(f, f, x)).max() < 1e-9


def test_bracket_antisymmetry():
    rng = np.random.default_rng(12)

    def f(x):
        return np.array([math.sin(x[1]), x[0] ** 2, x[2]])

    def g(x):
        return np.array([x[0] * x[2], math.cos(x[0]), x[1]])

    for _ in range(20):
        x = rng.normal(size=3)
        total = lie_bracket(f, g, x) + lie_bracket(g, f, x)
        assert np.abs(total).max() < 1e-9


_ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)


@st.composite
def _linear_fields_and_point(draw):
    n = draw(st.integers(1, 5))
    mats = [draw(arrays(np.float64, (n, n), elements=_ENTRIES)) for _ in range(3)]
    return mats, draw(arrays(np.float64, n, elements=_ENTRIES))


@settings(max_examples=200, deadline=None, database=None)
@given(_linear_fields_and_point())
def test_bracket_jacobi_identity_on_linear_fields(case):
    (a, b, c), x = case

    def linear(m):
        return (lambda y: m @ y), (lambda y: m)

    def bracket(f, g):
        # [f, g] of linear fields is linear, so its Jacobian's columns are
        # its values on the unit vectors
        h = lambda y: lie_bracket(f[0], g[0], y, jac_f=f[1], jac_g=g[1])
        return h, (lambda y: np.column_stack([h(e) for e in np.eye(y.size)]))

    fa, fb, fc = linear(a), linear(b), linear(c)
    total = sum(
        lie_bracket(u[0], vw[0], x, jac_f=u[1], jac_g=vw[1])
        for u, vw in ((fa, bracket(fb, fc)), (fb, bracket(fc, fa)), (fc, bracket(fa, fb)))
    )
    scale = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c) * np.linalg.norm(x)
    assert np.linalg.norm(total) <= 1e-12 * scale


@settings(max_examples=200, deadline=None, database=None)
@given(_linear_fields_and_point())
def test_bracket_antisymmetry_on_linear_fields(case):
    # both orders difference the same two Jacobians, so the negation is exact
    (a, b, _), x = case
    f = lambda y: a @ y
    g = lambda y: b @ y
    assert np.array_equal(lie_bracket(f, g, x), -lie_bracket(g, f, x))


def test_bracket_analytic_jacobians_used():
    f = lambda x: B1 @ x
    g = lambda x: B2 @ x
    x = np.array([0.7, -0.2])
    out = lie_bracket(f, g, x, jac_f=lambda x: B1, jac_g=lambda x: B2)
    assert np.abs(out - COMMUTATOR @ x).max() < 1e-14


def test_bracket_rejects_non_finite_jacobian():
    f = lambda x: np.array([math.sqrt(abs(x[0])), 0.0])
    with pytest.raises(ValueError):
        lie_bracket(f, f, np.array([0.0, 0.0]), jac_f=lambda x: np.array([[np.nan, 0], [0, 0]]))


# --- the field contract --------------------------------------------------------

CONTRACT_PARAMS = seek3d.SeekParams(alpha=0.125, omega=4.0 * math.pi, mu=1e-2)


def embedded_f1_at_fixed_z():
    """The embedded SingularField with its fast state frozen; jvp is its x-part."""
    sf, z = seek3d.embedded_field(CONTRACT_PARAMS), np.array([-0.3])
    return TwoScaleField(
        dim=sf.dim, func=lambda x, t, s, tau: sf.func(x, z, t, s, tau), T1=sf.T1, T2=sf.T2,
        jvp=lambda x, t, s, taus, v: sf.jvp(x, z, t, s, taus, v, np.zeros((len(taus), 1))),
    )


@pytest.mark.parametrize(
    "make_field",
    [
        embedded_f1_at_fixed_z,
        lambda: reduced_embedded_system().f1,
        lambda: sincos_test_system().f1,
        lambda: zero_field(3, TWO_PI, 3.0),
    ],
    ids=["embedded-f1", "reduced-embedded-f1", "sincos-f1", "zero"],
)
def test_shipped_fields_keep_the_field_contract(make_field):
    # scalar sigma and tau give dim values, for a list state as for an array
    # state; a (sigma, tau) grid gives one row per node, and so does jvp
    f = make_field()
    rng = np.random.default_rng(36)
    n = 7
    for _ in range(20):
        x = embedded_probe(rng) if f.dim == 12 else rng.normal(size=f.dim)
        t, sigma, tau = (float(v) for v in rng.uniform(0.0, 20.0, 3))
        sigmas, taus = rng.uniform(0.0, 20.0, (2, n))
        from_list = f.func(x.tolist(), t, sigma, tau)
        from_array = f.func(x, t, sigma, tau)
        assert np.shape(from_list) == np.shape(from_array) == (f.dim,)
        # the same kernel answers both: equal floats, not merely close ones
        assert np.array_equal(np.asarray(from_array, float), np.asarray(from_list, float))
        assert np.shape(f.func(x, t, sigmas, taus)) == (n, f.dim)
        assert np.shape(f.jvp(x, t, sigmas, taus, rng.normal(size=(n, f.dim)))) == (n, f.dim)


def node_directions(sigmas, taus, dim):
    """A direction per node, shape (len(taus), dim), fixed by the node's sigma and tau."""
    return np.cos(np.multiply.outer(sigmas + 2.0 * taus, np.arange(1.0, dim + 1.0)))


def shipped_grid_callbacks():
    """name -> (state dim, callback (x, t, sigma, tau), whether it answers scalars).

    A -jac name stands for the jvp that replaced that Jacobian, applied to
    node_directions; embedded-jac_x and -jac_z take the x and z directions.
    """
    sf, z = seek3d.embedded_field(CONTRACT_PARAMS), np.array([-0.3])
    reduced, sincos = reduced_embedded_system().f1, sincos_test_system().f1
    zero = zero_field(3, TWO_PI, 3.0)
    frozen = lambda callback: (lambda x, t, s, tau: callback(x, z, t, s, tau))
    applied = lambda jvp, dim: (
        lambda x, t, s, tau: jvp(x, t, s, tau, node_directions(s, tau, dim))
    )
    along_x = lambda x, t, s, tau, v: sf.jvp(x, z, t, s, tau, v, np.zeros((len(tau), 1)))
    along_z = lambda x, t, s, tau, v: sf.jvp(x, z, t, s, tau, np.zeros((len(tau), 12)), v)
    return {
        "embedded-func": (12, frozen(sf.func), True),
        "embedded-jac_x": (12, applied(along_x, 12), False),
        "embedded-jac_z": (12, applied(along_z, 1), False),
        "reduced-func": (12, reduced.func, True),
        "reduced-jac": (12, applied(reduced.jvp, 12), False),
        "sincos-f1": (2, sincos.func, True),
        "sincos-jac1": (2, applied(sincos.jvp, 2), False),
        "zero-func": (3, zero.func, True),
        "zero-jac": (3, applied(zero.jvp, 3), False),
    }


@pytest.mark.parametrize("name", [
    "embedded-func", "embedded-jac_x", "embedded-jac_z", "reduced-func", "reduced-jac",
    "sincos-f1", "sincos-jac1", "zero-func", "zero-jac",
])
def test_grid_callbacks_equal_their_per_node_calls(name):
    # a flattened grid of 5 sigma rows by 7 tau nodes, row k of the answer
    # against the callback at node k alone: at scalar sigma and tau where it
    # answers them, else on a one-node grid
    dim, callback, answers_scalars = shipped_grid_callbacks()[name]
    rng = np.random.default_rng(37)
    rows, n = 5, 7
    for _ in range(4):
        x = embedded_probe(rng) if dim == 12 else rng.normal(size=dim)
        t = float(rng.uniform(0.0, 20.0))
        sigmas = np.repeat(rng.uniform(0.0, 20.0, rows), n)
        taus = np.tile(rng.uniform(0.0, 20.0, n), rows)
        grid = np.asarray(callback(x, t, sigmas, taus))
        assert grid.shape[0] == rows * n
        for k in range(rows * n):
            if answers_scalars:
                node = callback(x, t, float(sigmas[k]), float(taus[k]))
            else:
                node = callback(x, t, sigmas[k:k + 1], taus[k:k + 1])[0]
            node = np.asarray(node, dtype=float)
            assert np.abs(grid[k] - node).max() <= 1e-14 * np.abs(node).max(), k


def test_one_field_call_per_block_of_sigma_rows():
    # an evaluation that stops at the 16-node pass: the 8-node pass is one
    # block of 64 points, the 16-node pass one of 256, the guard's 8 rows of
    # 16 tau nodes one of 128; 448 points in 3 f1 calls, where blocks of at
    # most 64 points took 7 and one call per sigma node 8 + 16 + 8 = 32
    system = reduced_embedded_system()
    func, grids = system.f1.func, []

    def counted(x, t, s, tau):
        if np.ndim(tau):
            grids.append(len(tau))
        return func(x, t, s, tau)

    averaged = average_fields(replace(system, f1=replace(system.f1, func=counted)))
    averaged(embedded_probe(np.random.default_rng(38)), 0.0)
    assert grids == [64, 256, 128]


@pytest.mark.parametrize(
    "make_field", [sincos_field, lambda: sincos_test_system().f1], ids=["test", "verify"]
)
def test_sincos_float_form_matches_numpy_form(make_field):
    # the scalar-tau answer [sin(tau) x1, cos(tau) x0] against the numpy form
    # sin(tau) B1 x + cos(tau) B2 x: the same products, so equal floats; the
    # tau-grid path takes numpy's sin and cos, so it agrees to rounding
    f = make_field()
    rng = np.random.default_rng(2016)
    for _ in range(250):
        x = rng.normal(0.0, 3.0, 2)
        tau = float(rng.uniform(-50.0, 50.0))
        numpy_form = math.sin(tau) * (B1 @ x) + math.cos(tau) * (B2 @ x)
        got = f.func(x.tolist(), 0.0, 0.0, tau)
        assert isinstance(got, list) and all(type(v) is float for v in got)
        assert np.array_equal(got, numpy_form)
        grid = f.func(x, 0.0, 0.0, np.array([tau]))[0]
        assert np.allclose(got, grid, rtol=1e-12, atol=1e-12 * np.abs(x).max())


# --- construction-time assumption checks ------------------------------------

def test_nonzero_mean_f1_rejected():
    bad = constant_test_field([1.0, 0.0])
    with pytest.raises(ValueError, match="tau-mean"):
        TwoScaleSystem(f1=bad, f2=zero_field(2, TWO_PI, TWO_PI), omega=10.0)


def harmonic_system(k, ks=0, validate=False):
    """(1 + cos(ks sigma)) (sin(k tau) B1 x + cos(k tau) B2 x) and its averaged
    drift -m [B1, B2] x / (2 k), with m = 3/2 the sigma mean of
    (1 + cos(ks sigma))^2; ks = 0 drops the sigma factor, and m = 1.

    Its tau-mean is zero, but on an n-node grid with n dividing k the cos
    term folds onto the mean as B2 x.
    """
    def matrices(sigma, tau):
        taus = np.atleast_1d(tau)
        amp = (1.0 + np.cos(ks * np.asarray(sigma)))[..., None, None] if ks else 1.0
        return amp * (np.multiply.outer(np.sin(k * taus), B1)
                      + np.multiply.outer(np.cos(k * taus), B2))

    def func(x, t, sigma, tau):
        out = matrices(sigma, tau) @ np.asarray(x)
        return out[0] if np.ndim(tau) == 0 else out

    f1 = TwoScaleField(dim=2, func=func, T1=TWO_PI, T2=TWO_PI, jvp=matrix_jvp(matrices))
    system = TwoScaleSystem(f1=f1, f2=zero_field(2, TWO_PI, TWO_PI), omega=1.0, validate=validate)
    return system, lambda x: -(1.5 if ks else 1.0) * (COMMUTATOR @ x) / (2 * k)


@pytest.mark.parametrize("k", [64, 128])
def test_zero_mean_f1_with_harmonic_at_a_grid_size_accepted(k):
    # a check on a fixed 64-node grid took B2 x for a tau-mean and refused these
    system, _ = harmonic_system(k, validate=True)
    assert system.validate


def test_nonzero_mean_under_an_aliasing_harmonic_rejected():
    # the mean settles on the grid where the harmonic stops moving it
    system, _ = harmonic_system(64)
    shifted = TwoScaleField(
        dim=2, func=lambda x, t, s, tau: system.f1.func(x, t, s, tau) + np.array([1e-3, 0.0]),
        T1=TWO_PI, T2=TWO_PI,
    )
    with pytest.raises(ValueError, match=r"nonzero tau-mean .*\|mean\| = 1\.000e-03"):
        TwoScaleSystem(f1=shifted, f2=zero_field(2, TWO_PI, TWO_PI), omega=10.0)


def test_tau_mean_that_never_settles_rejected():
    # a harmonic at a multiple of every grid of the ladder moves every mean
    with pytest.raises(ValueError, match=r"tau-mean at a sampled point still moves on 1024 nodes"):
        harmonic_system(2048, validate=True)


def test_wrong_period_rejected():
    def func(x, t, sigma, tau):
        return np.array([math.sin(tau), 0.0])

    bad = TwoScaleField(dim=2, func=func, T1=TWO_PI, T2=math.pi)
    with pytest.raises(ValueError, match="periodic"):
        TwoScaleSystem(f1=bad, f2=zero_field(2, TWO_PI, math.pi), omega=10.0)


def scalar_tau_only(x, t, sigma, tau):
    # the old contract: math.sin takes a scalar tau only
    return np.array([math.sin(tau) * x[1], 0.0])


def columns_per_node(x, t, sigma, tau):
    # shape (dim, len(tau)) on a grid: one column per node in place of one row
    return np.array([np.sin(tau) * x[1], 0.0 * np.asarray(tau)])


@pytest.mark.parametrize(
    "func, detail",
    [(scalar_tau_only, "it raised TypeError"), (columns_per_node, r"got \(2, 16\)")],
    ids=["raises", "wrong-shape"],
)
def test_grid_func_breaking_the_contract_names_it(func, detail):
    # both answer a scalar tau correctly, so the periodicity check passes and
    # the zero-mean check's first grid, one sigma row of two 8-node tau grids
    # joined, is the first to see the fault
    bad = TwoScaleField(dim=2, func=func, T1=TWO_PI, T2=TWO_PI)
    with pytest.raises(ValueError, match=r"func must accept 1-D sigma and tau arrays of one "
                                         r"length and return shape \(16, 2\)") as info:
        TwoScaleSystem(f1=bad, f2=zero_field(2, TWO_PI, TWO_PI), omega=10.0)
    assert info.match(detail)


@pytest.mark.parametrize(
    "phi", [lambda x, t: x[0], lambda x, t: np.append(x, x)], ids=["scalar", "two-values"]
)
def test_phi_not_answering_fast_dim_values_rejected(phi):
    f = SingularField(dim=1, fast_dim=1, func=lambda x, z, t, s, tau: np.zeros(1),
                      T1=TWO_PI, T2=TWO_PI)
    with pytest.raises(ValueError, match=r"phi must return fast_dim = 1 values"):
        SingularSystem(f1=f, f2=f, g=lambda x, z, t: x - z, phi=phi, mu=0.1, omega=10.0)


def test_singular_equilibrium_violation_rejected():
    f = SingularField(dim=1, fast_dim=1, func=lambda x, z, t, s, tau: np.zeros(1),
                      T1=TWO_PI, T2=TWO_PI)
    with pytest.raises(ValueError, match="not zero"):
        SingularSystem(
            f1=f, f2=f,
            g=lambda x, z, t: x - z + 0.5,
            phi=lambda x, t: x,
            mu=0.1, omega=10.0,
        )


# --- average_fields ----------------------------------------------------------

def test_sincos_closed_form_fd_route():
    # no analytic Jacobian: exercises the finite-difference path
    sys = sincos_system(with_jvp=False)
    averaged = average_fields(sys)
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = rng.normal(size=2)
        assert np.abs(averaged(x, 0.0) - expected_drift(x)).max() < 1e-8


def test_sincos_closed_form_analytic_route():
    averaged = average_fields(sincos_system())
    rng = np.random.default_rng(14)
    for _ in range(10):
        x = rng.normal(size=2)
        assert np.abs(averaged(x, 0.0) - expected_drift(x)).max() < 1e-8


def test_constant_f2_passes_through():
    value = np.array([0.3, -1.1])
    sys = TwoScaleSystem(f1=sincos_field(), f2=constant_test_field(value), omega=50.0)
    averaged = average_fields(sys)
    x = np.array([0.2, 0.4])
    assert np.abs(averaged(x, 0.0) - (expected_drift(x) + value)).max() < 1e-8


def test_state_independent_f1_averages_to_zero():
    def func(x, t, sigma, tau):
        tau = np.asarray(tau)
        if tau.ndim == 0:
            return np.array([math.sin(tau), math.cos(tau)])
        return np.stack([np.sin(tau), np.cos(tau)], axis=1)

    sys = TwoScaleSystem(
        f1=TwoScaleField(dim=2, func=func, T1=TWO_PI, T2=TWO_PI),
        f2=zero_field(2, TWO_PI, TWO_PI),
        omega=10.0,
    )
    averaged = average_fields(sys)
    assert np.abs(averaged(np.array([1.0, 2.0]), 0.0)).max() < 1e-10


def test_quadrature_doubling_consistency():
    # band-limited field: the periodic rule is exact on both grids, so the
    # two results differ by roundoff only
    sys = sincos_system()
    x = np.array([0.8, -0.5])
    coarse = average_fields(sys, QuadratureSettings(base_panels=128, max_refinements=0))
    fine = average_fields(sys, QuadratureSettings(base_panels=256, max_refinements=0))
    assert np.abs(coarse(x, 0.0) - fine(x, 0.0)).max() <= 1e-8


def exp_sin_system():
    """sin(tau) B1 x + cos(tau) exp(sin tau) B2 x: zero tau-mean, not band-limited.

    Its averaged drift is I1(1) diag(1, -1) x, with I1 the modified Bessel
    function: the tau-mean of sin(tau) exp(sin tau).
    """

    def func(x, t, sigma, tau):
        a, b = np.sin(tau), np.cos(tau) * np.exp(np.sin(tau))
        return np.multiply.outer(a, B1 @ x) + np.multiply.outer(b, B2 @ x)

    def jvp(x, t, sigma, tau, v):
        a, b = np.sin(tau), np.cos(tau) * np.exp(np.sin(tau))
        return a[:, None] * (v @ B1.T) + b[:, None] * (v @ B2.T)

    field = TwoScaleField(dim=2, func=func, T1=TWO_PI, T2=TWO_PI, jvp=jvp)
    return TwoScaleSystem(f1=field, f2=zero_field(2, TWO_PI, TWO_PI), omega=400.0)


def test_quadrature_non_convergence_raises():
    # 4 -> 8 nodes moves the result by ~6e-2 on this field
    averaged = average_fields(
        exp_sin_system(), QuadratureSettings(base_panels=4, tol=1e-12, max_refinements=1)
    )
    with pytest.raises(QuadratureError):
        averaged(np.array([1.0, 0.5]), 0.0)


def test_periodic_rule_converges_exponentially():
    # I1(1) = sum_k (1/2)^(2k+1) / (k! (k+1)!)
    bessel_i1 = sum(0.5 ** (2 * k + 1) / (math.factorial(k) * math.factorial(k + 1))
                    for k in range(20))
    averaged = average_fields(
        exp_sin_system(), QuadratureSettings(base_panels=16, max_refinements=0)
    )
    rng = np.random.default_rng(15)
    for _ in range(5):
        x = rng.normal(size=2)
        expected = bessel_i1 * np.array([x[0], -x[1]])
        assert np.abs(averaged(x, 0.0) - expected).max() < 1e-12

    # the antiderivative integrates the mean as a ramp: c + cos(3 k0 tau)
    # with k0 = 2 pi / length integrates to c tau + sin(3 k0 tau) / (3 k0);
    # the Nyquist mode cos(4 k0 tau) integrates to zero on the 8 nodes
    for length, c in ((TWO_PI, 0.7), (3.0, np.array([[0.7, -1e-7], [0.0, 2.5]]))):
        k0 = TWO_PI / length
        taus = np.arange(8) * (length / 8)
        wave = np.cos(3 * k0 * taus) + np.cos(4 * k0 * taus)
        wave = wave.reshape((-1,) + (1,) * np.ndim(c))
        ramp = taus.reshape(wave.shape)
        anti = _periodic_antiderivative(c + wave, length)
        exact = c * ramp + np.sin(3 * k0 * ramp) / (3 * k0)
        assert anti.shape == exact.shape
        assert np.abs(anti - exact).max() < 1e-14


def two_antiderivative_value(sys, x, t, n):
    """The averaged drift on an n x n grid with the bracket taken as it stands.

    Both f1's values and its Jacobians get a spectral antiderivative; this is
    the form the by-parts bracket replaced, kept as its oracle. The sigma
    nodes are the engine's.
    """
    f1, f2 = sys.f1, sys.f2
    taus = np.arange(n) * (f1.T2 / n)
    sigmas = np.concatenate(_sigma_blocks(sys, n, n))
    bracket = np.zeros(f1.dim)
    mean = np.zeros(f1.dim)
    for sig in sigmas:
        row = np.full(n, sig)
        vals, jacs = f1.eval_grid(x, t, row, taus), grid_jacobians(f1, x, t, row, taus)
        anti = _periodic_antiderivative(vals, f1.T2)
        anti_jac = _periodic_antiderivative(jacs, f1.T2)
        bracket += np.einsum("mij,mj->i", jacs, anti) - np.einsum("mij,mj->i", anti_jac, vals)
        mean += f2.eval_grid(x, t, row, taus).sum(axis=0)
    points = len(sigmas) * n
    return bracket / (2.0 * points) + mean / points


def random_linear_system(seed, degree, with_mean=False):
    """f1 = (1 + cos(sigma) / 2) sum_{k <= degree} (cos(k w tau) C_k + sin(k w tau) S_k) x.

    Band-limited in tau of trigonometric degree `degree`, with T2 = 3 and
    w = 2 pi / T2. with_mean adds B0 x + c, a nonzero tau-mean that only a
    system built without validation accepts.
    """
    rng = np.random.default_rng(seed)
    dim, w = 3, TWO_PI / 3.0
    cos_c, sin_c = rng.normal(size=(2, degree, dim, dim))
    b0 = rng.normal(size=(dim, dim)) if with_mean else np.zeros((dim, dim))
    c = rng.normal(size=dim) if with_mean else np.zeros(dim)
    k = np.arange(1, degree + 1)

    def matrices(sigma, tau):
        phase = np.multiply.outer(np.atleast_1d(tau), k * w)
        osc = np.einsum("mk,kij->mij", np.cos(phase), cos_c) + np.einsum(
            "mk,kij->mij", np.sin(phase), sin_c
        )
        out = (1.0 + 0.5 * np.cos(sigma))[..., None, None] * osc + b0
        return out[0] if np.ndim(tau) == 0 else out

    def func(x, t, sigma, tau):
        return matrices(sigma, tau) @ x + c

    field = TwoScaleField(dim=dim, func=func, T1=TWO_PI, T2=3.0, jvp=matrix_jvp(matrices))
    zero = zero_field(dim, TWO_PI, 3.0)
    return TwoScaleSystem(f1=field, f2=zero, omega=1.0, validate=not with_mean)


def reduced_embedded_system():
    params = seek3d.SeekParams(alpha=0.125, omega=4.0 * math.pi, mu=1e-2)
    ssys = seek3d.embedded_system(params, seek3d.signal_field("static"), validate=False)
    return reduce_to_slow_manifold(ssys, validate=False)


def embedded_probe(rng):
    from recavg.geom3 import rot_exp

    return seek3d.embed_columns(rng.normal(0.0, 2.0, 3), rot_exp(rng.normal(size=3)))


def gaussian_probe(dim):
    return lambda rng: rng.normal(size=dim)


# the eight systems both bracket forms are checked on, each with its grid size
BRACKET_SYSTEMS = pytest.mark.parametrize(
    "make_sys, n, probe",
    [
        (reduced_embedded_system, 16, embedded_probe),
        (reduced_embedded_system, 64, embedded_probe),
        (sincos_system, 16, gaussian_probe(2)),
        (lambda: sincos_system(with_jvp=False), 16, gaussian_probe(2)),
        (lambda: random_linear_system(41, degree=7), 16, gaussian_probe(3)),
        (lambda: random_linear_system(42, degree=31), 64, gaussian_probe(3)),
        (lambda: random_linear_system(43, degree=5, with_mean=True), 16, gaussian_probe(3)),
        (lambda: random_linear_system(44, degree=12, with_mean=True), 64, gaussian_probe(3)),
    ],
    ids=[
        "embedded-16", "embedded-64", "sincos", "sincos-fd",
        "bandlimited-16", "bandlimited-64", "nonzero-mean-16", "nonzero-mean-64",
    ],
)


def pass_value(sys, x, t, n):
    """One n x n pass of the engine, with its by-parts factor."""
    return _averaged_value(sys, x, t, n, _by_parts_factor(n, sys.f1.T2))


@BRACKET_SYSTEMS
def test_by_parts_bracket_matches_two_antiderivative_form(make_sys, n, probe):
    # the n = 16 cases take one block of 16 sigma rows per pass, the n = 64
    # cases 4 blocks of 16 rows
    sys = make_sys()
    rng = np.random.default_rng(n)
    for i in range(50):
        x = probe(rng)
        t = float(rng.normal())
        want = two_antiderivative_value(sys, x, t, n)
        got = pass_value(sys, x, t, n)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), i


@BRACKET_SYSTEMS
def test_skew_matrix_matches_fft_by_parts_factor(make_sys, n, probe, monkeypatch):
    # the engine's skew matrix, built from a circulant, against its FFT form,
    # the one a grid above _SKEW_MAX_NODES takes, both on a stack of sigma rows
    sys = make_sys()
    f1 = sys.f1
    skew = _by_parts_factor(n, f1.T2)(np.eye(n))
    monkeypatch.setattr("recavg.avgcore._SKEW_MAX_NODES", 0)
    fft_form = _by_parts_factor(n, f1.T2)
    rows = np.arange(0, n, 5) * (f1.T1 / n)
    sigmas, taus = np.repeat(rows, n), np.tile(np.arange(n) * (f1.T2 / n), rows.size)
    rng = np.random.default_rng(n)
    for i in range(4):
        x, t = probe(rng), float(rng.normal())
        stack = f1.eval_grid(x, t, sigmas, taus).reshape(rows.size, n, f1.dim)
        want = fft_form(stack)
        assert np.abs(skew @ stack - want).max() <= 1e-13 * np.abs(want).max(), i
        # a stack's rows are each transformed as they would be alone
        assert np.array_equal(fft_form(stack[2]), want[2]), i


def switched_averaged_value(sys, x, t, n, sign, swap):
    """_averaged_value as it stood with its bracket_sign and swap_prefactors
    switches: the oracle for verify_averaging, which scales the engine's
    output in place of switching its arithmetic."""
    f1, f2 = sys.f1, sys.f2
    taus = np.arange(n) * (f1.T2 / n)
    bracket = np.zeros(f1.dim)
    mean = np.zeros(f1.dim)
    by_parts = _by_parts_factor(n, f1.T2)
    for block in _sigma_blocks(sys, n, n):
        sigmas, grid = np.repeat(block, n), np.tile(taus, len(block))
        vals = f1.eval_grid(x, t, sigmas, grid)
        skewed = by_parts(vals.reshape(len(block), n, f1.dim)).reshape(vals.shape)
        bracket += f1.jvp(x, t, sigmas, grid, skewed).sum(axis=0)
        mean += f2.eval_grid(x, t, sigmas, grid).sum(axis=0)
    points = n * n
    bracket *= sign / points
    mean /= points
    if swap:
        return bracket + mean / 2.0
    return bracket / 2.0 + mean


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("which", ["embedded", "sincos"])
def test_verify_scaling_matches_switched_engine(which, n):
    # the scaling is exact because both systems verify_averaging averages
    # have a zero f2: the precondition comes first
    params = seek3d.SeekParams(alpha=1.0 / 8.0, omega=4.0 * math.pi, mu=1.0 / (16.0 * math.pi**2))
    ssys = seek3d.embedded_system(params, seek3d.signal_field("static"), validate=False)
    sincos = sincos_test_system()
    assert ssys.f2 is None
    assert sincos.f2.func is _zero_values
    if which == "embedded":
        sys, probe = reduce_to_slow_manifold(ssys, validate=False), embedded_probe
    else:
        sys, probe = sincos, gaussian_probe(2)
    rng = np.random.default_rng(n)
    for _ in range(4):
        x, t = probe(rng), float(rng.normal())
        value = pass_value(sys, x, t, n)
        for sign, swap in itertools.product((1, -1), (False, True)):
            want = switched_averaged_value(sys, x, t, n, sign, swap)
            assert np.array_equal(want, sign * (2 if swap else 1) * value), (sign, swap)


# --- closed form of every term of the averaged drift ---------------------------


def trig_linear_system(seed, harmonics, dim, T1, T2, sigma_harmonic=1):
    """f1 = M(sigma, tau) x and f2 = E(sigma, tau) x + d, with the averaged
    drift in closed form.

    M = sum over k in harmonics of cos(k W2 tau) C_k(sigma) + sin(k W2 tau)
    S_k(sigma), each C_k, S_k = X0 + X1 cos(j W1 sigma) + X2 sin(j W1 sigma)
    for j = sigma_harmonic, W1 = 2 pi / T1 and W2 = 2 pi / T2.
    E = E0 + cos(W1 sigma + W2 tau) E1 + sin(W2 tau) E2 and
    d = d0 + sin(W1 sigma) d1 depend on both phases. With
    N = int_0^tau M, the engine's bracket [G, f1] is (M N - N M) x, whose tau
    mean is sum over k of (S_k C_k - C_k S_k) / (k W2); the sigma mean of a
    product of two such matrices is X0 Y0 + (X1 Y1 + X2 Y2) / 2. Returns the
    system and closed(x, slip=None) -> (drift, scale): scale is the largest
    term the drift sums, and slip names an engine fault whose drift it gives
    instead ("one-sigma-node" or "half-f2-mean").
    """
    rng = np.random.default_rng(seed)
    w1, w2 = TWO_PI / T1, TWO_PI / T2
    k = np.asarray(harmonics)
    cos_c, sin_c = rng.normal(size=(2, k.size, 3, dim, dim))
    e0, e1, e2 = rng.normal(size=(3, dim, dim))
    d0, d1 = rng.normal(size=(2, dim))

    def matrices(sigma, tau):
        taus = np.atleast_1d(tau)
        phase = sigma_harmonic * w1 * np.broadcast_to(sigma, taus.shape)
        s_terms = np.array([np.ones_like(phase), np.cos(phase), np.sin(phase)])
        c_k, s_k = (np.einsum("jm,kjab->mkab", s_terms, coef) for coef in (cos_c, sin_c))
        phase = np.multiply.outer(taus, k * w2)
        return np.einsum("mk,mkab->mab", np.cos(phase), c_k) + np.einsum(
            "mk,mkab->mab", np.sin(phase), s_k
        )

    def scalar_or_grid(tau, out):
        return out[0] if np.ndim(tau) == 0 else out

    def f1(x, t, sigma, tau):
        return scalar_or_grid(tau, matrices(sigma, tau) @ np.asarray(x))


    def f2(x, t, sigma, tau):
        column = np.atleast_1d(tau)[:, None, None]
        sig = np.asarray(sigma)[..., None, None]
        e = e0 + np.cos(w1 * sig + w2 * column) * e1 + np.sin(w2 * column) * e2
        d = d0 + np.sin(w1 * sig[..., 0]) * d1
        return scalar_or_grid(tau, e @ np.asarray(x) + d)

    system = TwoScaleSystem(
        f1=TwoScaleField(dim=dim, func=f1, T1=T1, T2=T2, jvp=matrix_jvp(matrices)),
        f2=TwoScaleField(dim=dim, func=f2, T1=T1, T2=T2),
        omega=1.0,
    )

    def closed(x, slip=None):
        if slip == "one-sigma-node":  # sigma = 0 stands for the whole period
            mean = lambda a, b: (a[0] + a[1]) @ (b[0] + b[1])
        else:
            mean = lambda a, b: a[0] @ b[0] + (a[1] @ b[1] + a[2] @ b[2]) / 2.0
        sc = sum(mean(s, c) / (j * w2) for j, s, c in zip(k, sin_c, cos_c)) @ x
        cs = sum(mean(c, s) / (j * w2) for j, s, c in zip(k, sin_c, cos_c)) @ x
        f2_mean = (0.5 if slip == "half-f2-mean" else 1.0) * (e0 @ x + d0)
        scale = max(np.abs(term).max() for term in (sc, cs, e0 @ x, d0))
        return (sc - cs) / 2.0 + f2_mean, scale

    return system, closed


# measured: at most 1.64e-15 of the largest term, over 429 probes of 143
# seeded draws of the strategy below without the aliasing harmonics, and at
# most 2.44e-15 over 843 probes of 281 draws with them
CLOSED_FORM_TOL = 5e-15
# harmonics that alias onto the mean of one or more grids of the default
# ladder, drawn next to the ones the first grid resolves
ALIASING_HARMONICS = [8, 16, 24, 32]


@settings(max_examples=20, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    harmonics=st.lists(st.sampled_from([1, 2, 3, 4] + ALIASING_HARMONICS),
                       min_size=1, max_size=4, unique=True),
    sigma_harmonic=st.sampled_from([1, 2] + ALIASING_HARMONICS[:2]),
    dim=st.integers(1, 4),
    T1=st.floats(0.5, 8.0),
    T2=st.floats(0.5, 8.0),
)
def test_averaged_drift_matches_closed_form(seed, harmonics, sigma_harmonic, dim, T1, T2):
    assume(abs(T1 - T2) >= 0.25)
    system, closed = trig_linear_system(seed, harmonics, dim, T1, T2, sigma_harmonic)
    averaged = average_fields(system)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        x = rng.normal(size=dim)
        want, scale = closed(x)
        assert np.abs(averaged(x, float(rng.normal())) - want).max() <= CLOSED_FORM_TOL * scale


@pytest.mark.parametrize("slip", ["one-sigma-node", "half-f2-mean"])
def test_closed_form_tells_engine_slips_apart(slip):
    # an engine that averaged sigma at one node, or halved the f2 mean,
    # would give the slipped drift, which lies far outside the bound
    system, closed = trig_linear_system(0, harmonics=(1, 2, 3), dim=3, T1=3.7, T2=2.0)
    averaged = average_fields(system)
    rng = np.random.default_rng(1)
    for _ in range(4):
        x = rng.normal(size=3)
        want, scale = closed(x)
        slipped, _ = closed(x, slip)
        assert np.abs(averaged(x, 0.0) - want).max() <= CLOSED_FORM_TOL * scale
        assert np.abs(slipped - want).max() >= 1e-2 * scale


@pytest.mark.parametrize("n", [_SKEW_MAX_NODES, 2 * _SKEW_MAX_NODES], ids=["skew-matrix", "fft"])
def test_averaged_value_matches_closed_form_either_side_of_skew_cutoff(n):
    # a pass takes the skew matrix up to _SKEW_MAX_NODES and the FFT form
    # above it, here on blocks of 4 and of 2 sigma rows
    system, closed = trig_linear_system(7, harmonics=(1, 2), dim=2, T1=3.7, T2=2.0)
    rng = np.random.default_rng(n)
    x = rng.normal(size=2)
    want, scale = closed(x)
    assert np.abs(pass_value(system, x, 0.3, n) - want).max() <= CLOSED_FORM_TOL * scale


# --- the aliasing guard ----------------------------------------------------------

@pytest.mark.parametrize(
    "k, ks, finest",
    [
        (8, 0, 64), (16, 0, 128), (24, 0, 128), (32, 0, 256), (64, 0, 512), (128, 0, 1024),
        (2, 8, 64), (2, 16, 128), (2, 64, 512), (8, 1, 64), (128, 1, 1024),
    ],
    ids=[
        "tau-8", "tau-16", "tau-24", "tau-32", "tau-64", "tau-128",
        "sigma-8", "sigma-16", "sigma-64", "mixed-8-1", "mixed-128-1",
    ],
)
def test_aliasing_harmonic_converges_to_closed_form(k, ks, finest):
    # without the guard the ladder stops on a wrong answer with no error: from
    # 8 nodes, in every case but sigma-8 (off by 3.1e-3 to 0.5 at this probe);
    # from 64 then 128 nodes, in tau-64, tau-128 and mixed-128-1, where every
    # grid reads 0. mixed-128-1 reaches 1,024 nodes, the FFT side of the skew
    # cutoff. Every jvp call takes whole sigma rows, as many as fit in
    # _BLOCK_POINTS, so no call exceeds 1,024 points
    system, closed = harmonic_system(k, ks)
    calls = []  # (points, sigma rows) of each jvp call
    jvp = system.f1.jvp

    def counted_jvp(x, t, s, taus, v):
        calls.append((len(taus), np.unique(s).size))
        return jvp(x, t, s, taus, v)

    x = np.array([0.8, -0.5])
    got = average_fields(replace(system, f1=replace(system.f1, jvp=counted_jvp)))(x, 0.0)
    assert np.abs(got - closed(x)).max() <= 1e-14
    assert max(points // rows for points, rows in calls) == finest
    for points, rows in calls:
        n = points // rows
        assert points == n * rows and rows == min(n, max(1, _BLOCK_POINTS // n))
    assert max(points for points, _ in calls) <= 1024


@pytest.mark.parametrize("k, ks", [(16, 0), (128, 0), (0, 16)], ids=["tau-16", "tau-128", "sigma-16"])
def test_aliasing_harmonic_in_f2_converges_to_closed_form(k, ks):
    # f2 = (cos(k tau) + sin(ks sigma)) d has mean zero in both phases; the
    # guard reads f2's tau-means as well as f1's. Without it, tau-16 stops on
    # d from 8 nodes, and the 64-then-128-node ladder stops on d for tau-128
    d = np.array([0.6, -1.3])

    def func(x, t, sigma, tau):
        tau = np.asarray(tau)
        return np.multiply.outer((np.cos(k * tau) if k else 0.0 * tau) + np.sin(ks * sigma), d)

    f2 = TwoScaleField(dim=2, func=func, T1=TWO_PI, T2=TWO_PI)
    x = np.array([0.8, -0.5])
    got = average_fields(TwoScaleSystem(f1=sincos_field(), f2=f2, omega=1.0))(x, 0.0)
    assert np.abs(got - expected_drift(x)).max() <= 1e-14


# --- simulation wrappers ------------------------------------------------------

def test_simulate_two_scale_zero_fields_constant():
    sys = TwoScaleSystem(
        f1=zero_field(2, TWO_PI, TWO_PI),
        f2=zero_field(2, TWO_PI, TWO_PI),
        omega=100.0,
    )
    x0 = np.array([1.0, -1.0])
    traj = simulate_two_scale(sys, x0, 0.0, 1.0)
    assert np.abs(traj.states - x0).max() == 0.0


def test_simulate_two_scale_tracks_averaged_flow():
    sys = sincos_system(omega=400.0)
    x0 = np.array([1.0, 1.0])
    settings = IntegratorSettings(steps_per_period=64, projection=False)
    traj = simulate_two_scale(sys, x0, 0.0, 2.0, settings, sample_dt=0.01)
    averaged = average_fields(sys, QuadratureSettings(base_panels=32))
    ref = simulate_averaged(averaged, x0, 0.0, 2.0, settings, sample_dt=0.01)
    gap = np.linalg.norm(traj.states - ref.states, axis=1).max()
    assert gap < 0.2


def test_simulate_two_scale_t0_shift_invariance():
    sys = sincos_system(omega=100.0)
    x0 = np.array([0.5, -0.25])
    settings = IntegratorSettings(steps_per_period=64, projection=False)
    a = simulate_two_scale(sys, x0, 0.0, 1.0, settings, sample_dt=0.05)
    b = simulate_two_scale(sys, x0, 5.0, 1.0, settings, sample_dt=0.05)
    assert np.allclose(a.times + 5.0, b.times, atol=1e-12)
    assert np.abs(a.states - b.states).max() < 1e-12


@pytest.mark.parametrize("kind", ["static", "orbit"])
def test_simulate_two_scale_float_path_matches_array_rhs(kind):
    # the reduced embedded system runs on lists of floats; the same system
    # as an array right-hand side takes the numpy path of each field
    params = seek3d.SeekParams(alpha=0.125, omega=16.0 * math.pi, mu=1e-2)
    ssys = seek3d.embedded_system(params, seek3d.signal_field(kind), validate=False)
    sys = reduce_to_slow_manifold(ssys, validate=False)
    x0 = embedded_probe(np.random.default_rng(34))
    t0, tf = 3.0, 0.5
    settings = IntegratorSettings(steps_per_period=64, projection=False)
    got = simulate_two_scale(sys, x0, t0, tf, settings, sample_dt=0.01)

    sqw, w = math.sqrt(sys.omega), sys.omega
    f1, f2 = sys.f1.func, sys.f2.func

    def array_rhs(t, x):
        el = t - t0
        return sqw * np.asarray(f1(x, t, sqw * el, w * el)) + np.asarray(
            f2(x, t, sqw * el, w * el)
        )

    dt = oscillatory_step(sys.f1.T1, sys.f1.T2, sys.omega, math.inf, settings)
    want = integrate(array_rhs, x0, t0, t0 + tf, settings, dt=dt, sample_dt=0.01)
    assert np.array_equal(got.times, want.times)
    assert np.abs(got.states - want.states).max() <= 1e-12 * np.abs(want.states).max()


def test_simulate_averaged_zero_field_constant():
    x0 = np.array([2.0, 3.0])
    traj = simulate_averaged(lambda x, t: np.zeros(2), x0, 0.0, 1.0)
    assert np.abs(traj.states - x0).max() == 0.0


def test_simulate_averaged_linear_closed_form():
    drift = -0.5 * COMMUTATOR  # diag(1/2, -1/2)
    x0 = np.array([1.0, 2.0])
    traj = simulate_averaged(
        lambda x, t: drift @ x, x0, 0.0, 2.0, IntegratorSettings(steps_per_period=256)
    )
    expected = np.array([x0[0] * math.exp(1.0), x0[1] * math.exp(-1.0)])
    assert np.abs(traj.final_state - expected).max() < 1e-8


# --- singular systems ---------------------------------------------------------

def _frozen_singular(mu, omega=1.0):
    """1-D slow state with zero drift; fast state relaxes to phi(x) = x."""
    zero = SingularField(
        dim=1, fast_dim=1,
        func=lambda x, z, t, s, tau: np.zeros(1) if np.ndim(tau) == 0
        else np.zeros((len(tau), 1)),
        T1=TWO_PI, T2=TWO_PI,
    )
    return SingularSystem(
        f1=zero, f2=zero,
        g=lambda x, z, t: x - z,
        phi=lambda x, t: x,
        mu=mu, omega=omega,
    )


def test_singular_scalar_relaxation_closed_form():
    mu = 0.5
    ssys = _frozen_singular(mu)
    x0, z0 = np.array([0.7]), np.array([0.2])
    settings = IntegratorSettings(steps_per_period=256)
    traj = simulate_singular(ssys, x0, z0, 0.0, mu, settings, sample_dt=mu / 8)
    expected = z0[0] + (1.0 - math.exp(-1.0)) * (x0[0] - z0[0])
    assert abs(traj.final_state[1] - expected) < 1e-6
    assert np.abs(traj.states[:, 0] - x0[0]).max() == 0.0  # slow state frozen


def _embedded_tracking_error(mu, tf=5.0):
    params = seek3d.SeekParams(alpha=0.125, omega=4.0 * math.pi, mu=mu)
    field = seek3d.signal_field("static")
    ssys = seek3d.embedded_system(params, field, validate=False)
    p0 = np.array([-2.0, -2.0, 6.0])
    x0 = seek3d.embed_columns(p0, np.eye(3))
    z0 = ssys.phi(x0, 0.0)
    settings = IntegratorSettings(steps_per_period=64, projection=False)
    traj = simulate_singular(ssys, x0, z0, 0.0, tf, settings, sample_dt=0.01)
    worst = 0.0
    for t, y in zip(traj.times, traj.states):
        c = field.strength(y[0:3], t)
        worst = max(worst, abs(y[12] - c))
    return worst


def test_singular_seek3d_filter_tracks_signal():
    assert _embedded_tracking_error(1e-3) <= 0.1


def test_singular_tracking_error_scales_with_mu():
    e1 = _embedded_tracking_error(1e-3)
    e2 = _embedded_tracking_error(5e-4)
    assert 1.5 <= e1 / e2 <= 2.5


# --- slow-manifold reduction ---------------------------------------------------

def test_reduction_noop_when_fields_ignore_z():
    def f1_func(x, z, t, sigma, tau):
        tau = np.asarray(tau)
        v1, v2 = B1 @ x, B2 @ x
        if tau.ndim == 0:
            return math.sin(tau) * v1 + math.cos(tau) * v2
        return np.sin(tau)[:, None] * v1[None, :] + np.cos(tau)[:, None] * v2[None, :]

    f1 = SingularField(dim=2, fast_dim=2, func=f1_func, T1=TWO_PI, T2=TWO_PI)
    f2 = SingularField(
        dim=2, fast_dim=2,
        func=lambda x, z, t, s, tau: np.zeros(2) if np.ndim(tau) == 0
        else np.zeros((len(tau), 2)),
        T1=TWO_PI, T2=TWO_PI,
    )
    ssys = SingularSystem(
        f1=f1, f2=f2, g=lambda x, z, t: x - z, phi=lambda x, t: x, mu=0.1, omega=50.0
    )
    reduced_avg = rora_reduce(ssys)
    plain_avg = average_fields(sincos_system(omega=50.0))
    rng = np.random.default_rng(15)
    for _ in range(5):
        x = rng.normal(size=2)
        assert np.abs(reduced_avg(x, 0.0) - plain_avg(x, 0.0)).max() < 1e-10


def test_reduction_zero_f1_gives_mean_of_substituted_f2():
    def f2_func(x, z, t, sigma, tau):
        tau = np.asarray(tau)
        base = z + np.sin(tau if tau.ndim == 0 else tau[:, None]) * x
        return base

    zero = SingularField(
        dim=1, fast_dim=1,
        func=lambda x, z, t, s, tau: np.zeros(1) if np.ndim(tau) == 0
        else np.zeros((len(tau), 1)),
        T1=TWO_PI, T2=TWO_PI,
    )
    f2 = SingularField(dim=1, fast_dim=1, func=f2_func, T1=TWO_PI, T2=TWO_PI)
    ssys = SingularSystem(
        f1=zero, f2=f2, g=lambda x, z, t: 2.0 * x - z, phi=lambda x, t: 2.0 * x,
        mu=0.1, omega=30.0,
    )
    averaged = rora_reduce(ssys)
    x = np.array([0.7])
    # mean of z + sin(tau) x over a period with z = 2 x is just 2 x
    assert np.abs(averaged(x, 0.0) - 2.0 * x).max() < 1e-9


def test_reduction_matches_closed_form_gain():
    params = seek3d.SeekParams(alpha=0.125, omega=4.0 * math.pi, mu=1e-2)
    field = seek3d.signal_field("static")
    ssys = seek3d.embedded_system(params, field, validate=False)
    averaged = rora_reduce(ssys, QuadratureSettings(base_panels=64, tol=1e-7))
    rng = np.random.default_rng(16)
    from recavg.geom3 import rot_exp

    for _ in range(4):
        p = rng.normal(0.0, 2.0, 3)
        Q = rot_exp(rng.normal(size=3))
        x = seek3d.embed_columns(p, Q)
        got = averaged(x, 0.0)
        want_p = Q @ seek3d.AVERAGED_GAIN @ Q.T @ field.gradient(p, 0.0)
        assert np.abs(got[0:3] - want_p).max() < 1e-6
        assert np.abs(got[3:]).max() < 1e-8


# --- convergence study ----------------------------------------------------------

def test_convergence_study_sincos_rate():
    report = convergence_study(
        sincos_system(), np.array([1.0, 1.0]), 0.0, 2.0,
        [1e2, 1e3, 1e4],
        IntegratorSettings(steps_per_period=64, projection=False),
    )
    errs = report.sup_errors
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert -0.65 <= report.fitted_slope <= -0.35
    assert report.empirical_C > 0


def test_convergence_study_quadrupling_ratio():
    report = convergence_study(
        sincos_system(), np.array([1.0, 1.0]), 0.0, 2.0,
        [400.0, 1600.0, 6400.0],
        IntegratorSettings(steps_per_period=64, projection=False),
    )
    for ratio in report.error_ratios():
        assert 1.5 <= ratio <= 2.5


def test_convergence_study_rejects_bad_omegas():
    sys = sincos_system()
    x0 = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        convergence_study(sys, x0, 0.0, 1.0, [100.0, 100.0, 200.0])
    with pytest.raises(ValueError):
        convergence_study(sys, x0, 0.0, 1.0, [100.0, 200.0])
    with pytest.raises(ValueError):
        convergence_study(sys, x0, 0.0, 1.0, [-1.0, 1.0, 2.0])


def test_readme_library_example_runs():
    # the README's "Library example" block, run as printed: slope -0.512
    # over omegas 1e2, 4e2, 1.6e3 on a horizon of 1.0
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\n+```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert -0.65 <= namespace["report"].fitted_slope <= -0.35
