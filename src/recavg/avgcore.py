"""Recursive-averaging engine for two-timescale oscillatory systems.

Systems of the form

    dx/dt = sqrt(w) * f1(x, t, sqrt(w) t, w t) + f2(x, t, sqrt(w) t, w t)

are averaged into an autonomous-in-fast-time drift field by a double
quadrature: the fast-time bracket term

    (1 / (2 T1 T2)) * int_0^T1 int_0^T2 [ int_0^tau f1 ds, f1 ] dtau dsigma

plus the plain mean of f2 with prefactor 1 / (T1 T2). The integrands are
smooth and periodic, so each integral is the plain mean over n equispaced
nodes per period (the periodic trapezoid rule), refined by average_fields,
with the bracket term taken by parts (_averaged_value). The Lie bracket
convention is [u, v] = (Dv) u - (Du) v; it and the 1/2 prefactor on the
bracket term are pinned by closed-form oracles in the test suite (sin/cos
fields, the rigid-body gain matrix, random trigonometric linear systems).

A singularly perturbed variant carries a fast filter state z with
mu * dz/dt = g(x, z); its reduced counterpart substitutes the
quasi-steady-state z = phi(x) before averaging.
"""

import math
import numbers
import random
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .odeint import IntegratorSettings, Trajectory, _plan_steps, integrate

_CHECK_SEED = 20260810
_ASSUMPTION_TOL = 1e-7
_PERIODICITY_TOL = 1e-9
# the golden-ratio fraction: no multiple of it is whole, so an offset by it moves any alias
_NODE_OFFSET = (math.sqrt(5.0) - 1.0) / 2.0
# the bracket takes the skew matrix on tau grids up to this size: a whole embedded pass on
# row stacks (2-core host) took 0.75-0.96x the FFT form's time to 256 nodes, 1.02-1.23x at 512
_SKEW_MAX_NODES = 256
# a pass's blocks of sigma rows hold at most this many points: a 12-dim block's values (96 KiB)
# stay under glibc's 128 KiB mmap threshold; verify-gain's peak RSS read 1.03x that of 64-point
# blocks of Jacobian stacks (1,024-point stacks, 1.1 MiB each, read 1.05x)
_BLOCK_POINTS = 1024


class QuadratureError(RuntimeError):
    """Refinement failed to reach the requested agreement."""


@dataclass(frozen=True)
class QuadratureSettings:
    """First pass's even node count per period, doubled per refinement, and the stop rule."""

    base_panels: int = 8
    tol: float = 1e-9
    max_refinements: int = 7

    def __post_init__(self):
        n = self.base_panels
        if not isinstance(n, numbers.Integral) or n < 2 or n % 2:
            raise ValueError("base_panels must be a positive even integer")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and > 0")
        if not isinstance(self.max_refinements, numbers.Integral) or self.max_refinements < 0:
            raise ValueError("max_refinements must be an integer >= 0")


@dataclass(frozen=True)
class TwoScaleField:
    """Time-varying vector field f(x, t, sigma, tau) with declared periods.

    func takes scalar sigma and tau and returns dim values; on a grid, sigma
    and tau are 1-D arrays of one length, a (sigma, tau) node per entry, and
    it returns shape (len(tau), dim). At scalar tau, simulate_two_scale keeps
    odeint's rule: func gets the initial state as an array, then lists of
    floats if it answered a list and f2 is zero (the RK4 stages stay off
    numpy), else arrays. jvp(x, t, sigmas, taus, v), the state Jacobian
    times v of shape (len(taus), dim), is called on grids only and returns
    shape (len(taus), dim), row n the product D_x f v_n at node n; when
    absent the quadrature takes central-difference Jacobians.
    """

    dim: int
    func: Callable
    T1: float
    T2: float
    jvp: Optional[Callable] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.T1 <= 0 or self.T2 <= 0:
            raise ValueError("periods T1, T2 must be positive")

    def eval_grid(self, x, t, sigmas, taus):
        """Values on a grid, shape (len(taus), dim); else ValueError naming the contract."""
        try:
            vals = np.asarray(self.func(x, t, sigmas, taus), dtype=float)
            if vals.shape == (len(taus), self.dim):
                return vals
            fault = f"got {vals.shape}"
        except (TypeError, ValueError, IndexError) as exc:
            fault = f"on arrays it raised {exc!r}"
        raise ValueError(
            "func must accept 1-D sigma and tau arrays of one length and return shape "
            f"({len(taus)}, {self.dim}); {fault}"
        )


def _zero_values(x, t, sigma, tau):
    """The zero field's func; _two_scale_rhs recognises it by identity and skips it."""
    return np.zeros(np.shape(tau) + (len(x),))


def _zero_jvp(x, t, sigmas, taus, v):
    return np.zeros(np.shape(v))


def zero_field(dim: int, T1: float, T2: float) -> TwoScaleField:
    """The field that is zero at every (x, t, sigma, tau)."""
    return TwoScaleField(dim=dim, func=_zero_values, T1=T1, T2=T2, jvp=_zero_jvp)


@dataclass(frozen=True)
class TwoScaleSystem:
    """Pair (f1, f2) of equal dimension plus the frequency parameter."""

    f1: TwoScaleField
    f2: TwoScaleField
    omega: float
    validate: bool = True

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.f1.dim != self.f2.dim:
            raise ValueError("f1 and f2 must have equal dimension")
        if self.f1.T1 != self.f2.T1 or self.f1.T2 != self.f2.T2:
            raise ValueError("f1 and f2 must share the periods T1 and T2")
        if self.validate:
            rng = random.Random(_CHECK_SEED)
            _check_periodicity(self.f1, rng)
            _check_periodicity(self.f2, rng)
            _check_zero_mean(self.f1, rng)


@dataclass(frozen=True)
class SingularField:
    """Vector field f(x, z, t, sigma, tau) with a fast-state argument z.

    func keeps TwoScaleField's contract, at scalars and on grids.
    jvp(x, z, t, sigmas, taus, vx, vz) is called on grids only, with vx of
    shape (len(taus), dim) and vz of shape (len(taus), fast_dim), and
    returns shape (len(taus), dim): row n is D_x f vx_n + D_z f vz_n at node n.
    """

    dim: int
    fast_dim: int
    func: Callable
    T1: float
    T2: float
    jvp: Optional[Callable] = None


@dataclass(frozen=True)
class SingularSystem:
    """Slow/fast pair: dx/dt as in TwoScaleSystem but fed by z, mu dz/dt = g(x, z).

    g and phi take (x, z, t) and (x, t); phi is the quasi-steady-state map
    with g(x, phi(x, t), t) = 0. phi answers fast_dim values, which the
    reduced fields pass to f1 and f2 as z as they stand. phi_jac, when
    given, is d phi / d x with shape (fast_dim, dim). f2 = None is the zero
    order-one field; the slow-manifold reduction turns it into zero_field.
    """

    f1: SingularField
    # a string: typing caches its last 128 Optional[cls], and each entry would
    # keep a re-imported copy of this module alive
    f2: "Optional[SingularField]"
    g: Callable
    phi: Callable
    mu: float
    omega: float
    phi_jac: Optional[Callable] = None
    validate: bool = True

    def __post_init__(self):
        if self.mu <= 0 or self.omega <= 0:
            raise ValueError("mu and omega must be positive")
        f1, f2 = self.f1, self.f2
        if f2 is not None and (f1.dim != f2.dim or f1.fast_dim != f2.fast_dim):
            raise ValueError("f1 and f2 must agree in dim and fast_dim")
        if self.validate:
            self._check_equilibrium(random.Random(_CHECK_SEED))
            reduce_to_slow_manifold(self)  # TwoScaleSystem's checks of the reduced fields

    @property
    def dim(self) -> int:
        return self.f1.dim

    @property
    def fast_dim(self) -> int:
        return self.f1.fast_dim

    def _check_equilibrium(self, rng, n_points=16, tol=1e-9):
        """g(x, phi(x, t), t) = 0 at n_points normal draws of rng, a random.Random."""
        for _ in range(n_points):
            x = np.array([rng.gauss(0.0, 1.0) for _ in range(self.dim)])
            t = rng.gauss(0.0, 1.0)
            z = self.phi(x, t)
            if np.shape(z) != (self.fast_dim,):
                raise ValueError(
                    f"phi must return fast_dim = {self.fast_dim} values, got {np.shape(z)}"
                )
            residual = np.asarray(self.g(x, z, t))
            if np.abs(residual).max() > tol:
                raise ValueError(
                    "g(x, phi(x)) is not zero at a sampled point "
                    f"(residual {np.abs(residual).max():.3e})"
                )


@dataclass(frozen=True)
class ConvergenceReport:
    """Sup-error sweep over omega with the fitted log-log slope."""

    omegas: tuple
    sup_errors: tuple
    fitted_slope: float
    empirical_C: float
    t_final: float

    def __post_init__(self):
        if len(self.omegas) != len(self.sup_errors) or len(self.omegas) < 3:
            raise ValueError("need >= 3 omega values with matching errors")
        if any(e <= 0 for e in self.sup_errors):
            raise ValueError("sup errors must be positive")

    def error_ratios(self):
        e = self.sup_errors
        return tuple(e[i] / e[i + 1] for i in range(len(e) - 1))


# ---------------------------------------------------------------------------
# construction-time assumption checks; rng is a random.Random seeded with
# _CHECK_SEED, which keeps numpy.random out of the process

def _check_periodicity(f: TwoScaleField, rng, n_points=16, tol=_PERIODICITY_TOL):
    """f is finite and T1-, T2-periodic at n_points random (x, t, sigma, tau)."""
    for _ in range(n_points):
        x = np.array([rng.gauss(0.0, 1.0) for _ in range(f.dim)])
        t = rng.gauss(0.0, 1.0)
        sigma = rng.uniform(0.0, f.T1)
        tau = rng.uniform(0.0, f.T2)
        base = np.asarray(f.func(x, t, sigma, tau))
        shift_sigma = np.asarray(f.func(x, t, sigma + f.T1, tau))
        shift_tau = np.asarray(f.func(x, t, sigma, tau + f.T2))
        if not np.all(np.isfinite(base)):
            raise ValueError("field evaluated to a non-finite value")
        if np.abs(shift_sigma - base).max() > tol:
            raise ValueError("field is not T1-periodic in sigma at a sampled point")
        if np.abs(shift_tau - base).max() > tol:
            raise ValueError("field is not T2-periodic in tau at a sampled point")


def _check_zero_mean(f: TwoScaleField, rng, n_points=16, tol=_ASSUMPTION_TOL):
    """f's tau-mean must vanish, read on the first default grid where _tau_mean settles."""
    quad = QuadratureSettings()
    ladder = [quad.base_panels << k for k in range(quad.max_refinements + 1)]
    for _ in range(n_points):
        x = np.array([rng.gauss(0.0, 1.0) for _ in range(f.dim)])
        t = rng.gauss(0.0, 1.0)
        sigma = rng.uniform(0.0, f.T1)
        for n in ladder:
            mean = _tau_mean(f, x, t, np.array([sigma]), n, tol)
            if mean is not None:
                break
        else:
            raise ValueError(f"f1's tau-mean at a sampled point still moves on {n} nodes")
        if np.abs(mean).max() > tol:
            raise ValueError(
                "f1 has nonzero tau-mean at a sampled point "
                f"(|mean| = {np.abs(mean).max():.3e})"
            )


# ---------------------------------------------------------------------------
# quadrature primitives

def _periodic_nodes(n: int, length: float, offset: float = 0.0) -> np.ndarray:
    """n equispaced nodes of the periodic trapezoid rule on [0, length), offset spacings on."""
    return (np.arange(n) + offset) * (length / n)


def _tau_mean(f: TwoScaleField, x, t, sigmas, n: int, tol):
    """f's n-node tau-means at sigmas, shape (len(sigmas), dim), or None when one moves by
    more than tol on the grid _NODE_OFFSET spacings on (one call): an alias moves, a mean not."""
    taus = np.add.outer((0.0, _NODE_OFFSET), np.arange(n)).ravel() * (f.T2 / n)
    vals = f.eval_grid(x, t, np.repeat(sigmas, 2 * n), np.tile(taus, len(sigmas)))
    plain, offset = np.moveaxis(vals.reshape(len(sigmas), 2, n, f.dim).sum(axis=2), 1, 0)
    return plain / n if np.abs(offset - plain).max() <= tol * n else None


def _periodic_antiderivative(values, length: float) -> np.ndarray:
    """int_0^tau along axis 0 of samples on _periodic_nodes(n, length), n even.

    The oscillation is integrated spectrally (its Nyquist mode dropped) and
    the mean as a ramp, so a small residual mean is not lost.
    """
    n, column = values.shape[0], (-1,) + (1,) * (values.ndim - 1)
    coeffs = np.fft.rfft(values, axis=0)
    coeffs[1:-1] /= 1j * (2.0 * np.pi / length) * np.arange(1, n // 2).reshape(column)
    coeffs[[0, -1]] = 0.0
    anti = np.fft.irfft(coeffs, n=n, axis=0)
    return anti - anti[0] + _periodic_nodes(n, length).reshape(column) * values.mean(axis=0)


def _by_parts_factor(n: int, length: float) -> Callable:
    """(P - P^T) v along axis -2 of a (..., n, dim) stack, P = _periodic_antiderivative:
    column j of P is q = p - tau / n (p = P e_0) shifted down by j, less its first entry,
    plus tau / n. A small grid takes P - P^T from q and a strided view; a larger one
    2 P v - p sum(v) - 1 (p . v), with P's FFTs along the stack's tau axis."""
    ramp, p = _periodic_nodes(n, length) / n, _periodic_antiderivative(np.eye(1, n)[0], length)
    if n <= _SKEW_MAX_NODES:
        q = p - ramp
        circulant = np.lib.stride_tricks.sliding_window_view(np.concatenate((q[1:], q)), n)[:, ::-1]
        anti = circulant - circulant[0] + ramp[:, None]
        return (anti - anti.T).__matmul__

    def fft_form(v):
        anti = np.moveaxis(_periodic_antiderivative(np.moveaxis(v, -2, 0), length), 0, -2)
        return 2.0 * anti - p[:, None] * v.sum(axis=-2, keepdims=True) - (p @ v)[..., None, :]

    return fft_form


def fd_jacobian(func, x) -> np.ndarray:
    """Central finite-difference Jacobian of func at x."""
    x = np.asarray(x, dtype=float)
    h = max(1e-6, 1e-6 * float(np.abs(x).max()))
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.asarray(func(x + e)) - np.asarray(func(x - e))) / (2.0 * h))
    jac = np.stack(cols, axis=-1)
    if not np.all(np.isfinite(jac)):
        raise ValueError("non-finite Jacobian entries")
    return jac


# ---------------------------------------------------------------------------
# the averaging quadrature

def _sigma_blocks(sys: TwoScaleSystem, n: int, row_points: int):
    """An n x n pass's sigma nodes, _NODE_OFFSET spacings on so that the n and 2n passes
    alias a sigma harmonic differently, in blocks of rows of row_points points each: at
    most _BLOCK_POINTS points a block, or one row when a row alone is larger."""
    sigmas, rows = _periodic_nodes(n, sys.f1.T1, _NODE_OFFSET), max(1, _BLOCK_POINTS // row_points)
    return [sigmas[i:i + rows] for i in range(0, n, rows)]


def _averaged_value(sys: TwoScaleSystem, x, t, n, by_parts):
    """One pass of the averaged drift at (x, t) on an n x n periodic grid, with by_parts
    _by_parts_factor(n, T2); one f1, jvp and f2 call per block of sigma rows.

    The bracket [G, f1] = J G - (P J) f1, with J = D f1, P the grid
    antiderivative int_0^tau and G = P f1, is taken by parts: the tau-sum
    of (P J) f1 equals that of J (P^T f1), so it sums as J ((P - P^T) f1),
    one Jacobian-vector product per node. A field without jvp pays for
    central-difference Jacobian stacks.
    """
    f1, f2 = sys.f1, sys.f2
    taus = _periodic_nodes(n, f1.T2)
    bracket = np.zeros(f1.dim)
    mean = np.zeros(f1.dim)
    for block in _sigma_blocks(sys, n, n):
        sigmas, grid = np.repeat(block, n), np.tile(taus, len(block))
        vals = f1.eval_grid(x, t, sigmas, grid)
        skewed = by_parts(vals.reshape(len(block), n, f1.dim)).reshape(vals.shape)
        if f1.jvp is not None:
            bracket += f1.jvp(x, t, sigmas, grid, skewed).sum(axis=0)
        else:
            jacs = fd_jacobian(lambda y: f1.eval_grid(y, t, sigmas, grid), x)
            bracket += np.einsum("mij,mj->i", jacs, skewed)
        mean += f2.eval_grid(x, t, sigmas, grid).sum(axis=0)
    points = n * n
    # times 1 / points, then halved: the rounding every pinned result was made with
    return bracket * (1 / points) / 2.0 + mean / points


def average_fields(
    sys: TwoScaleSystem, settings: QuadratureSettings = QuadratureSettings()
) -> Callable:
    """Averaged drift of a two-timescale system, by refined double quadrature:
    a callable (x, t) -> dx/dt that returns an array of dim floats.

    Every evaluation re-quadratures from scratch, doubling the nodes per period until
    the n- and 2n-node results agree within settings.tol and f1's and f2's tau-means
    settle (_tau_mean) at the n-node sigma nodes, as the bracket cannot see a harmonic
    aliased onto f1's mean. max_refinements = 0 returns the first pass unchecked. Passes
    evaluate blocks of sigma rows (_sigma_blocks) and take the bracket from f1's jvp; the
    callable keeps each level's by_parts.
    """
    by_parts = cache(lambda n: _by_parts_factor(n, sys.f1.T2))

    def func(x, t):
        x, n = np.asarray(x, dtype=float), settings.base_panels
        prev = _averaged_value(sys, x, t, n, by_parts(n))
        if settings.max_refinements == 0:
            return prev
        for _ in range(settings.max_refinements):
            cur = _averaged_value(sys, x, t, 2 * n, by_parts(2 * n))
            if np.abs(cur - prev).max() <= settings.tol and all(
                _tau_mean(f, x, t, block, n, settings.tol) is not None
                for block in _sigma_blocks(sys, n, 2 * n) for f in (sys.f1, sys.f2)
            ):
                return cur
            n, prev = 2 * n, cur
        raise QuadratureError(
            f"quadrature did not converge to {settings.tol:g} within "
            f"{settings.max_refinements} refinements"
        )

    return func


def reduce_to_slow_manifold(ssys: SingularSystem, validate: bool = True) -> TwoScaleSystem:
    """Substitute the quasi-steady state z = phi(x, t) into both fields.

    Directional derivatives compose as D f~ v = D_x f v + D_z f (dphi/dx v)
    when the field's jvp and phi_jac are given; otherwise the reduced field
    falls back to finite differences.
    """

    def make_reduced(sf: SingularField) -> TwoScaleField:
        def func(x, t, sigma, tau):
            return sf.func(x, ssys.phi(x, t), t, sigma, tau)

        jvp = None
        if sf.jvp is not None and ssys.phi_jac is not None:

            def jvp(x, t, sigmas, taus, v):
                dphi = np.asarray(ssys.phi_jac(x, t)).reshape(sf.fast_dim, sf.dim)
                return sf.jvp(x, ssys.phi(x, t), t, sigmas, taus, v, v @ dphi.T)

        return TwoScaleField(dim=sf.dim, func=func, T1=sf.T1, T2=sf.T2, jvp=jvp)

    if ssys.f2 is None:
        f2 = zero_field(ssys.dim, ssys.f1.T1, ssys.f1.T2)
    else:
        f2 = make_reduced(ssys.f2)
    return TwoScaleSystem(
        f1=make_reduced(ssys.f1),
        f2=f2,
        omega=ssys.omega,
        validate=validate,
    )


def rora_reduce(
    ssys: SingularSystem, settings: QuadratureSettings = QuadratureSettings()
) -> Callable:
    """Reduced-order averaged drift, a callable (x, t) -> dx/dt: slow-manifold
    substitution, then average_fields."""
    return average_fields(reduce_to_slow_manifold(ssys, validate=False), settings)


# ---------------------------------------------------------------------------
# simulation wrappers

def _two_scale_rhs(sys: TwoScaleSystem, t0: float):
    """RHS of the oscillatory system with phases anchored at the start time.

    The fast phases are sigma = sqrt(w) (t - t0) and tau = w (t - t0); the
    slow-time argument stays absolute. Anchoring makes runs of fields with
    no explicit t-dependence invariant under shifting t0.
    """
    sqw = math.sqrt(sys.omega)
    w = sys.omega
    f1 = sys.f1.func
    f2 = None if sys.f2.func is _zero_values else sys.f2.func

    def rhs(t, x):
        el = t - t0
        sigma, tau = sqw * el, w * el
        v = f1(x, t, sigma, tau)
        if f2 is None and isinstance(v, list):
            return [sqw * a for a in v]
        dx = sqw * np.asarray(v)
        return dx if f2 is None else dx + np.asarray(f2(x, t, sigma, tau))

    return rhs


def oscillatory_step(
    T1: float, T2: float, omega: float, mu: float, settings: IntegratorSettings
) -> float:
    """The RK4 step of an oscillatory system: the shorter forcing period, T2 / w
    in tau = w t or T1 / sqrt(w) in sigma = sqrt(w) t, over steps_per_period,
    capped at the filter time constant mu (math.inf where there is none);
    explicit RK4 is unstable on the filter once the step exceeds ~2.8 mu."""
    return min(min(T2 / omega, T1 / math.sqrt(omega)) / settings.steps_per_period, mu)


def averaged_step(settings: IntegratorSettings) -> float:
    """1 / steps_per_period time units, the RK4 step of an order-one averaged flow."""
    return 1.0 / settings.steps_per_period


def simulate_two_scale(
    sys: TwoScaleSystem,
    x0,
    t0: float,
    tf: float,
    settings: IntegratorSettings = IntegratorSettings(),
    *,
    sample_dt: float = None,
) -> Trajectory:
    """Integrate dx/dt = sqrt(w) f1 + f2 over [t0, t0 + tf] with anchored phases."""
    return integrate(
        _two_scale_rhs(sys, t0), x0, t0, t0 + tf, settings,
        dt=oscillatory_step(sys.f1.T1, sys.f1.T2, sys.omega, math.inf, settings),
        sample_dt=sample_dt,
    )


def simulate_singular(
    ssys: SingularSystem,
    x0,
    z0,
    t0: float,
    tf: float,
    settings: IntegratorSettings = IntegratorSettings(),
    *,
    sample_dt: float = None,
    rotation_blocks: Sequence[int] = (),
) -> Trajectory:
    """Integrate the coupled slow/fast system; state is [x, z] concatenated.

    Phases are anchored at t0, and the step is oscillatory_step's, capped at
    mu: under the period-only rule RK4 was observed to diverge on the filter.
    With f2 None and list answers from f1 and g, the RHS answers a list of
    floats, so odeint runs its float loop, as for _two_scale_rhs.
    """
    n = ssys.dim
    sqw = math.sqrt(ssys.omega)
    w = ssys.omega
    mu = ssys.mu
    f1, g = ssys.f1.func, ssys.g
    f2 = ssys.f2.func if ssys.f2 is not None else None

    def rhs(t, y):
        x, z = y[:n], y[n:]
        el = t - t0
        sigma, tau = sqw * el, w * el
        v = f1(x, z, t, sigma, tau)
        dz = g(x, z, t)
        if f2 is None and isinstance(v, list) and isinstance(dz, list):
            return [sqw * a for a in v] + [b / mu for b in dz]
        dx = sqw * np.asarray(v)
        if f2 is not None:
            dx = dx + np.asarray(f2(x, z, t, sigma, tau))
        return np.concatenate([dx, np.atleast_1d(np.asarray(dz) / mu)])

    y0 = np.concatenate([np.asarray(x0, dtype=float), np.atleast_1d(z0).astype(float)])
    return integrate(
        rhs, y0, t0, t0 + tf, settings, rotation_blocks=rotation_blocks,
        dt=oscillatory_step(ssys.f1.T1, ssys.f1.T2, ssys.omega, mu, settings),
        sample_dt=sample_dt,
    )


def simulate_averaged(
    drift: Callable,
    x0,
    t0: float,
    tf: float,
    settings: IntegratorSettings = IntegratorSettings(),
    *,
    sample_dt: float = None,
) -> Trajectory:
    """Integrate dx/dt = drift(x, t) for drift a callable (x, t) -> dx/dt,
    on averaged_step's step. A drift that answers with a list of floats
    gets the state as a list of floats (odeint's float loop).
    """
    return integrate(
        lambda t, x: drift(x, t), x0, t0, t0 + tf, settings,
        dt=averaged_step(settings), sample_dt=sample_dt,
    )


# ---------------------------------------------------------------------------
# convergence study

def _check_sweep_plan(system: TwoScaleSystem, t0: float, tf: float, omega: float, settings):
    """ValueError naming omega and tf when the run at omega over [t0, t0 + tf],
    sampled at 400 intervals, would plan more RK4 steps than odeint takes."""
    dt = oscillatory_step(system.f1.T1, system.f1.T2, omega, math.inf, settings)
    try:
        _plan_steps(t0, t0 + tf, dt, tf / 400.0)
    except ValueError as exc:
        raise ValueError(f"omega = {omega:.6g} over tf = {tf:g}: {exc}") from None


def convergence_study(
    system: TwoScaleSystem,
    x0,
    t0: float,
    tf: float,
    omegas: Sequence[float],
    settings: IntegratorSettings = IntegratorSettings(),
    *,
    reference: Callable = None,
) -> ConvergenceReport:
    """Sup-error between the oscillatory system and its averaged limit per omega.

    Errors are measured at 400 equal sample intervals of [t0, t0 + tf]. The
    reference, a callable (x, t) -> dx/dt, defaults to the averaged drift
    built with the default QuadratureSettings; passing a closed form avoids
    re-quadrature at every reference step. A singular system is studied as
    reduce_to_slow_manifold(ssys), the hypothesis class of the averaging
    error bound.
    """
    omegas = [float(w) for w in omegas]
    if len(omegas) < 3:
        raise ValueError("need at least 3 omega values")
    if any(w <= 0 for w in omegas):
        raise ValueError("omega values must be positive")
    if any(b <= a for a, b in zip(omegas, omegas[1:])):
        raise ValueError("omega values must be strictly increasing")

    sample_dt = tf / 400.0
    # the largest omega plans the most steps; an over-long sweep stops here
    _check_sweep_plan(system, t0, tf, omegas[-1], settings)

    if reference is None:
        reference = average_fields(system)
    ref_traj = simulate_averaged(reference, x0, t0, tf, settings, sample_dt=sample_dt)

    def run_one(w):
        traj = simulate_two_scale(
            replace(system, omega=w, validate=False), x0, t0, tf, settings, sample_dt=sample_dt
        )
        if len(traj) != len(ref_traj):
            raise RuntimeError("sampling mismatch between run and reference")
        return float(np.linalg.norm(traj.states - ref_traj.states, axis=1).max())

    errors = [run_one(w) for w in omegas]

    logs = np.log(np.array(omegas))
    slope = float(np.polyfit(logs, np.log(np.array(errors)), 1)[0])
    c_emp = float(max(e * math.sqrt(w) for e, w in zip(errors, omegas)))
    return ConvergenceReport(
        omegas=tuple(omegas),
        sup_errors=tuple(errors),
        fitted_slope=slope,
        empirical_C=c_emp,
        t_final=tf,
    )
