"""Recursive-averaging engine for two-timescale oscillatory systems.

Systems of the form

    dx/dt = sqrt(w) * f1(x, t, sqrt(w) t, w t) + f2(x, t, sqrt(w) t, w t)

are averaged into an autonomous-in-fast-time drift field by a double
quadrature: the fast-time bracket term

    (1 / (2 T1 T2)) * int_0^T1 int_0^T2 [ int_0^tau f1 ds, f1 ] dtau dsigma

plus the plain mean of f2 with prefactor 1 / (T1 T2). The integrands are
smooth and periodic, so each integral is the plain mean over n equispaced
nodes per period (the periodic trapezoid rule). The bracket term is taken by
parts, as the mean of J (2 G - G(T2)) with G = int_0^tau f1 and J = D f1, so
only f1's values need the spectral antiderivative. The Lie bracket convention
is [u, v] = (Dv) u - (Du) v; both it and the placement of the 1/2 prefactor
on the bracket term are pinned by the closed-form oracles in the test suite
(sin/cos fields and the rigid-body gain matrix).

A singularly perturbed variant carries a fast filter state z with
mu * dz/dt = g(x, z); its reduced counterpart substitutes the
quasi-steady-state z = phi(x) before averaging.
"""

import math
import numbers
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .odeint import IntegratorSettings, Trajectory, _plan_steps, integrate

_CHECK_SEED = 20260810
_ASSUMPTION_TOL = 1e-7
_PERIODICITY_TOL = 1e-9


class QuadratureError(RuntimeError):
    """Refinement failed to reach the requested agreement."""


@dataclass(frozen=True)
class QuadratureSettings:
    """Even periodic-grid node count per period, doubled per refinement, and the stop rule."""

    base_panels: int = 64
    tol: float = 1e-9
    max_refinements: int = 4

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

    func takes a scalar tau and returns dim values, or a 1-D tau array and
    returns shape (len(tau), dim). At scalar tau, simulate_two_scale keeps
    odeint's rule: func gets the initial state as an array, then lists of
    floats if it answered a list and f2 is zero (the RK4 stages stay off
    numpy), else arrays. jac, the state Jacobian d f / d x, is called on
    tau arrays only and returns shape (len(tau), dim, dim); when absent the
    quadrature takes central differences. depends_sigma=False declares that
    func ignores sigma, which lets the quadrature collapse the sigma
    dimension exactly.
    """

    dim: int
    func: Callable
    T1: float
    T2: float
    jac: Optional[Callable] = None
    depends_sigma: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.T1 <= 0 or self.T2 <= 0:
            raise ValueError("periods T1, T2 must be positive")

    def eval_grid(self, x, t, sigma, taus):
        """Values on a tau grid, shape (len(taus), dim); else ValueError naming the contract."""
        try:
            vals = np.asarray(self.func(x, t, sigma, taus), dtype=float)
            if vals.shape == (len(taus), self.dim):
                return vals
            fault = f"got {vals.shape}"
        except (TypeError, ValueError, IndexError) as exc:
            fault = f"on a tau array it raised {exc!r}"
        raise ValueError(
            f"func must accept a 1-D tau array and return shape ({len(taus)}, {self.dim}); {fault}"
        )


def _zero_values(x, t, sigma, tau):
    """The zero field's func; _two_scale_rhs recognises it by identity and skips it."""
    return np.zeros(np.shape(tau) + (len(x),))


def _zero_jacobians(x, t, sigma, taus):
    return np.zeros((len(taus), len(x), len(x)))


def zero_field(dim: int, T1: float, T2: float) -> TwoScaleField:
    """The field that is zero at every (x, t, sigma, tau)."""
    return TwoScaleField(
        dim=dim, func=_zero_values, T1=T1, T2=T2, jac=_zero_jacobians, depends_sigma=False
    )


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

    @property
    def dim(self) -> int:
        return self.f1.dim


@dataclass(frozen=True)
class SingularField:
    """Vector field f(x, z, t, sigma, tau) with a fast-state argument z.

    func keeps TwoScaleField's contract: dim values at a scalar tau, shape
    (len(tau), dim) on a 1-D tau array. jac_x = d f / d x and
    jac_z = d f / d z are called on tau arrays only and return shapes
    (len(tau), dim, dim) and (len(tau), dim, fast_dim).
    """

    dim: int
    fast_dim: int
    func: Callable
    T1: float
    T2: float
    jac_x: Optional[Callable] = None
    jac_z: Optional[Callable] = None
    depends_sigma: bool = True


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
    """Mean of f over one tau-period must vanish (zero-mean oscillation)."""
    taus = _periodic_nodes(64, f.T2)
    for _ in range(n_points):
        x = np.array([rng.gauss(0.0, 1.0) for _ in range(f.dim)])
        t = rng.gauss(0.0, 1.0)
        sigma = rng.uniform(0.0, f.T1)
        mean = f.eval_grid(x, t, sigma, taus).mean(axis=0)
        if np.abs(mean).max() > tol:
            raise ValueError(
                "f1 has nonzero tau-mean at a sampled point "
                f"(|mean| = {np.abs(mean).max():.3e})"
            )


# ---------------------------------------------------------------------------
# quadrature primitives

def _periodic_nodes(n: int, length: float) -> np.ndarray:
    """n equispaced nodes of the periodic trapezoid rule on [0, length)."""
    return np.arange(n) * (length / n)


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


def _antiderivative_to_end(values, length: float) -> np.ndarray:
    """int_tau^T along axis 0 on the grid: P^T v = mean(P u) - P u + mean(tau v)
    for P = _periodic_antiderivative and u = v less its sum at the first node."""
    first = values.copy()
    first[0] -= values.sum(axis=0)
    anti = _periodic_antiderivative(first, length)
    ramp = _periodic_nodes(values.shape[0], length).reshape((-1,) + (1,) * (values.ndim - 1))
    return anti.mean(axis=0) - anti + (ramp * values).mean(axis=0)


def _fd_step(x) -> float:
    return max(1e-6, 1e-6 * float(np.abs(x).max()))


def fd_jacobian(func, x) -> np.ndarray:
    """Central finite-difference Jacobian of func at x."""
    x = np.asarray(x, dtype=float)
    h = _fd_step(x)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.asarray(func(x + e)) - np.asarray(func(x - e))) / (2.0 * h))
    jac = np.stack(cols, axis=-1)
    if not np.all(np.isfinite(jac)):
        raise ValueError("non-finite Jacobian entries")
    return jac


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


# ---------------------------------------------------------------------------
# the averaging quadrature

def _field_and_jac_on_grid(f: TwoScaleField, x, t, sigma, taus):
    """Values and Jacobians of f on a tau grid, by analytic jac or central FD."""
    vals = f.eval_grid(x, t, sigma, taus)
    if f.jac is not None:
        return vals, np.asarray(f.jac(x, t, sigma, taus), dtype=float)
    return vals, fd_jacobian(lambda y: f.eval_grid(y, t, sigma, taus), x)


def _averaged_value(sys: TwoScaleSystem, x, t, n):
    """One pass of the averaged drift at (x, t) on an n x n periodic grid.

    The bracket [G, f1] = J G - (P J) f1, with J = D f1, P the grid
    antiderivative int_0^tau (_periodic_antiderivative) and G = P f1, is
    taken by parts: the tau-sum of (P J) f1 equals that of J (P^T f1), and
    P^T f1 is int_tau^T f1, so J (G - P^T f1) = J (2 G - G(T)) needs no
    antiderivative of J. When neither field depends on sigma, one sigma
    node is exact.
    """
    f1, f2 = sys.f1, sys.f2
    taus = _periodic_nodes(n, f1.T2)
    sigmas = _periodic_nodes(n, f1.T1) if f1.depends_sigma or f2.depends_sigma else [0.0]

    x = np.asarray(x, dtype=float)
    bracket = np.zeros(f1.dim)
    mean = np.zeros(f1.dim)
    for sig in sigmas:
        vals, jacs = _field_and_jac_on_grid(f1, x, t, sig, taus)
        by_parts = _periodic_antiderivative(vals, f1.T2) - _antiderivative_to_end(vals, f1.T2)
        bracket += np.einsum("mij,mj->i", jacs, by_parts)
        mean += f2.eval_grid(x, t, sig, taus).sum(axis=0)
    points = len(sigmas) * n
    # times 1 / points, then halved: the rounding every pinned result was made with
    return bracket * (1 / points) / 2.0 + mean / points


def average_fields(
    sys: TwoScaleSystem, settings: QuadratureSettings = QuadratureSettings()
) -> Callable:
    """Averaged drift of a two-timescale system, by refined double quadrature:
    a callable (x, t) -> dx/dt that returns an array of dim floats.

    Every evaluation re-quadratures from scratch, doubling the nodes per
    period until two successive results agree within settings.tol. The
    bracket sign and the 1/2-prefactor placement are fixed: the closed-form
    oracles pin them, and runner.verify shows what breaking either does.
    """

    def func(x, t):
        prev = _averaged_value(sys, x, t, settings.base_panels)
        if settings.max_refinements == 0:
            return prev
        for level in range(1, settings.max_refinements + 1):
            nodes = settings.base_panels * (2**level)
            cur = _averaged_value(sys, x, t, nodes)
            if np.abs(cur - prev).max() <= settings.tol:
                return cur
            prev = cur
        raise QuadratureError(
            f"quadrature did not converge to {settings.tol:g} within "
            f"{settings.max_refinements} refinements"
        )

    return func


def reduce_to_slow_manifold(ssys: SingularSystem, validate: bool = True) -> TwoScaleSystem:
    """Substitute the quasi-steady state z = phi(x, t) into both fields.

    Jacobians compose as d f~ / dx = df/dx + df/dz . dphi/dx when all
    analytic pieces are available; otherwise the reduced field falls back to
    finite differences.
    """

    def make_reduced(sf: SingularField) -> TwoScaleField:
        def func(x, t, sigma, tau):
            return sf.func(x, ssys.phi(x, t), t, sigma, tau)

        jac = None
        if sf.jac_x is not None and sf.jac_z is not None and ssys.phi_jac is not None:

            def jac(x, t, sigma, taus):
                z = ssys.phi(x, t)
                jx = np.asarray(sf.jac_x(x, z, t, sigma, taus))
                jz = np.asarray(sf.jac_z(x, z, t, sigma, taus))
                dphi = np.asarray(ssys.phi_jac(x, t)).reshape(sf.fast_dim, sf.dim)
                return jx + np.einsum("tnm,mk->tnk", jz, dphi)

        return TwoScaleField(
            dim=sf.dim,
            func=func,
            T1=sf.T1,
            T2=sf.T2,
            jac=jac,
            depends_sigma=sf.depends_sigma,
        )

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

    An f2 built by zero_field is never called. The RHS answers a list of
    floats when f1 answers one and f2 is zero, so odeint runs its float
    loop, as for simulate_singular; otherwise it answers an array.
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

    The omegas run one after another, each on the step of simulate_two_scale;
    the largest one's step plan is checked before any run.
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
    dt = oscillatory_step(system.f1.T1, system.f1.T2, omegas[-1], math.inf, settings)
    try:
        _plan_steps(t0, t0 + tf, dt, sample_dt)
    except ValueError as exc:
        raise ValueError(f"omega = {omegas[-1]:.6g} over tf = {tf:g}: {exc}") from None

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
