"""Fluid model of BitTorrent-like swarms (substrate for refs [10, 27]).

The paper's Table I BitTorrent row and its efficiency arguments build
on the deterministic fluid models of Qiu & Srikant [27] and Fan, Lui &
Chiu [10]. This module implements that substrate: the classic two-state
ODE for the number of downloaders ``x(t)`` and seeds ``y(t)``::

    dx/dt = lambda - theta * x - min(c * x, mu * (eta * x + y))
    dy/dt = min(c * x, mu * (eta * x + y)) - gamma * y

where ``lambda`` is the arrival rate, ``theta`` the abort rate, ``c``
the download-bandwidth cap, ``mu`` the upload bandwidth, ``eta`` the
file-sharing *effectiveness* (the probability a downloader can serve
another — exactly the quantity Section IV-A2's piece-availability
analysis refines), and ``gamma`` the seed departure rate.

The module provides Euler integration of the transient, the
closed-form steady state, and Little's-law mean download times — the
fluid-level counterpart of Eq. 2's efficiency metric. The paper's
insight plugs in directly: an incentive mechanism changes ``eta``
(who *can* exchange with whom), and the fluid model translates that
into download-time differences.

Two degenerate regimes are first-class citizens because the hybrid
engine (:mod:`repro.sim.hybrid`, docs/SCALING.md) integrates through
them at every flash crowd:

* ``gamma == 0`` — seeds never leave. The swarm accumulates supply
  without bound, so the equilibrium is *demand*-constrained:
  ``x* = lambda / (c + theta)`` under a finite download cap and
  ``x* = 0`` without one, with ``y`` diverging. ``gamma == inf``
  (depart the instant the download completes — the paper's Section
  V-A workload) is also accepted: no lingering seed mass ever forms.
* ``lambda == 0`` — the post-flash tail. Once arrivals stop the ODE
  becomes linear and :func:`post_flash_decay` gives its closed form
  (matrix exponential of the 2x2 system), which the unit tests pin
  against the Euler integrator.

:func:`simulate_fluid_schedule` is the coupling surface for the
hybrid: arrival rate and effectiveness may be *time-varying* —
a non-stationary ``lambda(t)`` models the flash crowd itself
(:func:`flash_crowd_rate`), and a piecewise-constant ``eta(t)``
carries measured subswarm feedback back into the aggregate
(:func:`stepwise`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.errors import ModelParameterError

__all__ = [
    "FluidParameters",
    "FluidState",
    "simulate_fluid",
    "simulate_fluid_schedule",
    "flash_crowd_rate",
    "stepwise",
    "steady_state",
    "mean_download_time",
    "post_flash_decay",
    "effectiveness_from_exchange_probability",
]

#: A fluid coefficient that may vary with time: a constant, or a
#: callable ``t -> value`` evaluated at the *start* of each Euler step.
Schedule = Union[float, Callable[[float], float]]


@dataclass(frozen=True)
class FluidParameters:
    """Parameters of the Qiu-Srikant fluid model.

    Rates are per unit time for a unit-size file: ``mu`` and ``c`` are
    in files (not pieces) per unit time per peer.

    ``seed_departure_rate`` spans the full closed interval
    ``[0, inf]``: ``0`` means completed peers seed forever, ``inf``
    means they leave the instant they finish (the paper's flash-crowd
    workload), and anything between is an exponential linger with mean
    ``1/gamma``.
    """

    arrival_rate: float  # lambda
    upload_rate: float  # mu
    download_cap: float = float("inf")  # c
    effectiveness: float = 1.0  # eta
    seed_departure_rate: float = 1.0  # gamma
    abort_rate: float = 0.0  # theta

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ModelParameterError("arrival_rate must be non-negative")
        if self.upload_rate <= 0:
            raise ModelParameterError("upload_rate must be positive")
        if self.download_cap <= 0:
            raise ModelParameterError("download_cap must be positive")
        if not 0.0 <= self.effectiveness <= 1.0:
            raise ModelParameterError("effectiveness must lie in [0, 1]")
        if self.seed_departure_rate < 0 or math.isnan(self.seed_departure_rate):
            raise ModelParameterError(
                "seed_departure_rate must lie in [0, inf] (0 = seeds never "
                "leave, inf = depart on completion)")
        if self.abort_rate < 0:
            raise ModelParameterError("abort_rate must be non-negative")


@dataclass(frozen=True)
class FluidState:
    """Swarm state at one instant: downloaders ``x`` and seeds ``y``."""

    time: float
    downloaders: float
    seeds: float


def simulate_fluid(params: FluidParameters, t_end: float,
                   dt: float = 0.01, x0: float = 0.0, y0: float = 1.0,
                   ) -> List[FluidState]:
    """Euler-integrate the ODE from ``(x0, y0)`` up to ``t_end``.

    ``y0`` defaults to 1: the initial seeder. States are clamped at
    zero (the fluid approximation can otherwise undershoot).
    """
    return simulate_fluid_schedule(params, t_end, dt=dt, x0=x0, y0=y0)


def _coefficient(schedule: Optional[Schedule], default: float,
                 t: float) -> float:
    if schedule is None:
        return default
    if callable(schedule):
        return float(schedule(t))
    return float(schedule)


def simulate_fluid_schedule(params: FluidParameters, t_end: float,
                            dt: float = 0.01, x0: float = 0.0, y0: float = 1.0,
                            arrival_rate: Optional[Schedule] = None,
                            effectiveness: Optional[Schedule] = None,
                            seed_floor: float = 0.0,
                            ) -> List[FluidState]:
    """Euler integration with time-varying coefficients — the coupling
    surface of the fluid/event-driven hybrid (docs/SCALING.md).

    ``arrival_rate`` and ``effectiveness`` override the corresponding
    :class:`FluidParameters` field when given; either may be a constant
    or a callable ``t -> value`` sampled at the start of each step
    (:func:`flash_crowd_rate` builds the non-stationary flash-crowd
    ``lambda(t)``; :func:`stepwise` turns per-coupling-round subswarm
    feedback into a piecewise-constant ``eta(t)``).

    ``seed_floor`` is permanent exogenous seed mass (infrastructure
    seeders): it contributes to upload supply at every step but is not
    subject to ``gamma`` departures and is *excluded* from the reported
    ``seeds`` column, which tracks lingering completed peers only.
    With ``gamma == inf`` that column is identically ``y0`` at ``t=0``
    and ``0`` afterwards: completed peers depart within the step they
    finish.
    """
    if t_end <= 0 or dt <= 0 or dt > t_end:
        raise ModelParameterError("need 0 < dt <= t_end")
    if seed_floor < 0:
        raise ModelParameterError("seed_floor must be non-negative")
    gamma = params.seed_departure_rate
    states = [FluidState(0.0, float(x0), float(y0))]
    x, y = float(x0), float(y0)
    steps = int(round(t_end / dt))
    for step in range(1, steps + 1):
        t = (step - 1) * dt
        lam = _coefficient(arrival_rate, params.arrival_rate, t)
        eta = _coefficient(effectiveness, params.effectiveness, t)
        if lam < 0:
            raise ModelParameterError("arrival_rate schedule went negative")
        if not 0.0 <= eta <= 1.0:
            raise ModelParameterError(
                "effectiveness schedule left [0, 1]")
        if x <= 0.0:
            completed = 0.0  # nobody downloading (also avoids inf * 0)
        else:
            supply = params.upload_rate * (eta * x + y + seed_floor)
            completed = (supply if math.isinf(params.download_cap)
                         else min(params.download_cap * x, supply))
        dx = lam - params.abort_rate * x - completed
        x = max(0.0, x + dt * dx)
        if math.isinf(gamma):
            y = 0.0  # completed peers depart within the step
        else:
            y = max(0.0, y + dt * (completed - gamma * y))
        states.append(FluidState(step * dt, x, y))
    return states


def flash_crowd_rate(population: float, duration: float,
                     ) -> Callable[[float], float]:
    """Non-stationary ``lambda(t)`` of a flash crowd: ``population``
    peers arrive uniformly over ``[0, duration)``, then nobody does.

    ``duration == 0`` (the extreme flash crowd of Section IV-B) is
    modelled as arrival within the first integration step — callers
    should instead seed ``x0 = population`` in that case; this helper
    rejects it to keep the rate finite.
    """
    if population < 0:
        raise ModelParameterError("population must be non-negative")
    if duration <= 0:
        raise ModelParameterError(
            "duration must be positive (put an instantaneous crowd in x0)")
    rate = population / duration

    def schedule(t: float) -> float:
        return rate if 0.0 <= t < duration else 0.0

    return schedule


def stepwise(boundaries: Sequence[float], values: Sequence[float],
             ) -> Callable[[float], float]:
    """Piecewise-constant schedule from coupling-boundary feedback.

    ``values[i]`` holds on ``[boundaries[i], boundaries[i+1])``; the
    last value extends to infinity and the first extends back to
    ``-inf`` (so a schedule measured from round 0 covers the whole
    integration). This is how the hybrid feeds measured subswarm
    effectiveness back into the aggregate between coupling rounds.
    """
    if len(boundaries) != len(values):
        raise ModelParameterError("need one value per boundary")
    if not boundaries:
        raise ModelParameterError("need at least one (boundary, value)")
    if list(boundaries) != sorted(boundaries):
        raise ModelParameterError("boundaries must be ascending")
    points = [(float(b), float(v)) for b, v in zip(boundaries, values)]

    def schedule(t: float) -> float:
        current = points[0][1]
        for boundary, value in points:
            if t < boundary:
                break
            current = value
        return current

    return schedule


def steady_state(params: FluidParameters) -> FluidState:
    """Closed-form equilibrium of the fluid model ([27], Section 3).

    With ``nu = 1 / (eta + gamma_ratio)`` shorthand, the equilibrium
    solves ``lambda_eff = min(c x, mu (eta x + y))`` and
    ``y = lambda_eff / gamma``. Two regimes:

    * supply-constrained (the min picks the upload term),
    * download-constrained (``x = lambda_eff / c``).

    Degenerate corners:

    * ``lambda == 0`` — the swarm drains; for ``gamma > 0`` the unique
      equilibrium is empty. With ``gamma == 0`` as well, every
      ``(0, y)`` is an equilibrium (seeds that never leave persist at
      whatever mass the transient deposited); the returned ``seeds=0``
      is the infimum of that line, and :func:`post_flash_decay` gives
      the trajectory-dependent answer.
    * ``gamma == 0`` with ``lambda > 0`` — lingering supply grows
      without bound, so the equilibrium is demand-constrained:
      ``x* = lambda / (c + theta)`` under a finite cap, ``x* = 0``
      otherwise, with ``y = inf``.
    """
    lam = params.arrival_rate
    if lam == 0:
        return FluidState(float("inf"), 0.0, 0.0)
    theta, mu, gamma = params.abort_rate, params.upload_rate, params.seed_departure_rate
    eta, c = params.effectiveness, params.download_cap

    if gamma == 0:
        # Seeds never leave: y(t) -> inf, so supply is unbounded and
        # only the download cap (plus aborts) limits the equilibrium.
        x = lam / (c + theta) if not math.isinf(c) else 0.0
        return FluidState(float("inf"), x, float("inf"))

    # Ignoring aborts first (theta = 0 closed form), then correcting:
    # in equilibrium completed = lam - theta*x and y = completed/gamma.
    # Supply-constrained candidate: completed = mu*(eta x + y).
    #   lam - theta x = mu eta x + mu (lam - theta x)/gamma
    #   => x (theta + mu eta - mu theta / gamma) = lam (1 - mu / gamma)
    # (gamma == inf degrades gracefully: mu/gamma and mu*theta/gamma
    # both vanish, leaving the no-lingering equilibrium.)
    denom = theta + mu * eta - (0.0 if math.isinf(gamma)
                                else mu * theta / gamma)
    gamma_ratio = 0.0 if math.isinf(gamma) else mu / gamma
    if denom > 0:
        x_supply = lam * (1.0 - gamma_ratio) / denom
    else:
        x_supply = float("inf")
    if x_supply < 0:
        # Supply exceeds demand even at x = 0: download-constrained.
        x_supply = 0.0

    # Download-constrained candidate: completed = c x.
    x_demand = lam / (c + theta) if c != float("inf") else 0.0

    x = max(x_supply, x_demand)
    completed = lam - theta * x
    y = 0.0 if math.isinf(gamma) else completed / gamma
    return FluidState(float("inf"), max(x, 0.0), max(y, 0.0))


def mean_download_time(params: FluidParameters) -> float:
    """Steady-state mean download time via Little's law, ``T = x/lam_c``.

    ``lam_c`` is the rate of *completed* downloads (arrivals minus
    aborts). This is the fluid counterpart of Eq. 2's average download
    time; raising the effectiveness ``eta`` — what a better incentive
    mechanism does — strictly lowers it in the supply-constrained
    regime.

    Degenerate corners follow :func:`steady_state`: with ``gamma == 0``
    the unbounded lingering supply makes the download cap the only
    bottleneck (``T = 1/c``; ``0`` with no cap), and ``lambda == 0``
    has no steady-state throughput at all (``inf`` — use
    :func:`post_flash_decay` for the transient question).
    """
    state = steady_state(params)
    if params.seed_departure_rate == 0 and params.arrival_rate > 0:
        # x* / completed* directly: completed = lam - theta x*.
        if math.isinf(params.download_cap):
            return 0.0
        return 1.0 / params.download_cap
    completed = params.arrival_rate - params.abort_rate * state.downloaders
    if completed <= 0:
        return float("inf")
    return state.downloaders / completed


def post_flash_decay(params: FluidParameters, x0: float, y0: float,
                     t: float) -> Tuple[float, float]:
    """Closed-form ``(x(t), y(t))`` of the post-flash tail.

    Once arrivals stop (``lambda = 0``) and while the swarm stays in
    the supply-constrained regime (no binding download cap — pass
    ``download_cap=inf``), the ODE is linear::

        d/dt [x, y] = A [x, y],   A = [[-(theta + mu eta), -mu],
                                       [   mu eta,  mu - gamma]]

    and the solution is the matrix exponential ``expm(A t) [x0, y0]``,
    computed here by eigendecomposition (2x2, possibly complex pair;
    a defective/repeated eigenvalue falls back to the exact
    ``e^{lt}(I + (A - lI)t)`` form). The unit tests pin this against
    :func:`simulate_fluid` Euler runs.

    The form is exact only while ``x(t) > 0``: once the swarm fully
    drains, the integrator clamps at the empty state (completion rate
    zero) while the unclamped linear system would go negative — past
    that instant only the Euler trajectory is meaningful.

    Raises :class:`~repro.errors.ModelParameterError` when the closed
    form does not apply (``lambda != 0``, a finite download cap, or
    ``gamma == inf`` — with instant departure the tail is the scalar
    decay ``x(t) = x0 e^{-(theta + mu eta) t}``, which this function
    returns directly as its one non-matrix special case).
    """
    if params.arrival_rate != 0:
        raise ModelParameterError(
            "post_flash_decay is the lambda = 0 closed form; integrate "
            "simulate_fluid_schedule for a non-stationary tail")
    if not math.isinf(params.download_cap):
        raise ModelParameterError(
            "post_flash_decay assumes the supply-constrained regime "
            "(download_cap=inf); a binding cap makes the ODE piecewise")
    if t < 0:
        raise ModelParameterError("t must be non-negative")
    theta, mu = params.abort_rate, params.upload_rate
    eta, gamma = params.effectiveness, params.seed_departure_rate
    if math.isinf(gamma):
        # No lingering seeds: y = 0 and x decays alone. Completions
        # (rate mu eta x) and aborts (theta x) both remove downloaders.
        return (x0 * math.exp(-(theta + mu * eta) * t), 0.0)

    a, b = -(theta + mu * eta), -mu
    c, d = mu * eta, mu - gamma
    tr, det = a + d, a * d - b * c
    disc = cmath.sqrt(tr * tr / 4.0 - det)
    l1, l2 = tr / 2.0 + disc, tr / 2.0 - disc
    v = complex(x0), complex(y0)
    if abs(l1 - l2) > 1e-12 * max(1.0, abs(l1), abs(l2)):
        # expm(At) = (e^{l1 t}(A - l2 I) - e^{l2 t}(A - l1 I)) / (l1 - l2)
        e1, e2 = cmath.exp(l1 * t), cmath.exp(l2 * t)
        f1, f2 = e1 / (l1 - l2), e2 / (l2 - l1)
        m11 = f1 * (a - l2) + f2 * (a - l1)
        m12 = (f1 + f2) * b
        m21 = (f1 + f2) * c
        m22 = f1 * (d - l2) + f2 * (d - l1)
    else:
        # Repeated eigenvalue: expm(At) = e^{lt} (I + (A - lI) t).
        e = cmath.exp(l1 * t)
        m11 = e * (1.0 + (a - l1) * t)
        m12 = e * b * t
        m21 = e * c * t
        m22 = e * (1.0 + (d - l1) * t)
    x = (m11 * v[0] + m12 * v[1]).real
    y = (m21 * v[0] + m22 * v[1]).real
    return (max(0.0, x), max(0.0, y))


def effectiveness_from_exchange_probability(mean_pi: float) -> float:
    """Map a Proposition-2 mean exchange feasibility onto ``eta``.

    Qiu & Srikant show ``eta`` is the probability that a downloader
    holds something another downloader needs; Section IV-A2's
    ``pi(j, i)`` refines it per mechanism. The identity mapping is
    deliberate — this helper just validates and documents the bridge
    between the two layers.
    """
    if not 0.0 <= mean_pi <= 1.0:
        raise ModelParameterError("mean_pi must lie in [0, 1]")
    return mean_pi
