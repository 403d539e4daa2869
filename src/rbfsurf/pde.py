"""Reaction-diffusion systems integrated on the discretized surface.

Two models are built in: an activator-inhibitor system producing Turing
patterns (spots/stripes), and the two-variable Mitchell-Schaeffer membrane
model for cardiac excitation.  Both advance the semidiscrete system

    d/dt fields = reaction(fields, t) + diag(D) * (operator @ fields)

with an embedded Dormand-Prince 5(4) pair under proportional-integral step control.  Each
right-hand side applies the operator only to the fields that diffuse (nonzero D): both Turing
fields, the membrane voltage alone.  :func:`integrate` states what a model provides, takes the
assembled operator and checks a run's span; each built-in ``reaction`` writes its (2, N) rates
into the integrator's row ``out`` and returns it (allocating one without ``out``).  The Turing
reaction is du = alpha u + v - g, dv = gamma u + beta v + g with g = u v (alpha tau1 v + tau2):
g enters with opposite signs, so du + dv is linear.  The membrane model computes its stimulus
profile once, at construction, and its ``reaction`` adds it to dv while t <= t_stim.  Its gate
switches from recovering to closing through the smoothed step (1 + tanh((v - v_crit)/w))/2
of width w = ``GATE_WIDTH``, not the model's Heaviside step (Mitchell & Schaeffer, Bull. Math.
Biol. 65 (2003)).  With the step, the rates jump wherever a node's voltage crosses v_crit, and
the error estimate rejects steps at each jump (Hairer, Norsett & Wanner, Solving ODEs I,
II.6); the smoothed switch lets the 1000-node membrane wave take about 40% fewer right-hand
sides and stay as close to a tight reference run of the step model.

A step works in one (8, 2, N) array: the state, then the seven stage
derivatives.  Each stage input y + h sum_j a_sj k_j is one BLAS
matrix-vector product over its leading rows, and so is the error estimate,
each into a buffer of its own; a right-hand side is written into its row.
The last stage's input is the new state, copied once accepted, and its
derivative the next step's first (FSAL).
BLAS picks its summation order and fused multiply-adds per CPU, so
trajectories can differ in the last bits between machines.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import astuple, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DivergenceError, StiffnessError
from .lbo import SparseOperator
from .nodesets import NodeSet, check_node_ids

# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

TURING_PRESETS = {
    "spots": dict(d_u=2.32e-3, d_v=4.5e-3, alpha=0.899, beta=-0.91,
                  gamma=-0.899, tau1=0.02, tau2=0.2),
    "stripes": dict(d_u=1.08e-3, d_v=2.1e-3, alpha=0.899, beta=-0.91,
                    gamma=-0.899, tau1=3.5, tau2=0.0),
}


@dataclass(frozen=True)
class TuringParams:
    """Activator-inhibitor coefficients; ``TURING_PRESETS`` names spots and stripes."""

    d_u: float
    d_v: float
    alpha: float
    beta: float
    gamma: float
    tau1: float
    tau2: float

    def __post_init__(self):
        if not (all(map(math.isfinite, astuple(self))) and self.d_u > 0 and self.d_v > 0):
            raise ValueError(f"coefficients must be finite and diffusivities positive, got {self}")

    @classmethod
    def preset(cls, name):
        try:
            return cls(**TURING_PRESETS[name])
        except KeyError:
            raise ValueError(
                f"unknown preset {name!r}; expected one of {sorted(TURING_PRESETS)}") from None


# Width w of the membrane gate's switch s(v) = (1 + tanh((v - v_crit) / w)) / 2, in the units
# of v.  The model's Heaviside switch makes dh jump by at least 1/150 per ms where a node's
# voltage crosses v_crit, and each jump costs the integrator rejected steps.  At this width
# the 600 ms wave on the 1000-node Fibonacci sphere takes about 4,400 right-hand sides where
# the step takes about 7,400, and lies closer to a Heaviside run at rtol 1e-8 than the
# Heaviside run at the default tolerances does, in v and in h.  A wider switch moves the
# gate away from the step model:
# the largest gate distance from that reference is 4.5e-4 here, 6.1e-4 at w = 2e-3 and 9.0e-4
# at 3e-3.  Beyond 19 w from v_crit tanh rounds to +-1, and the rates equal the step's.
GATE_WIDTH = 1.5e-3


@dataclass(frozen=True)
class SchaefferParams:
    """Membrane model constants (times in ms, diffusion in cm^2/ms)."""

    sigma: float = 1e-3
    tau_open: float = 130.0
    tau_close: float = 150.0
    tau_in: float = 0.2
    tau_out: float = 10.0
    v_crit: float = 0.13

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        taus = (self.tau_open, self.tau_close, self.tau_in, self.tau_out)
        if not all(0 < tau < np.inf for tau in taus):  # a NaN fails both comparisons
            raise ValueError(f"all time constants must be finite and positive, got {taus}")
        if not 0 < self.v_crit < 1:
            raise ValueError(f"v_crit must lie in (0, 1), got {self.v_crit}")


@dataclass(frozen=True, eq=False)
class StimulusSpec:
    """Gaussian current bump applied for the first ``t_stim`` milliseconds."""

    t_stim: float
    center: np.ndarray
    delta: float

    def __post_init__(self):
        for name, value in (("duration", self.t_stim), ("width", self.delta)):
            if not value > 0:  # a NaN fails it too
                raise ValueError(f"stimulus {name} must be positive")
            if value == np.inf:
                raise ValueError(f"stimulus {name} must be finite, got {value}")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.shape != (3,) or not np.isfinite(self.center).all():
            raise ValueError(f"stimulus center must be a finite 3-vector, got {self.center}")


@dataclass(eq=False)
class RdState:
    """Two nodal fields (2, N) at one time: (u, v) or (v, h)."""

    fields: np.ndarray
    time: float

    def __post_init__(self):
        self.fields = np.asarray(self.fields, dtype=float)
        if self.fields.ndim != 2 or self.fields.shape[0] != 2:
            raise ValueError(f"state must have shape (2, N), got {self.fields.shape}")


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class TuringModel:
    """Activator-inhibitor system on (u, v); both fields diffuse."""

    def __init__(self, params: TuringParams):
        self.params = params
        self.diffusivities = np.array([params.d_u, params.d_v])

    def reaction(self, t, fields, out=None):
        """Rates (du, dv) written into ``out`` (2, N), a fresh array if None.

        The cubic-coupling BVAM form (Barrio, Varea, Aragon & Maini, Bull. Math.
        Biol. 61 (1999)) that the preset parameter tables belong to, expanded around
        its nonlinear term g, which enters the two rates with opposite signs.  It is
        evaluated in place in 11 ufunc calls and divides no coefficient by another:

            g  = u v (alpha tau1 v + tau2)
            du = alpha u + v - g
            dv = gamma u + beta v + g
        """
        p = self.params
        u, v = fields
        out = np.empty(fields.shape) if out is None else out
        du, dv = out
        np.multiply(p.gamma, u, out=dv)
        np.multiply(p.beta, v, out=du)
        dv += du
        np.multiply(p.alpha * p.tau1, v, out=du)
        du += p.tau2
        du *= u
        du *= v  # du = g
        dv += du
        np.subtract(v, du, out=du)
        du += p.alpha * u
        return out


class SchaefferModel:
    """Membrane model on (v, h) at the given node positions; only the voltage diffuses.

    The stimulus adds the Gaussian bump ``exp(-|x - center|^2 / delta^2)`` to
    dv while ``t <= t_stim`` (Heaviside with H(0) = 1); its profile over
    ``points`` is computed once.  The gate switches at ``v_crit`` through a smoothed
    step of width ``GATE_WIDTH``, not the Heaviside step of Mitchell & Schaeffer.
    """

    def __init__(self, params: SchaefferParams, points, stimulus: StimulusSpec):
        self.params = params
        self.stimulus = stimulus
        self.diffusivities = np.array([params.sigma, 0.0])
        points = np.asarray(points, dtype=float)
        self._profile = np.exp(-np.sum((points - stimulus.center) ** 2, axis=-1)
                               / stimulus.delta**2)

    def reaction(self, t, fields, out=None):
        """Rates (dv, dh) written into ``out`` (2, N), a fresh array if None.

        The inward current ``(1-v)h v^2/tau_in`` and outward current
        ``-v/tau_out`` drive the voltage.  The gate recovers at ``(1-h)/tau_open`` and
        closes at ``h/tau_close``, weighted by the smoothed switch s of width ``GATE_WIDTH``
        in place of the model's step at ``v_crit``:

            T  = tanh((v - v_crit) / GATE_WIDTH) = 2 s - 1
            dh = (1 - s) (1 - h)/tau_open - s h/tau_close
               = (1 - h)/(2 tau_open) (1 - T) - h/(2 tau_close) (1 + T)

        with 1 + T computed as 2 - (1 - T).  At ``v == v_crit`` the two rates are averaged.
        Since |T| <= 1, dh >= 0 at h = 0 and dh <= 0 at h = 1 for every v, so the model keeps
        h in [0, 1]; an integrator step that crosses v_crit can still overshoot 1 slightly.
        The one temporary is the recovering rate.
        """
        p = self.params
        v, h = fields
        out = np.empty(fields.shape) if out is None else out
        dv, dh = out
        np.subtract(1.0, v, out=dv)
        dv *= h
        dv *= v
        dv *= v
        dv /= p.tau_in
        dv -= np.divide(v, p.tau_out, out=dh)  # x - y is x + (-y), bit for bit
        # adding 0.0 after the window turns -0.0 rates into +0.0
        dv += self._profile if t <= self.stimulus.t_stim else 0.0
        np.subtract(v, p.v_crit, out=dh)
        dh /= GATE_WIDTH
        np.tanh(dh, out=dh)
        np.subtract(1.0, dh, out=dh)
        recovering = np.subtract(1.0, h)
        recovering /= 2.0 * p.tau_open
        recovering *= dh
        np.subtract(2.0, dh, out=dh)
        dh *= h
        dh /= 2.0 * p.tau_close
        np.subtract(recovering, dh, out=dh)
        return out


# ---------------------------------------------------------------------------
# adaptive Dormand-Prince 5(4) integrator
# ---------------------------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
# Row s - 1 holds a_sj, the weights of k_0..k_{s-1} in the input of stage s
# (s = 1..6); row 5 is also the fifth-order weights (FSAL).  Row 6 holds the
# error weights e, fifth- minus fourth-order, of k_0..k_6.
_DP_TABLEAU = np.array([
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
])

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_MIN_STEP_FRACTION = 1e-12
_MAX_STEPS = 10_000_000

logger = logging.getLogger(__name__)


def _rms(x):
    x = x.ravel()
    return math.sqrt(x @ x / x.size)


def _initial_step(rhs, t0, y0, f0, t_end, rtol, atol):
    sc = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / sc)
    d1 = _rms(f0 / sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0)
    f1 = rhs(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end - t0)


def _check_span(t_end, snapshot_every, start=0.0):
    """Reject a snapshot spacing that is not positive, a ``start`` or ``t_end`` that is
    not finite, then a ``t_end`` not after ``start``: the span rule of every run."""
    if snapshot_every is not None and not snapshot_every > 0:
        raise ValueError("snapshot_every must be positive")
    for name, value in (("start time", start), ("t_end", t_end)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not t_end > start:
        raise ValueError(f"t_end must be after the start time {start}, got {t_end}")


def integrate(model, op: SparseOperator, state0: RdState,
              t_end, rtol=1e-5, atol=1e-8, snapshot_every=None, step_callback=None):
    """Advance the reaction-diffusion state to ``t_end`` on the operator ``op``.

    ``model`` has ``diffusivities``, (2,), finite and >= 0 with zero for a field that does not
    diffuse, and ``reaction(t, fields, out=None)``, which writes the (2, N) reaction term at t
    into ``out``, never overlapping ``fields``, and returns it; only diffusing fields meet ``op``.
    Steps are accepted when the RMS of the embedded error estimate over ``atol + rtol *
    max(|y|, |y_new|)`` is at most 1, under a PI step-size controller; ``run_turing`` and
    ``run_schaeffer`` use the default tolerances.  Returns the initial state, the snapshots at
    ``state0.time + k * snapshot_every`` (k = 1, 2, ...) before ``t_end``, and the final state;
    a step or snapshot time within 1e-12 * max(1, |stop|) of a stop, ``t_end`` included, is set
    onto it.

    ``step_callback(t, fields, derivative)`` fires after every accepted step with arrays the
    integrator never writes to again; returning True stops the integration early.  Each call
    logs one DEBUG record on ``rbfsurf.pde``: accepted and rejected steps, RHS evaluations, the
    range of accepted h and the stop reason (``t_end`` or ``callback``), also as the record's
    ``stats`` dict.

    Raises
    ------
    ValueError
        Before the first step, in this order, unless ``rtol`` and ``atol`` are finite and
        positive, the state has ``op.n`` nodes, the span passes the rule of every run (a positive
        ``snapshot_every`` if given, then a finite ``state0.time`` and a finite ``t_end`` after
        it), and both diffusivities are finite and >= 0.
    StiffnessError
        If the step size underflows below 1e-12 times the span, or after 10^7 steps.
    DivergenceError
        If the state stops being finite.
    """
    if not (rtol > 0 and atol > 0):
        raise ValueError("rtol and atol must be positive")
    if np.inf in (rtol, atol):
        raise ValueError(f"rtol and atol must be finite, got {rtol} and {atol}")
    if state0.fields.shape[1] != op.n:
        raise ValueError(f"state has {state0.fields.shape[1]} nodes but operator has {op.n}")
    t = start = float(state0.time)
    _check_span(t_end, snapshot_every, start)

    diff = np.asarray(model.diffusivities, dtype=float)
    if diff.shape != (2,) or not np.all(np.isfinite(diff) & (diff >= 0)):
        raise ValueError(f"diffusivities must be two finite values >= 0, got {diff}")
    nonzero = np.flatnonzero(diff)
    # of two fields, those that diffuse form one range; a slice of it is a view
    diffusing = slice(nonzero[0], nonzero[-1] + 1) if len(nonzero) else slice(0)
    d_diffusing = diff[diffusing, None]

    t_end = float(t_end)
    y = state0.fields.astype(float, copy=True)
    snapshots = [RdState(y.copy(), t)]
    stats = {"accepted": 0, "rejected": 0, "stop": "t_end"}

    work = np.empty((8,) + y.shape)
    rows = work.reshape(8, -1)
    # the inputs of stages 1-6, the last one the new state, the weighted error, its scale
    inputs = np.empty((8,) + y.shape)

    def rhs(t, y, out=work[2]):  # row 2 is free outside a step: the initial-step probe
        model.reaction(t, y, out)
        if d_diffusing.size:
            lap = op.apply(y[diffusing])
            lap *= d_diffusing
            out[diffusing] += lap
        return out

    def landed(t, stop):  # the one stop tolerance
        return t >= stop - 1e-12 * max(1.0, abs(stop))

    def next_stop():  # start + k * snapshot_every once k states are kept, or t_end
        stop = t_end if snapshot_every is None else start + len(snapshots) * snapshot_every
        return t_end if landed(stop, t_end) else stop

    work[0] = y
    f = rhs(t, y, work[1])
    if not np.all(np.isfinite(f)):
        raise DivergenceError(f"right-hand side not finite at t = {t:g}", time=t)
    h = _initial_step(rhs, t, y, f, t_end, rtol, atol)
    h_min = _MIN_STEP_FRACTION * (t_end - start)
    err_prev = 1.0
    just_rejected = False
    t_stop = next_stop()
    # coef[s - 1] = [1, h a_s0, ..., h a_s,s-1] against rows[:s + 1];
    # coef[6, 1:] = h e against rows[1:]
    coef = np.zeros((7, 8))
    coef[:6, 0] = 1.0
    stages = [(coef[s - 1, :s + 1], rows[:s + 1], inputs[s - 1], work[s + 1], _DP_C[s])
              for s in range(1, 7)]
    y_new, weighted_err, scale = inputs[5:]
    h_lo, h_hi = np.inf, 0.0

    while t < t_end:  # a step that ends near a stop, t_end included, is set onto it
        if stats["accepted"] + stats["rejected"] >= _MAX_STEPS:
            raise StiffnessError(f"step budget exhausted at t = {t:g}", time=t)
        h = min(h, t_stop - t)
        if h < h_min:
            raise StiffnessError(f"step size underflow at t = {t:g}", time=t)

        np.multiply(h, _DP_TABLEAU, out=coef[:, 1:])
        for c, previous, y_stage, out, frac in stages:
            np.matmul(c, previous, out=y_stage.reshape(-1))
            rhs(t + frac * h, y_stage, out)
        np.maximum(np.abs(y, out=scale), np.abs(y_new, out=weighted_err), out=scale)
        scale *= rtol
        scale += atol
        np.matmul(coef[6, 1:], rows[1:], out=weighted_err.reshape(-1))
        err = _rms(np.divide(weighted_err, scale, out=weighted_err))

        if np.isfinite(err) and err <= 1.0:
            t_new = t + h
            if not np.all(np.isfinite(y_new)):
                raise DivergenceError(f"state not finite at t = {t_new:g}", time=t_new)
            # FSAL: the last stage's input is the new state, its rhs the next k_0
            work[0] = y = y_new.copy()
            work[1] = f = work[7].copy()
            t = t_new
            stats["accepted"] += 1
            h_lo, h_hi = min(h_lo, h), max(h_hi, h)
            stop_requested = bool(step_callback and step_callback(t, y, f))
            if landed(t, t_stop):
                t = t_stop
                if t < t_end:
                    snapshots.append(RdState(y.copy(), t))
                    t_stop = next_stop()
            if stop_requested:
                stats["stop"] = "callback"
                break
            if err == 0.0:
                fac = _FAC_MAX
            else:
                fac = _SAFETY * err ** -_PI_ALPHA * err_prev**_PI_BETA
            fac = min(1.0 if just_rejected else _FAC_MAX, max(_FAC_MIN, fac))
            h *= fac
            err_prev = max(err, 1e-4)
            just_rejected = False
        else:
            stats["rejected"] += 1
            if np.isfinite(err):
                h *= min(1.0, max(_FAC_MIN, _SAFETY * err**-0.2))
            else:
                h *= _FAC_MIN
            just_rejected = True

    # the loop ends on an accepted step, so h_lo and h_hi are steps taken
    stats.update(rhs_evals=2 + 6 * (stats["accepted"] + stats["rejected"]), h_min=h_lo, h_max=h_hi)
    logger.debug("integrate: %(accepted)d accepted and %(rejected)d rejected steps, "
                 "%(rhs_evals)d RHS evaluations, h from %(h_min)s to %(h_max)s, "
                 "stopped at %(stop)s", stats, extra={"stats": stats})
    snapshots.append(RdState(y.copy(), t))
    return snapshots


# ---------------------------------------------------------------------------
# simulation drivers
# ---------------------------------------------------------------------------

@dataclass
class TuringRun:
    """Trajectory of a Turing simulation, steady-state diagnostics, accepted step count."""

    states: list
    steady_time: Optional[float]
    final_rate_inf: float
    params: TuringParams
    steps_accepted: int

    @property
    def final(self):
        return self.states[-1]


@dataclass(eq=False)
class SchaefferRun:
    """Trajectory of a membrane simulation plus dense probe series."""

    states: list
    probe_t: np.ndarray
    probe_v: np.ndarray
    probe_h: np.ndarray
    params: SchaefferParams
    stimulus: StimulusSpec

    @property
    def final(self):
        return self.states[-1]

    def activation_time(self, column, threshold):
        """First probe time at which v exceeds the threshold, or None."""
        above = np.nonzero(self.probe_v[:, column] > threshold)[0]
        return float(self.probe_t[above[0]]) if len(above) else None


def run_turing(nodes: NodeSet, frames, preset: str, seed=0, t_end=2000.0, *,
               op: SparseOperator, snapshot_every=None, steady_tol=1e-4, steady_window=10.0):
    """Integrate the Turing system with ``TuringParams.preset(preset)`` on the assembled
    operator ``op`` from a seeded perturbation of the activator.

    The initial activator is i.i.d. uniform(-0.5, 0.5) with the given seed, the inhibitor
    starts at zero.  With :func:`integrate`'s tolerances the run starts at t = 0, snapshots
    at multiples of ``snapshot_every`` and ends at a finite ``t_end > 0``, or once the sup
    norm of du/dt (its last value is ``final_rate_inf``) has stayed below ``steady_tol`` for
    ``steady_window``, both finite and positive.  These two and the preset are checked, then
    :func:`integrate` checks the span, before any step: of a bad option and a bad span, the option
    is named.  ``frames`` is unread: the benchmark passes it, so it goes with ROADMAP item 1.
    """
    for name, value in (("steady_tol", steady_tol), ("steady_window", steady_window)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    params = TuringParams.preset(preset)

    rng = np.random.default_rng(seed)
    u0 = rng.uniform(-0.5, 0.5, size=len(nodes))
    state0 = RdState(np.stack([u0, np.zeros(len(nodes))]), 0.0)
    model = TuringModel(params)

    tracker = {"since": None, "steady_at": None, "steps": 0, "rate": None}

    def watch(t, fields, deriv):
        tracker["steps"] += 1
        tracker["rate"] = rate = float(np.abs(deriv[0]).max())
        if rate < steady_tol:
            if tracker["since"] is None:
                tracker["since"] = t
            elif t - tracker["since"] >= steady_window:
                tracker["steady_at"] = t
                return True
        else:
            tracker["since"] = None
        return False

    states = integrate(model, op, state0, t_end, snapshot_every=snapshot_every,
                       step_callback=watch)
    return TuringRun(states, tracker["steady_at"], tracker["rate"], params, tracker["steps"])


def run_schaeffer(nodes: NodeSet, frames, t_end=600.0, probe=0, *, op: SparseOperator,
                  stim_node=0, t_stim=5.0, delta=None, snapshot_every=None):
    """Integrate the membrane model, default :class:`SchaefferParams`, on the assembled
    operator ``op`` from rest (v = 0, h = 1) at t = 0 under a stimulus to a finite ``t_end > 0``.

    The stimulus lasts ``t_stim`` ms, is centered at ``stim_node`` and has width ``delta``, by
    default 0.15 times twice the largest distance from the centroid.  ``probe`` is a node id
    or list of ids in [0, N) whose (t, v, h) history is recorded at every accepted step.  The
    run takes :func:`integrate`'s default tolerances and snapshot times.  The node ids and the
    stimulus are checked, then :func:`integrate` checks the span, before any step: of a bad
    stimulus and a bad span, the stimulus is named.  ``frames`` is unread: the benchmark passes
    it, so it goes with ROADMAP item 1.
    """
    probes = [probe] if np.isscalar(probe) else list(probe)
    check_node_ids(nodes, probes + [stim_node])
    params = SchaefferParams()
    if delta is None:
        radii = np.linalg.norm(nodes.points - nodes.points.mean(axis=0), axis=1)
        delta = 0.15 * (2.0 * float(radii.max()))
    stim = StimulusSpec(t_stim=t_stim, center=nodes.points[stim_node], delta=delta)

    model = SchaefferModel(params, nodes.points, stim)
    n = len(nodes)
    state0 = RdState(np.stack([np.zeros(n), np.ones(n)]), 0.0)

    times, v_hist, h_hist = [0.0], [state0.fields[0][probes].copy()], [state0.fields[1][probes].copy()]

    def record(t, fields, deriv):
        times.append(t)
        v_hist.append(fields[0][probes].copy())
        h_hist.append(fields[1][probes].copy())
        return False

    states = integrate(model, op, state0, t_end, snapshot_every=snapshot_every,
                       step_callback=record)
    return SchaefferRun(states, np.array(times), np.array(v_hist),
                        np.array(h_hist), params, stim)


# ---------------------------------------------------------------------------
# trajectory output
# ---------------------------------------------------------------------------

def save_snapshots(nodes: NodeSet, states: Sequence[RdState], outdir,
                   field_names=("u", "v"), vtk=False):
    """Write one CSV per snapshot plus a times.csv index (and optional VTK)."""
    os.makedirs(outdir, exist_ok=True)
    index_path = os.path.join(outdir, "times.csv")
    with open(index_path, "w", encoding="utf-8") as idx:
        idx.write("snapshot,time,file\n")
        for num, state in enumerate(states):
            name = f"snapshot_{num:04d}.csv"
            data = np.column_stack([nodes.points, state.fields.T])
            header = "x,y,z," + ",".join(field_names)
            np.savetxt(os.path.join(outdir, name), data, fmt="%.17g",
                       delimiter=",", header=header, comments="")
            idx.write(f"{num},{state.time:.17g},{name}\n")
            if vtk:
                vtk_name = f"snapshot_{num:04d}.vtk"
                scalars = dict(zip(field_names, state.fields))
                write_vtk_pointcloud(os.path.join(outdir, vtk_name), nodes.points, scalars)
    return index_path


def write_vtk_pointcloud(path, points, scalars):
    """Legacy ASCII VTK polydata with point scalars, for external viewers."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, points, fmt="%.17g", comments="",
                   header=f"# vtk DataFile Version 3.0\nrbfsurf point cloud\nASCII\n"
                          f"DATASET POLYDATA\nPOINTS {n} double")
        np.savetxt(fh, np.column_stack([np.ones(n, dtype=int), np.arange(n)]), fmt="%d",
                   header=f"VERTICES {n} {2 * n}", footer=f"POINT_DATA {n}", comments="")
        for name, values in scalars.items():
            np.savetxt(fh, np.asarray(values, dtype=float), fmt="%.17g", comments="",
                       header=f"SCALARS {name} double 1\nLOOKUP_TABLE default")


def save_probe_csv(path, run: SchaefferRun, column=0):
    """Probe history as CSV with columns t,v,h."""
    data = np.column_stack([run.probe_t, run.probe_v[:, column], run.probe_h[:, column]])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header="t,v,h", comments="")
