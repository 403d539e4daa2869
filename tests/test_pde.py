"""Reaction terms, the adaptive integrator, and the simulation drivers.

The integrator is validated against closed-form solutions (exponential
decay, a harmonic oscillator) and against the matrix exponential of the
same semidiscrete diffusion system, which isolates time-stepping error
from spatial discretization error.
"""

import logging
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from conftest import repulsion_nodes, snapshot_distance, tight_reference
from rbfsurf import pde
from rbfsurf.errors import DivergenceError, StiffnessError
from rbfsurf.kernels import Kernel, KernelFamily
from rbfsurf.lbo import SparseOperator, assemble_operator
from rbfsurf.nodesets import NodeSet, gen_sphere_nodes, project_radial, schwarz_p, unit_sphere
from rbfsurf.pde import (
    TURING_PRESETS,
    RdState,
    SchaefferModel,
    SchaefferParams,
    StimulusSpec,
    TuringModel,
    TuringParams,
    integrate,
    run_schaeffer,
    run_turing,
    save_probe_csv,
    save_snapshots,
    write_vtk_pointcloud,
)
from rbfsurf.surface_geom import analytic_frames


@pytest.fixture(scope="module")
def sphere200():
    nodes = gen_sphere_nodes(200)
    frames = analytic_frames(unit_sphere(), nodes.points)
    op = assemble_operator(nodes, frames, 15, Kernel(KernelFamily.GAUSSIAN, 2.0))
    return nodes, frames, op


class TestParams:
    def test_spots_preset(self):
        p = TuringParams.preset("spots")
        assert (p.d_u, p.d_v) == (2.32e-3, 4.5e-3)
        assert (p.alpha, p.beta, p.gamma) == (0.899, -0.91, -0.899)
        assert (p.tau1, p.tau2) == (0.02, 0.2)

    def test_stripes_preset(self):
        p = TuringParams.preset("stripes")
        assert (p.d_u, p.d_v) == (1.08e-3, 2.1e-3)
        assert (p.tau1, p.tau2) == (3.5, 0.0)

    def test_preset_lookup(self):
        assert TuringParams.preset("spots") == TuringParams(
            d_u=2.32e-3, d_v=4.5e-3, alpha=0.899, beta=-0.91, gamma=-0.899, tau1=0.02, tau2=0.2)
        with pytest.raises(ValueError):
            TuringParams.preset("plaid")

    def test_diffusion_must_be_positive(self):
        with pytest.raises(ValueError):
            TuringParams(d_u=0.0, d_v=1e-3, alpha=1, beta=-1, gamma=0, tau1=0, tau2=0)

    @pytest.mark.parametrize("name", ["d_u", "d_v", "alpha", "beta", "gamma", "tau1", "tau2"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_coefficients_must_be_finite(self, name, value):
        coefficients = dict(TURING_PRESETS["stripes"], **{name: value})
        with pytest.raises(ValueError, match="must be finite and diffusivities positive"):
            TuringParams(**coefficients)

    def test_membrane_defaults(self):
        p = SchaefferParams()
        assert p.sigma == 1e-3
        assert (p.tau_open, p.tau_close) == (130.0, 150.0)
        assert (p.tau_in, p.tau_out) == (0.2, 10.0)
        assert p.v_crit == 0.13

    def test_membrane_validation(self):
        with pytest.raises(ValueError):
            SchaefferParams(tau_in=0.0)
        with pytest.raises(ValueError):
            SchaefferParams(v_crit=1.5)

    @pytest.mark.parametrize("name", ["tau_open", "tau_close", "tau_in", "tau_out"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_membrane_time_constants(self, name, value):
        # a NaN compares False with everything, so a "tau <= 0" test lets it through
        with pytest.raises(ValueError, match="time constants must be finite and positive"):
            SchaefferParams(**{name: value})

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
    def test_membrane_sigma_validation(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            SchaefferParams(sigma=sigma)
        assert SchaefferParams(sigma=0.0).sigma == 0.0

    def test_stimulus_validation(self):
        with pytest.raises(ValueError):
            StimulusSpec(t_stim=0.0, center=[0, 0, 1], delta=0.1)
        with pytest.raises(ValueError):
            StimulusSpec(t_stim=5.0, center=[0, 0, 1], delta=0.0)
        spec = StimulusSpec(t_stim=5.0, center=[0, 0, 1], delta=0.1)
        assert isinstance(spec.center, np.ndarray)

    @pytest.mark.parametrize("kwargs, message", [
        ({"t_stim": np.inf}, "stimulus duration must be finite, got inf"),
        ({"delta": np.inf}, "stimulus width must be finite, got inf"),
        ({"center": [0.0, np.nan, 1.0]}, r"stimulus center must be a finite 3-vector"),
        ({"center": [0.0, 1.0]}, r"stimulus center must be a finite 3-vector"),
    ], ids=["endless", "unbounded-width", "nan-center", "2-vector-center"])
    def test_stimulus_must_be_finite(self, kwargs, message):
        spec = dict(t_stim=5.0, center=[0.0, 0.0, 1.0], delta=0.1) | kwargs
        with pytest.raises(ValueError, match=message):
            StimulusSpec(**spec)

    def test_state_shape(self):
        with pytest.raises(ValueError):
            RdState(np.zeros((3, 5)), 0.0)
        with pytest.raises(ValueError):
            RdState(np.zeros(5), 0.0)


def fields(a, b):
    """A (2, n) field array from two rows; scalars become (2, 1)."""
    return np.array([a, b], dtype=float).reshape(2, -1)


class TestTuringReaction:
    def test_origin_is_equilibrium(self):
        du, dv = TuringModel(TuringParams.preset("spots")).reaction(0.0, fields(0.0, 0.0))
        assert du == 0.0 and dv == 0.0

    def test_jacobian_at_origin(self):
        # linearization must be [[alpha, 1], [gamma, beta]]; checked by
        # central differences so the nonlinear terms cannot hide in it
        p = TuringParams.preset("spots")
        e = 1e-7

        def f(u, v):
            return np.array(TuringModel(p).reaction(0.0, fields(u, v)))

        col_u = (f(e, 0) - f(-e, 0)) / (2 * e)
        col_v = (f(0, e) - f(0, -e)) / (2 * e)
        jac = np.column_stack([col_u, col_v])
        assert np.allclose(jac, [[p.alpha, 1.0], [p.gamma, p.beta]], atol=1e-6)

    def test_linear_when_cubic_off(self):
        p = TuringParams(d_u=1e-3, d_v=2e-3, alpha=0.7, beta=-0.8, gamma=-0.6,
                         tau1=0.0, tau2=0.0)
        du, dv = TuringModel(p).reaction(0.0, fields(0.3, -0.2))
        assert du == pytest.approx(0.7 * 0.3 + (-0.2))
        assert dv == pytest.approx(-0.8 * -0.2 + -0.6 * 0.3)

    def test_beta_zero_guard(self):
        # no rate divides by beta, so beta = 0 with the cubic coupling on is a valid model
        p = TuringParams(d_u=1e-3, d_v=2e-3, alpha=0.7, beta=0.0, gamma=-0.6,
                         tau1=0.5, tau2=0.1)
        u, v = 0.3, -0.2
        du, dv = TuringModel(p).reaction(0.0, fields(u, v))
        g = u * v * (0.7 * 0.5 * v + 0.1)
        assert du == pytest.approx(0.7 * u + v - g)
        assert dv == pytest.approx(-0.6 * u + g)

    def test_vectorized(self):
        p = TuringParams.preset("spots")
        u = np.linspace(-0.4, 0.4, 7)
        v = np.linspace(0.3, -0.3, 7)
        du, dv = TuringModel(p).reaction(0.0, fields(u, v))
        assert du.shape == dv.shape == (7,)
        du0, dv0 = TuringModel(p).reaction(0.0, fields(u[2], v[2]))
        assert du[2] == pytest.approx(du0)
        assert dv[2] == pytest.approx(dv0)


LINEAR = TuringParams(d_u=1e-3, d_v=2e-3, alpha=0.7, beta=-0.8, gamma=-0.6, tau1=0.0, tau2=0.0)
BVAM_CASES = pytest.mark.parametrize(
    "p", [TuringParams.preset("stripes"), TuringParams.preset("spots"), LINEAR], ids=["stripes", "spots", "linear"])


class TestTuringReactionOracle:
    """The BVAM rates against 50-digit evaluations of the same double inputs."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(21)
        return rng.uniform(-2.0, 2.0, 300), rng.uniform(-2.0, 2.0, 300)

    @BVAM_CASES
    def test_matches_mpmath(self, p):
        u, v = self.inputs()
        du, dv = TuringModel(p).reaction(0.0, fields(u, v))
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            a, b, c, t1, t2 = map(mpmath.mpf, (p.alpha, p.beta, p.gamma, p.tau1, p.tau2))
            for k, (x, y) in enumerate(zip(map(mpmath.mpf, u), map(mpmath.mpf, v))):
                g = x * y * (a * t1 * y + t2)
                g_scale = abs(x * y) * (abs(a * t1 * y) + abs(t2))
                # a few roundings, each relative to the size of the terms it combines
                du_scale = abs(a * x) + abs(y) + g_scale
                dv_scale = abs(c * x) + abs(b * y) + g_scale
                assert abs(mpmath.mpf(du[k]) - (a * x + y - g)) <= 4 * eps * du_scale
                assert abs(mpmath.mpf(dv[k]) - (c * x + b * y + g)) <= 4 * eps * dv_scale

    @BVAM_CASES
    def test_nonlinear_term_cancels_in_sum(self, p):
        u, v = self.inputs()
        du, dv = TuringModel(p).reaction(0.0, fields(u, v))
        linear = (p.alpha + p.gamma) * u + (1.0 + p.beta) * v
        g_scale = np.abs(u * v) * (np.abs(p.alpha * p.tau1 * v) + abs(p.tau2))
        scale = (np.abs(p.alpha * u) + np.abs(v) + np.abs(p.gamma * u) + np.abs(p.beta * v)
                 + 2 * g_scale)
        assert np.all(np.abs(du + dv - linear) <= 8 * np.finfo(float).eps * scale)


STIMULUS = StimulusSpec(t_stim=5.0, center=[0.0, 0.0, 1.0], delta=0.2)


def membrane(points=((0.0, 0.0, 1.0),)):
    """SchaefferModel with default parameters under STIMULUS at the given node positions."""
    return SchaefferModel(SchaefferParams(), np.array(points, dtype=float), STIMULUS)


class TestSchaefferReaction:
    # after STIMULUS.t_stim the stimulus is off
    OFF = 6.0

    def test_rest_is_equilibrium(self):
        dv, dh = membrane().reaction(self.OFF, fields(0.0, 1.0))
        assert dv == 0.0 and dh == 0.0

    def test_stimulus_enters_voltage_only(self):
        # the stimulus profile is 0.3 at this distance from the center
        x = STIMULUS.delta * np.sqrt(-np.log(0.3))
        dv, dh = membrane([(x, 0.0, 1.0)]).reaction(0.0, fields(0.0, 1.0))
        assert dv == pytest.approx(0.3)
        assert dh == 0.0

    def test_current_balance(self):
        # v=0.5, h=0.8: inward 0.8*0.5*0.25/0.2 = 0.5, outward -0.05
        dv, dh = membrane().reaction(self.OFF, fields(0.5, 0.8))
        assert dv == pytest.approx(0.45)
        assert dh == pytest.approx(-0.8 / 150.0)

    def test_gate_tie_averages_the_rates(self):
        # at v_crit the switch is 1/2; halving is exact, so the rates are the formula's bits
        p = SchaefferParams()
        _, dh = membrane().reaction(self.OFF, fields(p.v_crit, 0.5))
        assert dh == (0.5 / p.tau_open - 0.5 / p.tau_close) / 2

    def test_gate_keeps_h_in_unit_interval(self):
        # dh >= 0 at h = 0 and dh <= 0 at h = 1 for every finite v, through the switch too
        p, w = SchaefferParams(), pde.GATE_WIDTH
        tiny = np.finfo(float).smallest_subnormal
        v = np.r_[p.v_crit + w * np.linspace(-50.0, 50.0, 4001),
                  np.nextafter(p.v_crit, [-np.inf, np.inf]),
                  [-np.finfo(float).max, -1e10, -1.0, -tiny, -0.0, 0.0, tiny, 1.0, 1e10,
                   np.finfo(float).max]]
        model = membrane([STIMULUS.center] * len(v))
        with np.errstate(over="ignore"):
            _, opening = model.reaction(self.OFF, fields(v, np.zeros_like(v)))
            _, closing = model.reaction(self.OFF, fields(v, np.ones_like(v)))
        assert np.all(opening >= 0.0) and np.all(closing <= 0.0)

    def test_gate_is_the_step_beyond_40_widths(self):
        # tanh rounds to +-1 there, and the switch's rates are the step's exactly
        p, w = SchaefferParams(), pde.GATE_WIDTH
        rng = np.random.default_rng(7)
        offsets = np.r_[40.0, 40.5, 41.0, 60.0, rng.uniform(40.0, 1000.0, 196)] * w
        v = np.r_[p.v_crit - offsets, p.v_crit + offsets]
        h = np.r_[0.0, 1.0, rng.uniform(0.0, 1.0, len(v) - 2)]
        _, dh = membrane([STIMULUS.center] * len(v)).reaction(self.OFF, fields(v, h))
        assert np.array_equal(dh, heaviside_gate(p, v, h))

    def test_gate_branches_vectorized(self):
        v = np.array([0.0, 0.5])
        h = np.array([0.4, 0.4])
        _, dh = membrane([STIMULUS.center] * 2).reaction(self.OFF, fields(v, h))
        assert dh[0] == pytest.approx(0.6 / 130.0)
        assert dh[1] == pytest.approx(-0.4 / 150.0)


def same_bits(a, b):
    """Equal shapes and equal bits: signed zeros and NaNs included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def where_form_rates(model, t, fields):
    """The membrane rates with each current a fresh temporary: the oracle of the in-place
    reaction.  The gate is (1 - s) (1 - h)/tau_open - s h/tau_close with the switch
    s = (1 + T)/2, T = tanh((v - v_crit)/w), as the formula below rounds it."""
    p = model.params
    v, h = fields
    dv = h * (1.0 - v) * v * v / p.tau_in - v / p.tau_out
    dv += model._profile if t <= model.stimulus.t_stim else 0.0
    one_minus_t = 1.0 - np.tanh((v - p.v_crit) / pde.GATE_WIDTH)
    dh = ((1.0 - h) / (2.0 * p.tau_open) * one_minus_t
          - (2.0 - one_minus_t) * h / (2.0 * p.tau_close))
    return np.stack([dv, dh])


def heaviside_gate(params, v, h):
    """The model's step gate, fresh temporaries: recovering up to v_crit, closing above."""
    return np.where(v <= params.v_crit, (1.0 - h) / params.tau_open, -h / params.tau_close)


def membrane_inputs(n=400):
    """Random (v, h) around the membrane's range, led by the gate tie v = v_crit,
    signed zeros, infinities and a NaN voltage; node positions near the stimulus."""
    rng = np.random.default_rng(5)
    special = [SchaefferParams().v_crit, 0.0, -0.0, np.inf, -np.inf, np.nan]
    v = np.r_[special, rng.uniform(-0.5, 1.5, n - 6)]
    h = np.r_[rng.uniform(-0.5, 1.5, 6), [0.0, -0.0, np.inf, -np.inf],
              rng.uniform(-0.5, 1.5, n - 10)]
    points = STIMULUS.center + rng.normal(scale=STIMULUS.delta, size=(n, 3))
    return points, fields(v, h)


# the last time the stimulus is on, and the first after it
WINDOW_EDGE = pytest.mark.parametrize(
    "t", [STIMULUS.t_stim, np.nextafter(STIMULUS.t_stim, np.inf)], ids=["last-on", "first-off"])


class TestReactionInPlace:
    """``reaction(t, fields, out)`` writes the rates into ``out`` and returns it."""

    @WINDOW_EDGE
    @pytest.mark.parametrize("make_model", [
        lambda points: TuringModel(TuringParams.preset("stripes")),
        lambda points: SchaefferModel(SchaefferParams(), points, STIMULUS),
    ], ids=["turing", "membrane"])
    def test_out_equals_fresh_array(self, make_model, t):
        points, y = membrane_inputs()
        model = make_model(points)
        out = np.full_like(y, 7.0)
        with np.errstate(invalid="ignore"):
            assert model.reaction(t, y, out) is out
            assert same_bits(out, model.reaction(t, y))

    @WINDOW_EDGE
    def test_membrane_matches_where_form(self, t):
        points, y = membrane_inputs()
        model = SchaefferModel(SchaefferParams(), points, STIMULUS)
        with np.errstate(invalid="ignore"):
            assert same_bits(model.reaction(t, y), where_form_rates(model, t, y))


def test_membrane_rates_same_bits_under_avx2_dispatch(tmp_path):
    # numpy picks its tanh loop per CPU; with the AVX-512 targets disabled it dispatches as on
    # an AVX2-only CPU.  The rates are taken after the stimulus window: the stimulus profile's
    # exp is known to differ between the two in the last bit.
    _, y = membrane_inputs()
    v = SchaefferParams().v_crit + pde.GATE_WIDTH * np.linspace(-25.0, 25.0, 20001)
    h = np.random.default_rng(11).uniform(0.0, 1.0, len(v))
    y = np.concatenate([y, fields(v, h)], axis=1)
    np.save(tmp_path / "fields.npy", y)
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from rbfsurf.pde import SchaefferModel, SchaefferParams, StimulusSpec\n"
        "y = np.load(sys.argv[1])\n"
        "stimulus = StimulusSpec(t_stim=5.0, center=[0.0, 0.0, 1.0], delta=0.2)\n"
        "model = SchaefferModel(SchaefferParams(), np.zeros((y.shape[1], 3)), stimulus)\n"
        "with np.errstate(invalid='ignore'):\n"
        "    np.save(sys.argv[2], model.reaction(6.0, y))\n")
    src = str(Path(pde.__file__).parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "fields.npy"),
                    str(tmp_path / "rates.npy")], env=env, check=True)
    model = SchaefferModel(SchaefferParams(), np.zeros((y.shape[1], 3)), STIMULUS)
    with np.errstate(invalid="ignore"):
        assert same_bits(np.load(tmp_path / "rates.npy"), model.reaction(6.0, y))


def stimulus_current(points, t):
    """The stimulus term of dv: at rest (v = 0, h = 1) the membrane currents are zero."""
    n = len(points)
    return membrane(points).reaction(t, fields(np.zeros(n), np.ones(n)))[0]


class TestStimulus:
    def test_peak_at_center(self):
        assert stimulus_current([[0.0, 0.0, 1.0]], 0.0) == 1.0
        # boundary of the active window still counts
        assert stimulus_current([[0.0, 0.0, 1.0]], 5.0) == 1.0

    def test_width(self):
        assert stimulus_current([[0.2, 0.0, 1.0]], 1.0) == pytest.approx(np.exp(-1.0))

    def test_off_after_window(self):
        assert stimulus_current([[0.0, 0.0, 1.0]], 5.0001) == 0.0
        out = stimulus_current(np.zeros((4, 3)), 6.0)
        assert out.shape == (4,) and not out.any()

    def test_vectorized_points(self):
        pts = np.array([[0.0, 0.0, 1.0], [0.2, 0.0, 1.0]])
        out = stimulus_current(pts, 0.0)
        assert out[0] == 1.0
        assert out[1] == pytest.approx(np.exp(-1.0))


def membrane_on(nodes):
    """SchaefferModel on a node set, stimulated at node 0 until t = 0.25."""
    stimulus = StimulusSpec(t_stim=0.25, center=nodes.points[0], delta=0.3)
    return SchaefferModel(SchaefferParams(), nodes.points, stimulus)


def rates_array(fields, out):
    """``out``, or a fresh array shaped like ``fields`` when it is None."""
    return np.empty_like(fields) if out is None else out


def no_entries(state):
    """An operator with no entries, sized to the state: a reaction-only system on it."""
    n = state.fields.shape[1]
    return SparseOperator(sparse.csr_matrix((n, n)))


class Decay:
    diffusivities = np.array([0.0, 0.0])

    def reaction(self, t, fields, out=None):
        return np.negative(fields, out=out)


class Oscillator:
    diffusivities = np.array([0.0, 0.0])

    def reaction(self, t, fields, out=None):
        out = rates_array(fields, out)
        out[0], out[1] = fields[1], -fields[0]
        return out


class PureDiffusion:
    diffusivities = np.array([1.0, 0.0])

    def reaction(self, t, fields, out=None):
        out = rates_array(fields, out)
        out[...] = 0.0
        return out


class SpyOperator:
    """Wraps a SparseOperator and records the shape of every apply."""

    def __init__(self, op):
        self.op = op
        self.n = op.n
        self.shapes = []

    def apply(self, field):
        self.shapes.append(np.shape(field))
        return self.op.apply(field)


# Dormand-Prince 5(4) as an elementwise stage chain, one array operation per
# coefficient: an independent reference for the integrator's matrix-vector stages
REF_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
REF_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
REF_ERR = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]


def reference_step(rhs, t, y, f, h, a=REF_A):
    """One Dormand-Prince 5(4) step, stage by stage: (y_new, error vector, rhs at y_new)."""
    k = [f]
    for s in range(1, 7):
        acc = a[s][0] * k[0]
        for j in range(1, s):
            acc = acc + a[s][j] * k[j]
        k.append(rhs(t + REF_C[s] * h, y + h * acc))
    b = a[6]
    y_new = y + h * (b[0] * k[0] + b[2] * k[2] + b[3] * k[3] + b[4] * k[4] + b[5] * k[5])
    err_vec = h * sum(e * kj for e, kj in zip(REF_ERR, k) if e != 0.0)
    return y_new, err_vec, k[6]


def reference_integrate(model, op, y0, t_end, rtol, atol, a=REF_A):
    """Accepted (t, y) of :func:`reference_step` under the integrator's PI controller."""
    d = np.asarray(model.diffusivities)[:, None]

    def rhs(t, y):
        return model.reaction(t, y) + d * op.apply(y)

    t, y = 0.0, y0
    f = rhs(t, y)
    h = pde._initial_step(rhs, t, y, f, t_end, rtol, atol)
    err_prev, just_rejected, accepted = 1.0, False, []
    while t < t_end - 1e-14 * t_end:
        h = min(h, t_end - t)
        y_new, err_vec, f_new = reference_step(rhs, t, y, f, h, a)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / sc) ** 2)))
        if err <= 1.0:
            t, y, f = t + h, y_new, f_new
            accepted.append((t, y))
            fac = pde._SAFETY * err**-pde._PI_ALPHA * err_prev**pde._PI_BETA
            h *= min(1.0 if just_rejected else pde._FAC_MAX, max(pde._FAC_MIN, fac))
            err_prev, just_rejected = max(err, 1e-4), False
        else:
            h *= min(1.0, max(pde._FAC_MIN, pde._SAFETY * err**-0.2))
            just_rejected = True
    return accepted


class TestIntegrate:
    def test_exponential_decay(self):
        state0 = RdState(np.array([[1.0], [2.0]]), 0.0)
        states = integrate(Decay(), no_entries(state0), state0, 2.0, rtol=1e-6, atol=1e-9)
        assert states[-1].time == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(states[-1].fields, np.array([[1.0], [2.0]]) * np.exp(-2.0),
                           rtol=1e-5)

    def test_state_at_rest_steps_from_1e6_growing_fivefold(self):
        # a zero state has zero rates: the at-rest initial step is 1e-6, and every
        # step's error estimate is exactly 0, so each next step is _FAC_MAX times longer
        steps = []
        state0 = RdState(np.zeros((2, 3)), 0.0)
        states = integrate(Decay(), no_entries(state0), state0, 1.0,
                           step_callback=lambda t, y, f: steps.append(t))
        taken = np.diff([0.0] + steps)
        assert taken[:-1] == pytest.approx(1e-6 * pde._FAC_MAX ** np.arange(9), rel=1e-12)
        assert len(steps) == 10 and steps[-1] == 1.0
        assert not states[-1].fields.any()

    def test_oscillator_round_trip(self):
        state0 = RdState(np.array([[1.0], [0.0]]), 0.0)
        states = integrate(Oscillator(), no_entries(state0), state0, 2.0 * np.pi,
                           rtol=1e-6, atol=1e-9)
        assert np.allclose(states[-1].fields, [[1.0], [0.0]], atol=1e-4)

    def test_matches_matrix_exponential(self, sphere200):
        # same semidiscrete system, so only time-stepping error remains
        nodes, _, op = sphere200
        z = nodes.points[:, 2]
        state0 = RdState(np.stack([z, np.zeros_like(z)]), 0.0)
        states = integrate(PureDiffusion(), op, state0, 0.5, rtol=1e-8, atol=1e-11)
        ref = expm(0.5 * op.matrix.toarray()) @ z
        assert np.abs(states[-1].fields[0] - ref).max() <= 1e-8

    def test_tolerance_ordering(self):
        state0 = RdState(np.array([[1.0], [1.0]]), 0.0)
        exact = np.exp(-2.0)

        def err_at(rtol, atol):
            states = integrate(Decay(), no_entries(state0), state0, 2.0, rtol=rtol, atol=atol)
            return np.abs(states[-1].fields - exact).max()

        assert err_at(1e-9, 1e-12) < err_at(1e-3, 1e-6)

    def test_snapshot_times(self):
        state0 = RdState(np.ones((2, 1)), 0.0)
        states = integrate(Decay(), no_entries(state0), state0, 1.0, snapshot_every=0.25)
        assert [s.time for s in states] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_snapshot_interval_not_dividing_span(self):
        state0 = RdState(np.ones((2, 1)), 0.0)
        states = integrate(Decay(), no_entries(state0), state0, 0.9, snapshot_every=0.4)
        assert [s.time for s in states] == pytest.approx([0.0, 0.4, 0.8, 0.9])

    def test_snapshot_values_on_schedule(self):
        state0 = RdState(np.ones((2, 1)), 0.0)
        states = integrate(Decay(), no_entries(state0), state0, 1.0, snapshot_every=0.5,
                           rtol=1e-8, atol=1e-11)
        for s in states:
            assert np.allclose(s.fields, np.exp(-s.time), rtol=1e-6)

    def test_callback_early_stop(self):
        state0 = RdState(np.ones((2, 1)), 0.0)
        states = integrate(Decay(), no_entries(state0), state0, 10.0,
                           step_callback=lambda t, y, f: t >= 0.3)
        assert 0.3 <= states[-1].time < 10.0

    def test_callback_gets_derivative(self):
        seen = []

        def cb(t, y, f):
            seen.append((y.copy(), f.copy()))
            return True

        state0 = RdState(np.ones((2, 1)), 0.0)
        integrate(Decay(), no_entries(state0), state0, 1.0, step_callback=cb)
        y, f = seen[0]
        assert np.allclose(f, -y, rtol=1e-12)

    def test_snapshots_counted_from_the_start(self):
        state0 = RdState(np.ones((2, 1)), 0.3)
        states = integrate(Decay(), no_entries(state0), state0, 1.0, snapshot_every=0.25,
                           rtol=1e-8, atol=1e-11)
        # 0.3, 0.55, 0.8, then t_end, each stop set exactly onto start + k * snapshot_every
        assert [s.time for s in states] == [0.3, 0.3 + 0.25, 0.3 + 2 * 0.25, 1.0]
        for s in states:
            assert np.allclose(s.fields, np.exp(0.3 - s.time), rtol=1e-6)

    def test_snapshot_within_landing_tolerance_of_t_end_is_t_end(self):
        # 3 * 0.3 is 0.8999999999999999: a separate stop there left a step below h_min
        state0 = RdState(np.ones((2, 1)), 0.0)
        states = integrate(Decay(), no_entries(state0), state0, 0.9, snapshot_every=0.3)
        assert [s.time for s in states] == [0.0, 0.3, 0.6, 0.9]

    @pytest.mark.parametrize("start, t_end", [(0.0, 0.0), (0.0, -1.0), (5.0, 5.0), (5.0, 2.0)],
                             ids=["empty", "negative", "empty-late-start", "backward"])
    def test_backward_or_empty_span_rejected_before_stepping(self, start, t_end):
        calls = []

        class Counted(Decay):
            def reaction(self, t, fields, out=None):
                calls.append(t)
                return super().reaction(t, fields, out)

        state0 = RdState(np.ones((2, 3)), start)
        with pytest.raises(ValueError,
                           match=f"t_end must be after the start time {start}, got {t_end}"):
            integrate(Counted(), no_entries(state0), state0, t_end)
        assert calls == []

    @pytest.mark.parametrize("t_end", [np.inf, np.nan])
    def test_nonfinite_span_rejected_before_stepping(self, t_end):
        calls = []

        class Counted(Decay):
            def reaction(self, t, fields, out=None):
                calls.append(t)
                return super().reaction(t, fields, out)

        state0 = RdState(np.ones((2, 3)), 0.0)
        with pytest.raises(ValueError, match=f"t_end must be finite, got {t_end}"):
            integrate(Counted(), no_entries(state0), state0, t_end)
        assert calls == []

    @pytest.mark.parametrize("start", [-np.inf, np.inf, np.nan])
    def test_nonfinite_start_rejected_before_stepping(self, start):
        calls = []

        class Counted(Decay):
            def reaction(self, t, fields, out=None):
                calls.append(t)
                return super().reaction(t, fields, out)

        state0 = RdState(np.ones((2, 1)), start)
        with pytest.raises(ValueError, match=f"start time must be finite, got {start}"):
            integrate(Counted(), no_entries(state0), state0, 1.0)
        assert calls == []

    @pytest.mark.parametrize("tolerances, message", [
        ({"rtol": np.inf}, "rtol and atol must be finite, got inf and 1e-08"),
        ({"atol": np.inf}, "rtol and atol must be finite, got 1e-05 and inf"),
        ({"rtol": 0.0}, "rtol and atol must be positive$"),
        ({"atol": np.nan}, "rtol and atol must be positive$"),
    ], ids=["infinite-rtol", "infinite-atol", "zero-rtol", "nan-atol"])
    def test_tolerances_finite_and_positive_before_stepping(self, tolerances, message):
        calls = []

        class Counted(Decay):
            def reaction(self, t, fields, out=None):
                calls.append(t)
                return super().reaction(t, fields, out)

        state0 = RdState(np.ones((2, 1)), 0.0)
        with pytest.raises(ValueError, match=message):
            integrate(Counted(), no_entries(state0), state0, 1.0, **tolerances)
        assert calls == []

    def test_validation(self, sphere200):
        _, _, op = sphere200
        state0 = RdState(np.ones((2, 1)), 0.0)
        with pytest.raises(ValueError):
            integrate(Decay(), no_entries(state0), state0, 1.0, rtol=0.0)
        with pytest.raises(ValueError):
            integrate(Decay(), no_entries(state0), state0, 1.0, snapshot_every=0.0)
        with pytest.raises(ValueError):
            integrate(PureDiffusion(), op, state0, 1.0)  # size mismatch

    @pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf])
    def test_diffusivities_validated_before_stepping(self, sphere200, bad):
        calls = []

        class BadDiffusion(PureDiffusion):
            diffusivities = np.array([1e-3, bad])

            def reaction(self, t, fields, out=None):
                calls.append(t)
                return super().reaction(t, fields, out)

        nodes, _, op = sphere200
        state0 = RdState(np.ones((2, len(nodes))), 0.0)
        with pytest.raises(ValueError, match="diffusivities"):
            integrate(BadDiffusion(), op, state0, 1.0)
        assert calls == []

    @pytest.mark.parametrize("make_model, shape", [
        (lambda nodes: TuringModel(TuringParams.preset("stripes")), (2, 200)),
        (membrane_on, (1, 200)),  # the gate does not diffuse
        (lambda nodes: Decay(), None),
    ], ids=["turing", "membrane", "decay"])
    def test_applies_only_diffusing_fields(self, sphere200, make_model, shape):
        nodes, _, op = sphere200
        model = make_model(nodes)
        spy = SpyOperator(op)
        state0 = RdState(np.stack([nodes.points[:, 2], np.ones(len(nodes))]), 0.0)
        states = integrate(model, spy, state0, 0.5)
        assert len(states) == 2 and states[-1].time == pytest.approx(0.5)
        if shape is None:
            assert spy.shapes == []
        else:
            assert spy.shapes and set(spy.shapes) == {shape}

    def test_diffusion_matches_full_apply(self, sphere200):
        # every derivative is the reaction plus D times the operator, bit for
        # bit, and a field with D = 0 gets none of the operator
        nodes, _, op = sphere200
        model = membrane_on(nodes)
        seen = []
        state0 = RdState(np.stack([0.5 * (1 + nodes.points[:, 2]), np.ones(len(nodes))]), 0.0)
        integrate(model, op, state0, 0.5,
                  step_callback=lambda t, y, f: seen.append((t, y.copy(), f.copy())))
        for t, y, f in seen:
            reaction = model.reaction(t, y)
            assert np.array_equal(f[0], reaction[0] + model.params.sigma * (op.matrix @ y[0]))
            assert np.array_equal(f[1], reaction[1])

    def test_cached_reaction_left_unchanged(self, sphere200):
        # a model that copies an array it keeps into the integrator's row must
        # find it unchanged: the diffusion is added to the row, not to the cache
        class Cached:
            diffusivities = np.array([1.0, 0.5])

            def __init__(self, n):
                self.cache = np.linspace(-1.0, 1.0, 2 * n).reshape(2, n)

            def reaction(self, t, fields, out=None):
                out = rates_array(fields, out)
                out[...] = self.cache
                return out

        nodes, _, op = sphere200
        model = Cached(len(nodes))
        before = model.cache.copy()
        state0 = RdState(np.stack([nodes.points[:, 2], nodes.points[:, 0]]), 0.0)
        integrate(model, op, state0, 0.1)
        assert np.array_equal(model.cache, before)

    def test_divergent_initial_state(self):
        state0 = RdState(np.array([[np.nan], [0.0]]), 0.0)
        with pytest.raises(DivergenceError):
            integrate(Decay(), no_entries(state0), state0, 1.0)

    def test_stiffness_on_poisoned_rhs(self):
        class Poisoned:
            diffusivities = np.array([0.0, 0.0])

            def reaction(self, t, fields, out=None):
                out = rates_array(fields, out)
                out[...] = np.nan if t > 0.01 else -fields
                return out

        state0 = RdState(np.ones((2, 1)), 0.0)
        with pytest.raises(StiffnessError):
            integrate(Poisoned(), no_entries(state0), state0, 1.0)

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(pde, "_MAX_STEPS", 2)
        state0 = RdState(np.array([[1.0], [0.0]]), 0.0)
        with pytest.raises(StiffnessError, match="step budget"):
            integrate(Oscillator(), no_entries(state0), state0, 100.0)


def stripes_start(nodes):
    u0 = np.random.default_rng(0).uniform(-0.5, 0.5, len(nodes))
    return np.stack([u0, np.zeros(len(nodes))])


def agrees_with_reference(accepted, ref):
    """Same accepted step count, and every step within 1e-7 in t and 1e-8 in the fields.

    The bound is not roundoff: the error estimate cancels about seven
    digits, so a different summation order moves the controller's step
    sizes in the eighth digit and the states by about 1e-9.
    """
    return len(accepted) == len(ref) and all(
        abs(t - t_ref) <= 1e-7 and np.abs(y - y_ref).max() <= 1e-8
        for (t, y), (t_ref, y_ref) in zip(accepted, ref))


class TestReferenceStepper:
    @pytest.fixture(scope="class")
    def stripes_run(self, sphere200):
        nodes, _, op = sphere200
        model = TuringModel(TuringParams.preset("stripes"))
        y0 = stripes_start(nodes)
        accepted = []
        integrate(model, op, RdState(y0, 0.0), 20.0, rtol=1e-5, atol=1e-8,
                  step_callback=lambda t, y, f: accepted.append((t, y)))
        return model, op, y0, accepted

    def test_matches_reference_at_every_step(self, stripes_run):
        model, op, y0, accepted = stripes_run
        ref = reference_integrate(model, op, y0, 20.0, 1e-5, 1e-8)
        assert len(accepted) > 30
        assert agrees_with_reference(accepted, ref)

    def test_wrong_coefficient_is_detected(self, stripes_run):
        # a_21 = 9/41 instead of 9/40: the comparison must notice
        model, op, y0, accepted = stripes_run
        wrong = [list(row) for row in REF_A]
        wrong[2][1] = 9 / 41
        assert not agrees_with_reference(
            accepted, reference_integrate(model, op, y0, 20.0, 1e-5, 1e-8, wrong))


class TestIntegratorBuffers:
    def test_callback_arrays_never_overwritten(self, sphere200):
        # the callback keeps y and f without copying; a later step must not
        # write into them through the preallocated work array
        nodes, _, op = sphere200
        model = TuringModel(TuringParams.preset("stripes"))
        kept = []
        states = integrate(model, op, RdState(stripes_start(nodes), 0.0), 5.0,
                           step_callback=lambda t, y, f: kept.append(
                               (t, y, f, y.copy(), f.copy())))
        assert len(kept) > 5
        for t, y, f, y_then, f_then in kept:
            assert np.array_equal(y, y_then) and np.array_equal(f, f_then)
            fresh = model.reaction(t, y) + model.diffusivities[:, None] * op.apply(y)
            assert np.array_equal(f, fresh)
        assert np.array_equal(kept[-1][1], states[-1].fields)


class TestHealthRecord:
    @staticmethod
    def records(caplog):
        return [r for r in caplog.records if r.name == "rbfsurf.pde"]

    def test_one_record_per_call(self, sphere200, caplog):
        caplog.set_level(logging.DEBUG, logger="rbfsurf.pde")
        nodes, _, op = sphere200
        spy = SpyOperator(op)
        steps = []
        integrate(TuringModel(TuringParams.preset("stripes")), spy, RdState(stripes_start(nodes), 0.0),
                  5.0, step_callback=lambda t, y, f: steps.append(t))
        (record,) = self.records(caplog)
        assert record.levelno == logging.DEBUG
        stats = record.stats
        assert stats["rhs_evals"] == len(spy.shapes) > 0
        assert stats["accepted"] == len(steps)
        assert stats["rhs_evals"] == 2 + 6 * (stats["accepted"] + stats["rejected"])
        taken = np.diff([0.0] + steps)
        assert stats["h_min"] == pytest.approx(taken.min(), rel=1e-12)
        assert stats["h_max"] == pytest.approx(taken.max(), rel=1e-12)
        assert stats["stop"] == "t_end"
        assert "RHS evaluations" in record.getMessage()

    def test_callback_stop_reason(self, caplog):
        caplog.set_level(logging.DEBUG, logger="rbfsurf.pde")
        state0 = RdState(np.ones((2, 1)), 0.0)
        integrate(Decay(), no_entries(state0), state0, 10.0,
                  step_callback=lambda t, y, f: t >= 0.3)
        (record,) = self.records(caplog)
        stats = record.stats
        assert stats["stop"] == "callback"
        assert stats["rhs_evals"] == 2 + 6 * (stats["accepted"] + stats["rejected"])

    def test_silent_by_default(self):
        # no handler and no level of its own: logging's default WARNING
        # threshold drops the DEBUG record
        log = logging.getLogger("rbfsurf.pde")
        assert log.level == logging.NOTSET and not log.handlers


class TestRunTuring:
    def test_smoke_run(self, sphere200):
        nodes, frames, op = sphere200
        run = run_turing(nodes, frames, preset="spots", t_end=50.0, op=op,
                         snapshot_every=25.0)
        assert [s.time for s in run.states] == pytest.approx([0.0, 25.0, 50.0])
        assert np.all(np.isfinite(run.final.fields))
        assert run.final_rate_inf > 0

    def test_deterministic_in_seed(self, sphere200):
        nodes, frames, op = sphere200
        a = run_turing(nodes, frames, preset="spots", t_end=5.0, op=op, seed=3)
        b = run_turing(nodes, frames, preset="spots", t_end=5.0, op=op, seed=3)
        c = run_turing(nodes, frames, preset="spots", t_end=5.0, op=op, seed=4)
        assert np.array_equal(a.final.fields, b.final.fields)
        assert not np.array_equal(a.final.fields, c.final.fields)

    def test_needs_preset(self, sphere200):
        nodes, frames, op = sphere200
        with pytest.raises(TypeError):
            run_turing(nodes, frames, op=op)

    def test_steady_stop(self, sphere200):
        # an absurdly loose threshold declares steadiness after one window
        nodes, frames, op = sphere200
        run = run_turing(nodes, frames, preset="spots", t_end=1000.0, op=op,
                         steady_tol=1e9, steady_window=5.0)
        assert run.steady_time is not None
        assert run.final.time < 100.0

    def test_steps_accepted_counts_callbacks(self, sphere200, monkeypatch):
        calls = []
        integrate_ = pde.integrate

        def counting(*args, step_callback, **kwargs):
            def callback(t, y, f):
                calls.append(t)
                return step_callback(t, y, f)
            return integrate_(*args, step_callback=callback, **kwargs)

        monkeypatch.setattr(pde, "integrate", counting)
        nodes, frames, op = sphere200
        run = run_turing(nodes, frames, preset="spots", t_end=5.0, op=op)
        assert run.steps_accepted == len(calls) > 0

    def test_final_rate_is_last_callback_rate(self, sphere200, monkeypatch):
        derivatives = []
        integrate_ = pde.integrate

        def recording(*args, step_callback, **kwargs):
            def callback(t, y, f):
                derivatives.append(f)
                return step_callback(t, y, f)
            return integrate_(*args, step_callback=callback, **kwargs)

        monkeypatch.setattr(pde, "integrate", recording)
        nodes, frames, op = sphere200
        run = run_turing(nodes, frames, preset="stripes", t_end=5.0, op=op)
        assert run.final_rate_inf == np.abs(derivatives[-1][0]).max()
        # and it is du/dt of the final state, formed anew
        fields = run.final.fields
        fresh = (TuringModel(run.params).reaction(run.final.time, fields)[0]
                 + run.params.d_u * op.apply(fields[0]))
        assert run.final_rate_inf == np.abs(fresh).max()

    def test_one_apply_per_rhs_evaluation(self, sphere200, caplog):
        caplog.set_level(logging.DEBUG, logger="rbfsurf.pde")
        nodes, frames, op = sphere200
        spy = SpyOperator(op)
        run_turing(nodes, frames, preset="stripes", t_end=5.0, op=spy)
        (record,) = [r for r in caplog.records if r.name == "rbfsurf.pde"]
        assert len(spy.shapes) == record.stats["rhs_evals"] > 0

    def test_equals_integrate_with_its_defaults(self, sphere200):
        nodes, frames, op = sphere200
        run = run_turing(nodes, frames, preset="stripes", t_end=5.0, op=op, snapshot_every=2.5)
        states = integrate(TuringModel(TuringParams.preset("stripes")), op,
                           RdState(stripes_start(nodes), 0.0), 5.0, snapshot_every=2.5)
        assert run.steady_time is None and len(run.states) == len(states) == 3
        for a, b in zip(run.states, states):
            assert a.time == b.time and np.array_equal(a.fields, b.fields)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, np.nan])
    def test_needs_positive_span(self, sphere200, t_end):
        nodes, frames, op = sphere200
        with pytest.raises(ValueError, match="t_end"):
            run_turing(nodes, frames, preset="stripes", t_end=t_end, op=op)


@pytest.fixture(scope="module")
def wave(sphere200):
    nodes, frames, op = sphere200
    far = int(np.argmin(nodes.points @ nodes.points[0]))
    run = run_schaeffer(nodes, frames, t_end=120.0, op=op, probe=[0, far])
    return run, far


class TestRunSchaeffer:
    def test_upstroke_at_stimulated_node(self, wave):
        run, _ = wave
        act = run.activation_time(0, 0.9)
        assert act is not None and 0.0 < act < 10.0
        assert run.probe_v[:, 0].max() > 0.9

    def test_antipodal_delay_positive(self, wave):
        run, _ = wave
        act0 = run.activation_time(0, 0.9)
        act1 = run.activation_time(1, 0.9)
        assert act1 is not None
        assert act1 > act0

    def test_gate_stays_physical(self, wave):
        run, _ = wave
        assert run.probe_h.min() >= 0.0
        assert run.probe_h.max() <= 1.0
        assert np.all(np.isfinite(run.final.fields))

    def test_activation_none_when_never_crossed(self, wave):
        run, _ = wave
        assert run.activation_time(0, 2.0) is None

    def test_probe_series_aligned(self, wave):
        run, _ = wave
        assert run.probe_v.shape == run.probe_h.shape == (len(run.probe_t), 2)
        assert run.probe_t[0] == 0.0
        assert np.all(np.diff(run.probe_t) > 0)

    def test_default_stimulus_geometry(self, sphere200):
        nodes, frames, op = sphere200
        run = run_schaeffer(nodes, frames, t_end=1.0, op=op)
        assert np.array_equal(run.stimulus.center, nodes.points[0])
        # 0.15 times twice the largest distance from the centroid, bit for bit
        radius = np.linalg.norm(nodes.points - nodes.points.mean(axis=0), axis=1).max()
        assert run.stimulus.delta == 0.15 * (2.0 * radius)

    def test_custom_stimulus_respected(self, sphere200):
        nodes, frames, op = sphere200
        run = run_schaeffer(nodes, frames, t_end=1.0, op=op, probe=5, stim_node=5,
                            t_stim=2.0, delta=0.3)
        assert run.stimulus.t_stim == 2.0
        assert run.stimulus.delta == 0.3
        assert np.array_equal(run.stimulus.center, nodes.points[5])

    @pytest.mark.parametrize("ids", [{"probe": 200}, {"probe": -1}, {"probe": [0, 500]},
                                     {"stim_node": 999}, {"stim_node": -1}])
    def test_node_ids_out_of_range(self, sphere200, ids):
        nodes, frames, op = sphere200
        with pytest.raises(ValueError, match=r"out of range \[0, 200\)"):
            run_schaeffer(nodes, frames, t_end=1.0, op=op, **ids)

    def test_non_integer_probe_rejected(self, sphere200):
        nodes, frames, op = sphere200
        with pytest.raises(ValueError, match="must be integers"):
            run_schaeffer(nodes, frames, t_end=1.0, op=op, probe=2.5)

    def test_scalar_probe(self, sphere200):
        nodes, frames, op = sphere200
        run = run_schaeffer(nodes, frames, t_end=1.0, op=op, probe=7)
        assert run.probe_v.shape[1] == 1
        assert run.probe_v[-1, 0] == run.final.fields[0, 7]


class HeavisideMembrane(SchaefferModel):
    """The membrane model with the paper's step gate: recovering up to v_crit, the tie
    included, closing above it.  It keeps the in-place ``np.putmask`` form the library used
    before the smoothed switch, and is the model the reference runs integrate."""

    def reaction(self, t, fields, out=None):
        out = super().reaction(t, fields, out)
        p = self.params
        v, h = fields
        recovering = np.subtract(1.0, h)
        recovering /= p.tau_open
        np.divide(h, -p.tau_close, out=out[1])
        np.putmask(out[1], np.less_equal(v, p.v_crit), recovering)
        return out


def test_heaviside_membrane_is_the_step_gate():
    points, y = membrane_inputs()
    model = HeavisideMembrane(SchaefferParams(), points, STIMULUS)
    with np.errstate(invalid="ignore"):
        rates = model.reaction(STIMULUS.t_stim, y)
        assert same_bits(rates[0], where_form_rates(model, STIMULUS.t_stim, y)[0])
        assert same_bits(rates[1], heaviside_gate(model.params, *y))


@pytest.fixture(scope="module")
def membrane_distances(sphere1000, sphere1000_frames, sphere1000_op):
    """Distances, per field, of the membrane-sphere runs at the default tolerances from the
    step model at rtol 1e-8, atol 1e-11 (about 121,000 RHS evaluations, 6-8 s on 2 vCPUs),
    over snapshots every 25 ms to 600 ms: (smoothed gate, step gate)."""
    run = run_schaeffer(sphere1000, sphere1000_frames, t_end=600.0, op=sphere1000_op,
                        snapshot_every=25.0)
    step = HeavisideMembrane(run.params, sphere1000.points, run.stimulus)
    start = run.states[0]
    reference = tight_reference(step, sphere1000_op, start, 600.0, 25.0, rtol=1e-8, atol=1e-11)
    step_run = integrate(step, sphere1000_op, start, 600.0, snapshot_every=25.0)
    return snapshot_distance(run.states, reference), snapshot_distance(step_run, reference)


@pytest.fixture(scope="module")
def schwarz_stripes():
    """The acceptance suite's stripes on projected Schwarz P (M = 31, Gaussian eps 6): the
    model, operator and seed-0 start."""
    nodes = project_radial(repulsion_nodes(1800), schwarz_p(), drop_misses=True)
    frames = analytic_frames(schwarz_p(), nodes.points)
    op = assemble_operator(nodes, frames, 31, Kernel(KernelFamily.GAUSSIAN, 6.0))
    return TuringModel(TuringParams.preset("stripes")), op, RdState(stripes_start(nodes), 0.0)


class TestDistanceToReference:
    """Runs at the default tolerances judged by their distance to a tight reference run."""

    def test_membrane_no_farther_than_the_step_run(self, membrane_distances):
        smoothed, step = membrane_distances
        assert np.all(smoothed <= step)

    def test_membrane_within_the_step_runs_bounds(self, membrane_distances):
        # the step-gate run's distances while gen_sphere_nodes still normalised twice: 5.7e-4
        # in v and 6.5e-4 in h (now 5.7e-4 and 8.4e-4).  The switch is 5.3e-4 and 4.3e-4 at a
        # width of 1e-3, 4.3e-4 and 4.5e-4 at 1.5e-3.
        smoothed, _ = membrane_distances
        assert smoothed[0] <= 5.7e-4 and smoothed[1] <= 6.5e-4

    @pytest.mark.filterwarnings("ignore:local system poorly conditioned")
    def test_schwarz_stripes_within_twice_the_measured_distance(self, schwarz_stripes):
        # against rtol 1e-9, atol 1e-12 (about 4,000 steps, 2-3 s on 2 vCPUs), to t = 600 with
        # snapshots every 100: 2.4e-7 in u and 1.9e-6 in v; rtol 1e-7 gives 5e-9 and 2e-8
        model, op, start = schwarz_stripes
        reference = tight_reference(model, op, start, 600.0, 100.0, rtol=1e-9, atol=1e-12)
        distance = snapshot_distance(integrate(model, op, start, 600.0, snapshot_every=100.0),
                                     reference)
        assert np.all(distance <= 2 * np.array([2.4e-7, 1.9e-6]))


class UnsteppableOperator:
    """An operator of the right size whose apply fails: no step may be taken."""

    def __init__(self, n):
        self.n = n

    def apply(self, field):
        raise AssertionError("stepped before the run options were checked")


@pytest.mark.parametrize("driver", [lambda *a, **k: run_turing(*a, preset="spots", **k),
                                    run_schaeffer], ids=["turing", "schaeffer"])
@pytest.mark.parametrize("t_end, snapshot_every, message", [
    (0.0, None, "t_end must be after the start time 0.0, got 0.0"),
    (-1.0, None, "t_end must be after the start time 0.0, got -1.0"),
    (np.nan, None, "t_end must be finite, got nan"),
    (np.inf, None, "t_end must be finite, got inf"),
    (1.0, 0.0, "snapshot_every must be positive"),
    (1.0, -5.0, "snapshot_every must be positive"),
], ids=["zero", "negative", "nan", "inf", "zero-spacing", "negative-spacing"])
def test_span_checked_before_any_step(sphere200, driver, t_end, snapshot_every, message):
    nodes, frames, _ = sphere200
    with pytest.raises(ValueError, match=message):
        driver(nodes, frames, t_end=t_end, snapshot_every=snapshot_every,
               op=UnsteppableOperator(len(nodes)))


@pytest.mark.parametrize("driver, option, message", [
    (lambda *a, **k: run_turing(*a, preset="spots", **k), {"steady_tol": 0.0}, "steady_tol"),
    (run_schaeffer, {"t_stim": 0.0}, "stimulus duration"),
], ids=["turing", "schaeffer"])
def test_driver_options_checked_before_the_span(sphere200, driver, option, message):
    # the span is checked once, by integrate, after the driver's own options
    nodes, frames, _ = sphere200
    with pytest.raises(ValueError, match=message):
        driver(nodes, frames, t_end=np.nan, op=UnsteppableOperator(len(nodes)), **option)


@pytest.mark.parametrize("stimulus, message", [({"t_stim": 0.0}, "duration"),
                                               ({"delta": 0.0}, "width"),
                                               ({"delta": np.nan}, "width")],
                         ids=["zero-duration", "zero-width", "nan-width"])
def test_stimulus_checked_before_any_step(sphere200, stimulus, message):
    nodes, frames, _ = sphere200
    with pytest.raises(ValueError, match=f"stimulus {message} must be positive"):
        run_schaeffer(nodes, frames, t_end=1.0, op=UnsteppableOperator(len(nodes)), **stimulus)


@pytest.mark.parametrize("name", ["steady_tol", "steady_window"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1e-3, 0.0])
def test_steady_stop_checked_before_any_step(sphere200, name, value):
    # a NaN or negative value would turn the steady stop off and run on to t_end
    nodes, frames, _ = sphere200
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {value}$"):
        run_turing(nodes, frames, preset="stripes", t_end=1.0,
                   op=UnsteppableOperator(len(nodes)), **{name: value})


class TestDefaultStimulusWidth:
    def test_unit_sphere(self, sphere200):
        # 0.15 times a diameter near 2, not exactly: the nodal centroid is not the center
        nodes, frames, op = sphere200
        run = run_schaeffer(nodes, frames, t_end=1.0, op=op)
        assert run.stimulus.delta == pytest.approx(0.3, rel=1e-2)

    def test_offset_invariant(self, sphere200):
        nodes, frames, op = sphere200
        moved = run_schaeffer(NodeSet(nodes.points + 5.0), frames, t_end=1.0, op=op)
        delta = run_schaeffer(nodes, frames, t_end=1.0, op=op).stimulus.delta
        assert moved.stimulus.delta == pytest.approx(delta, rel=1e-12)


@pytest.fixture(scope="module")
def short_run(sphere200):
    nodes, frames, op = sphere200
    run = run_turing(nodes, frames, preset="spots", t_end=1.0, op=op, snapshot_every=0.5)
    return nodes, run


class TestTrajectoryOutput:
    def test_snapshot_csv_round_trip(self, short_run, tmp_path):
        nodes, run = short_run
        index = save_snapshots(nodes, run.states, tmp_path)
        lines = open(index).read().splitlines()
        assert lines[0] == "snapshot,time,file"
        assert len(lines) == 1 + len(run.states)
        for num, state in enumerate(run.states):
            path = tmp_path / f"snapshot_{num:04d}.csv"
            header = path.read_text().splitlines()[0]
            assert header == "x,y,z,u,v"
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            assert np.array_equal(data[:, :3], nodes.points)
            assert np.array_equal(data[:, 3], state.fields[0])
            assert np.array_equal(data[:, 4], state.fields[1])

    def test_field_names_in_header(self, short_run, tmp_path):
        nodes, run = short_run
        save_snapshots(nodes, run.states[:1], tmp_path, field_names=("v", "h"))
        header = (tmp_path / "snapshot_0000.csv").read_text().splitlines()[0]
        assert header == "x,y,z,v,h"

    def test_vtk_output(self, short_run, tmp_path):
        nodes, run = short_run
        save_snapshots(nodes, run.states[:1], tmp_path, vtk=True)
        text = (tmp_path / "snapshot_0000.vtk").read_text()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert f"POINTS {len(nodes)} double" in text
        assert "SCALARS u double 1" in text
        assert "SCALARS v double 1" in text
        assert f"POINT_DATA {len(nodes)}" in text

    def test_vtk_values_parse(self, tmp_path):
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        path = tmp_path / "cloud.vtk"
        write_vtk_pointcloud(path, pts, {"f": np.array([0.25, -1.5])})
        lines = path.read_text().splitlines()
        i = lines.index("SCALARS f double 1")
        assert [float(v) for v in lines[i + 2:i + 4]] == [0.25, -1.5]

    def test_probe_csv(self, sphere200, tmp_path):
        nodes, frames, op = sphere200
        run = run_schaeffer(nodes, frames, t_end=1.0, op=op, probe=[0, 3])
        path = tmp_path / "probe.csv"
        save_probe_csv(path, run, column=1)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,v,h"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], run.probe_t)
        assert np.array_equal(data[:, 1], run.probe_v[:, 1])
        assert np.array_equal(data[:, 2], run.probe_h[:, 1])
