import math

import numpy as np
import pytest

from rbfsurf import Kernel, KernelFamily

from conftest import closed_form_phi

ALL_FAMILIES = list(KernelFamily)


def fd_derivative(func, r, step=1e-5):
    return (func(r + step) - func(r - step)) / (2 * step)


def fd_second(func, r, step=1e-3):
    # 5-point centered stencil: a 3-point rule at step 1e-5 sits at the
    # float64 noise floor (~2e-16 / step^2 = 2e-6), too coarse to certify
    # 1e-6 relative agreement
    return (-func(r + 2 * step) + 16 * func(r + step) - 30 * func(r)
            + 16 * func(r - step) - func(r - 2 * step)) / (12 * step**2)


class TestConstruction:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            Kernel(KernelFamily.GAUSSIAN, 0.0)
        with pytest.raises(ValueError):
            Kernel(KernelFamily.GAUSSIAN, -1.5)

    def test_epsilon_must_be_finite(self):
        with pytest.raises(ValueError, match="shape parameter must be finite, got inf"):
            Kernel(KernelFamily.GAUSSIAN, np.inf)
        with pytest.raises(ValueError, match="shape parameter must be positive, got nan"):
            Kernel(KernelFamily.GAUSSIAN, np.nan)

    @pytest.mark.parametrize("args", [(), (KernelFamily.GAUSSIAN,)], ids=["none", "family-only"])
    def test_family_and_epsilon_required(self, args):
        with pytest.raises(TypeError):
            Kernel(*args)

    @pytest.mark.parametrize("family", ["gaussian", "iq", None])
    def test_family_must_be_a_kernel_family(self, family):
        # a plain string would fall through each method's family tests to a
        # different default, mixing the formulas of two families
        with pytest.raises(ValueError, match=f"kernel family must be a KernelFamily, got {family!r}"):
            Kernel(family, 2.0)


class TestPhi:
    def test_gaussian_at_zero(self):
        assert Kernel(KernelFamily.GAUSSIAN, 1.0).phi(0.0) == 1.0

    def test_gaussian_at_one(self):
        # exp(-1) to the printed precision
        assert Kernel(KernelFamily.GAUSSIAN, 1.0).phi(1.0) == pytest.approx(
            0.3678794412, abs=1e-10)
        assert Kernel(KernelFamily.GAUSSIAN, 1.0).phi(1.0) == pytest.approx(math.exp(-1.0))

    def test_iq_half(self):
        # 1 / (1 + (2 * 0.5)^2) = 1/2
        assert Kernel(KernelFamily.INVERSE_QUADRATIC, 2.0).phi(0.5) == pytest.approx(0.5)

    def test_imq_matches_formula(self):
        k = Kernel(KernelFamily.INVERSE_MULTIQUADRIC, 3.0)
        r = 0.7
        assert k.phi(r) == pytest.approx(1.0 / math.sqrt(1.0 + (3.0 * r) ** 2))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
    def test_phi_at_zero_is_one(self, family, eps):
        assert Kernel(family, eps).phi(0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
    def test_phi_strictly_decreasing(self, family, eps):
        k = Kernel(family, eps)
        r = np.linspace(0.0, 5.0, 200)
        values = k.phi(r)
        assert np.all(np.diff(values) < 0)

    def test_negative_radius_rejected(self):
        k = Kernel(KernelFamily.GAUSSIAN, 1.0)
        for method in (k.phi, k.dphi_over_r, k.d2phi):
            with pytest.raises(ValueError):
                method(-0.1)
            with pytest.raises(ValueError):
                method(np.array([0.5, -0.2]))

    def test_array_input_matches_scalar(self):
        k = Kernel(KernelFamily.INVERSE_QUADRATIC, 1.3)
        r = np.array([0.0, 0.4, 1.7])
        np.testing.assert_allclose(k.phi(r), [k.phi(v) for v in r])


class TestPhiInPlace:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_closed_form_bit_for_bit(self, family):
        k = Kernel(family, 2.7)
        r = np.random.default_rng(3).uniform(0.0, 3.0, (50, 40))
        r[0, 0] = 0.0
        assert np.array_equal(k.phi(r), closed_form_phi(k, r))
        assert np.array_equal(k.phi(r[:, 3]), closed_form_phi(k, r[:, 3]))
        assert k.phi(0.75) == closed_form_phi(k, np.array([0.75]))[0]
        assert np.ndim(k.phi(0.75)) == 0

    def test_phi_leaves_input_alone(self):
        r = np.linspace(0.0, 2.0, 9)
        Kernel(KernelFamily.INVERSE_MULTIQUADRIC, 1.5).phi(r)
        assert np.array_equal(r, np.linspace(0.0, 2.0, 9))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_into_strided_block(self, family):
        # the local solves write phi into the leading block of a bordered matrix
        k = Kernel(family, 1.3)
        r = np.random.default_rng(4).uniform(0.0, 2.0, (4, 6, 6))
        out = np.full((4, 7, 7), -1.0)
        k._phi_into(r.copy(), out[:, :6, :6])
        assert np.array_equal(out[:, :6, :6], k.phi(r))
        assert np.all(out[:, 6] == -1.0) and np.all(out[:, :, 6] == -1.0)


class TestDphiOverR:
    def test_gaussian_limits_at_zero(self):
        assert Kernel(KernelFamily.GAUSSIAN, 1.0).dphi_over_r(0.0) == pytest.approx(-2.0)
        assert Kernel(KernelFamily.GAUSSIAN, 2.0).dphi_over_r(0.0) == pytest.approx(-8.0)

    def test_iq_imq_limits_at_zero(self):
        assert Kernel(KernelFamily.INVERSE_QUADRATIC, 2.0).dphi_over_r(0.0) == pytest.approx(-8.0)
        assert Kernel(KernelFamily.INVERSE_MULTIQUADRIC, 2.0).dphi_over_r(0.0) == pytest.approx(-4.0)

    def test_gaussian_at_one(self):
        assert Kernel(KernelFamily.GAUSSIAN, 1.0).dphi_over_r(1.0) == pytest.approx(
            -0.7357588824, abs=1e-10)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_continuous_at_zero(self, family):
        k = Kernel(family, 1.7)
        assert abs(k.dphi_over_r(1e-8) - k.dphi_over_r(0.0)) <= 1e-6


class TestD2Phi:
    def test_gaussian_values(self):
        k = Kernel(KernelFamily.GAUSSIAN, 1.0)
        assert k.d2phi(0.0) == pytest.approx(-2.0)
        assert k.d2phi(1.0) == pytest.approx(0.7357588824, abs=1e-10)

    def test_gaussian_decays(self):
        k = Kernel(KernelFamily.GAUSSIAN, 1.0)
        assert abs(k.d2phi(40.0)) < 1e-300


class TestDerivativesAgainstFiniteDifferences:
    """Independent check of the closed forms over all families and shapes."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
    def test_first_derivative(self, family, eps):
        k = Kernel(family, eps)
        for r in np.linspace(0.05, 3.0, 40):
            exact = k.dphi_over_r(r) * r
            approx = fd_derivative(k.phi, r)
            assert exact == pytest.approx(approx, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 4.0])
    def test_second_derivative(self, family, eps):
        k = Kernel(family, eps)
        for r in np.linspace(0.05, 3.0, 40):
            exact = k.d2phi(r)
            approx = fd_second(k.phi, r)
            assert exact == pytest.approx(approx, rel=1e-6, abs=1e-8)
