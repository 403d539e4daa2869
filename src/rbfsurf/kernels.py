"""Smooth radial basis function kernels and their exact radial derivatives.

Three infinitely smooth, positive definite families are provided, each
normalized to ``phi(0) = 1`` and strictly decreasing in ``r``:

* Gaussian             ``phi(r) = exp(-(eps*r)**2)``
* inverse quadratic    ``phi(r) = 1 / (1 + (eps*r)**2)``
* inverse multiquadric ``phi(r) = 1 / sqrt(1 + (eps*r)**2)``

The derivative accessors return closed forms, written so that the removable singularity
of ``phi'(r)/r`` at ``r = 0``, every stencil center's entry, is evaluated through its
analytic limit.  :func:`lbo_of_rbf_rows` combines their values: it takes no kernel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class KernelFamily(enum.Enum):
    """Supported smooth RBF families."""

    GAUSSIAN = "gaussian"
    INVERSE_QUADRATIC = "iq"
    INVERSE_MULTIQUADRIC = "imq"


def _check_radius(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radial distance must be nonnegative")
    return r


@dataclass(frozen=True)
class Kernel:
    """An RBF family together with its shape parameter.

    The shape parameter ``epsilon`` controls flatness: small values flatten
    the basis (accurate but ill-conditioned interpolation), large values
    localize it.  Both are required; there is no default kernel.

    Parameters
    ----------
    family : KernelFamily
        One of the three smooth families.
    epsilon : float
        Positive, finite shape parameter, relative to unit geometry.
    """

    family: KernelFamily
    epsilon: float

    def __post_init__(self):
        if not isinstance(self.family, KernelFamily):
            raise ValueError(f"kernel family must be a KernelFamily, got {self.family!r}")
        if not self.epsilon > 0:
            raise ValueError(f"shape parameter must be positive, got {self.epsilon}")
        if not np.isfinite(self.epsilon):
            raise ValueError(f"shape parameter must be finite, got {self.epsilon}")

    def phi(self, r):
        """Evaluate ``phi(r)``. Accepts scalars or arrays; requires ``r >= 0``."""
        r = np.array(_check_radius(r))
        return self._phi_into(r, r)[()]

    def _phi_into(self, r, out):
        """Write ``phi(r)`` into ``out`` and return it, using ``r`` (float, >= 0) as scratch."""
        s = np.square(np.multiply(r, self.epsilon, out=r), out=r)
        if self.family is KernelFamily.GAUSSIAN:
            return np.exp(np.negative(s, out=s), out=out)
        s += 1.0
        if self.family is KernelFamily.INVERSE_MULTIQUADRIC:
            np.sqrt(s, out=s)
        return np.divide(1.0, s, out=out)

    def dphi_over_r(self, r):
        """Evaluate ``phi'(r) / r``, finite for all ``r >= 0``.

        The returned closed forms are the analytic continuation through
        ``r = 0``: Gaussian and inverse quadratic tend to ``-2*eps**2``,
        inverse multiquadric to ``-eps**2``.
        """
        r = _check_radius(r)
        e2 = self.epsilon**2
        s = e2 * r**2
        if self.family is KernelFamily.GAUSSIAN:
            return -2.0 * e2 * np.exp(-s)
        if self.family is KernelFamily.INVERSE_QUADRATIC:
            return -2.0 * e2 / (1.0 + s) ** 2
        return -e2 * (1.0 + s) ** -1.5

    def d2phi(self, r):
        """Evaluate ``phi''(r)`` in closed form."""
        r = _check_radius(r)
        e2 = self.epsilon**2
        s = e2 * r**2
        if self.family is KernelFamily.GAUSSIAN:
            return (4.0 * e2 * s - 2.0 * e2) * np.exp(-s)
        u = 1.0 + s
        if self.family is KernelFamily.INVERSE_QUADRATIC:
            return -2.0 * e2 / u**2 + 8.0 * e2 * s / u**3
        return -e2 * u**-1.5 + 3.0 * e2 * s * u**-2.5


def lbo_of_rbf_rows(r_vectors, distances, radial, normal, kappa):
    """Closed-form surface Laplacian of phi over stencil rows (..., M), from ``radial``, the
    values (phi'/r, phi'') at ``distances``.  With c = (r.n)/r, taken as 0 at r = 0, the row is
    (1 + c^2 - kappa r.n) phi'/r + (1 - c^2) phi''.  Leading axes of ``r_vectors``
    (..., M, 3) batch stencils, matched by ``normal`` (..., 3) and ``kappa`` (...).
    The operator weights use it whole, level-set curvature at kappa = 0.
    """
    dphi_over_r, d2phi = radial
    rn = (r_vectors * normal[..., None, :]).sum(axis=-1)
    ratio = np.divide(rn, distances, out=np.zeros_like(distances), where=distances > 0)
    q = ratio * ratio
    return (1.0 + q - np.asarray(kappa)[..., None] * rn) * dphi_over_r + (1.0 - q) * d2phi
