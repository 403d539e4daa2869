"""Shared fixtures: node sets and operators reused across test modules.

The expensive objects (1000-node sphere, assembled operator) are session
scoped; tests must not mutate them.
"""

from pathlib import Path

import numpy as np
import pytest

from rbfsurf.kernels import Kernel, KernelFamily
from rbfsurf.lbo import assemble_operator
from rbfsurf.nodesets import gen_sphere_nodes, load_nodes, unit_sphere
from rbfsurf.surface_geom import analytic_frames

DATA_DIR = Path(__file__).parent / "data"


def closed_form_phi(kernel, r):
    """phi as one expression per family, each step a fresh array: the oracle
    for the in-place evaluation that ``Kernel.phi`` and the local solves use."""
    s = (kernel.epsilon * r) ** 2
    if kernel.family is KernelFamily.GAUSSIAN:
        return np.exp(-s)
    if kernel.family is KernelFamily.INVERSE_QUADRATIC:
        return 1.0 / (1.0 + s)
    return 1.0 / np.sqrt(1.0 + s)


def repulsion_nodes(n):
    """Pregenerated seed-0 repulsion node set.

    The files are the output of the dense all-pairs Riesz-2 descent that
    ``gen_sphere_nodes(method="repulsion")`` ran up to commit 945629a; the
    nearest-neighbor relaxation that replaced it gives different points.
    """
    return load_nodes(DATA_DIR / f"sphere_repulsion_{n}.txt")


@pytest.fixture(scope="session")
def sphere1000():
    return gen_sphere_nodes(1000)


@pytest.fixture(scope="session")
def sphere1000_frames(sphere1000):
    return analytic_frames(unit_sphere(), sphere1000.points)


@pytest.fixture(scope="session")
def sphere1000_op(sphere1000, sphere1000_frames):
    """M=31, eps=2 operator on the 1000-node sphere with exact frames."""
    return assemble_operator(sphere1000, sphere1000_frames, 31, Kernel(KernelFamily.GAUSSIAN, 2.0))
