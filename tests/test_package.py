"""The package's public names: every name in ``rbfsurf.__all__`` exists, and the
dataclasses that hold arrays compare by identity."""

import numpy as np

import rbfsurf
from rbfsurf.kernels import Kernel, KernelFamily
from rbfsurf.lbo import StencilGeometry
from rbfsurf.nodesets import Stencil
from rbfsurf.pde import RdState, SchaefferParams, SchaefferRun, StimulusSpec
from rbfsurf.spectrum import SpectrumReport
from rbfsurf.surface_geom import LevelSetFit, SurfaceFrame


def test_every_exported_name_resolves():
    missing = [name for name in rbfsurf.__all__ if not hasattr(rbfsurf, name)]
    assert missing == []
    assert len(set(rbfsurf.__all__)) == len(rbfsurf.__all__)


def test_star_import():
    namespace = {}
    exec("from rbfsurf import *", namespace)
    assert set(rbfsurf.__all__) <= set(namespace)


def test_array_dataclasses_compare_by_identity():
    # a generated __eq__ would compare tuples of arrays, which have no truth value
    def make():
        stimulus = StimulusSpec(1.0, np.array([0.0, 0.0, 1.0]), 0.5)
        return [SurfaceFrame(np.eye(3), np.ones(3)),
                LevelSetFit(np.ones(3), 0.0, np.zeros((3, 3)), Kernel(KernelFamily.GAUSSIAN, 2.0),
                            1.0),
                Stencil(0, np.arange(1, 3), np.ones(2)),
                StencilGeometry(np.zeros((3, 3)), np.array([0.0, 0.0, 1.0]), 1.0),
                stimulus, RdState(np.ones((2, 3)), 0.0),
                SpectrumReport(np.ones(2), 0.0, 0.0, (), False),
                SchaefferRun([], np.ones(2), np.ones(2), np.ones(2), SchaefferParams(), stimulus)]

    for a, b in zip(make(), make()):
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert hash(a) == hash(a) and len({a, b}) == 2
