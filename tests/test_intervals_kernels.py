"""The Newton-kernel contract the batch HPD solver and profilers rely on.

:mod:`repro.intervals.kernels` holds the one NumPy Newton loop.
``hpd_bounds_batch`` must reach it through
``type(active_kernel()).newton_interior``, the hook a profiler patches
to count Newton calls and rows.
"""

from __future__ import annotations

import numpy as np

from repro.intervals import hpd_bounds_batch
from repro.intervals.kernels import NumpyKernel, active_kernel


class TestRegistry:
    def test_numpy_kernel_is_a_singleton(self):
        kernel = active_kernel()
        assert active_kernel() is kernel
        assert isinstance(kernel, NumpyKernel)
        assert kernel.name == "numpy"


class TestAmbientSelection:
    def test_hpd_bounds_flow_through_the_ambient_kernel(self, monkeypatch):
        kernel = active_kernel()
        original = NumpyKernel.newton_interior
        calls: list[int] = []

        def counting(self, a, b, alpha):
            calls.append(len(a))
            return original(self, a, b, alpha)

        monkeypatch.setattr(type(kernel), "newton_interior", counting)
        a = np.array([3.5, 12.0, 80.5, 0.5])
        b = np.array([2.5, 4.0, 20.5, 3.0])  # last row: decreasing, no Newton
        hpd_bounds_batch(a, b, 0.05)
        assert calls == [3]
