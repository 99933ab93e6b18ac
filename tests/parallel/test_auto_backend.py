"""Backend parsing after the ``auto`` value was retired.

``auto`` once picked the event or the reference simulator per cell; the
heuristic and its ``sim.backend.auto`` counter are gone, and so is the
simulator's own ``REPRO_SIM`` switch: :func:`sim_backend` follows
``REPRO_KERNEL``.  What stays pinned here is that any other setting, the
retired value included, is rejected loudly rather than silently falling
back to a default.
"""

from __future__ import annotations

import pytest

from repro.paging.kernel import KERNEL_ENV
from repro.parallel.events import sim_backend


class TestSimBackendParsing:
    def test_invalid_setting_still_rejected(self, monkeypatch):
        for value in ("adaptive", "auto"):
            monkeypatch.setenv(KERNEL_ENV, value)
            with pytest.raises(ValueError, match="REPRO_KERNEL"):
                sim_backend()
