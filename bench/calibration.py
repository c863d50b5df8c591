"""Machine-speed calibration for timings taken on a shared, noisy host.

On the 2-core VM this benchmark was built on, the same fixed work ran up
to 1.6x slower from one second to the next, because other tenants share
the host. A fixed reference kernel that does not use the engine is timed
between short chunks of engine work; each chunk's timings are then
scaled by ``NOMINAL_NS`` over the reference time measured around it. The
scaled timings read as if the machine ran at the speed at which the
kernel takes ``NOMINAL_NS``. An engine that gets faster or slower moves
the scaled timings in full, because the kernel's cost does not depend on
the engine.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_NS = 1_000_000  # the kernel's time on an idle host of that VM type
CHUNK_NS = 25_000_000  # engine work timed between two kernel runs

# inputs are built once, so the kernel itself allocates little
_KEYS = [((i * 7919) % 1009, i % 13, float(i % 101)) for i in range(1500)]
_VALUES = np.random.default_rng(0).random(2000)


def reference_ns() -> int:
    """Time one run of the kernel: dict updates, tuple sorting, type tests
    and a small numpy sort and scan, the mix the engine's paths use."""
    t0 = time.perf_counter_ns()
    counts: dict = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(_KEYS)
    sum(1 for k in ordered if isinstance(k[2], float) and not isinstance(k[0], bool))
    order = np.argsort(_VALUES, kind="stable")
    np.cumsum(_VALUES[order])
    return time.perf_counter_ns() - t0
