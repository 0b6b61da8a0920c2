"""The kernel scratch arena hands each thread its own buffers.

``repro serve --workers N`` runs simulations on several threads, and
NumPy releases the GIL inside the kernels; a process-wide arena would
let two concurrent simulations overwrite each other's temporaries.
"""

import threading

import numpy as np

from repro.hw.cxl.kernels import _SCRATCH


def test_threads_never_share_scratch_buffers():
    taken = {}

    def take(name):
        taken[name] = (
            _SCRATCH.take("probe", (64,)),
            _SCRATCH.zeros("probe.zeros", (8, 8)),
        )

    for name in ("a", "b"):
        thread = threading.Thread(target=take, args=(name,))
        thread.start()
        thread.join()
    for left, right in zip(taken["a"], taken["b"]):
        assert not np.shares_memory(left, right)


def test_one_thread_reuses_its_buffers():
    first = _SCRATCH.take("probe.reuse", (32,))
    again = _SCRATCH.take("probe.reuse", (16,))
    assert np.shares_memory(first, again)
