"""Fixed reference work that measures how fast the host runs right now.

    python3 perfbench/probe.py

It imports numpy and scipy and runs interpreted loops over small numpy
arrays, the same mix of work as a ``ris-sim`` command, in about one second.
It never imports ris_sim, so no change to the program can change its time.
``run.py`` times it before every pass and scales the pass's times by it.
"""

import numpy as np
import scipy.integrate  # noqa: F401  (the import ris_sim makes too)

rng = np.random.default_rng(0)
total = 0.0
for _ in range(3000):
    a = rng.random(200)
    total += float(np.sum(np.hypot(a, a[::-1]) ** 1.5))
    total += sum(j * j for j in range(60)) * 1e-9
print(total)
