"""A fixed reference loop that tracks the speed the shared machine gives us.

On a shared host the CPU time of identical work moves by a quarter or more
over minutes, as neighbours come and go. ``reference_loop`` runs no stampseg
code: interpreter arithmetic, small numpy operations and a stream over two
megabytes, the three kinds of work the measured code does. A benchmark run
times it between its samples and rescales each time it reports to
``REFERENCE_S``, the loop's nominal CPU time, so that a figure reads the same
whether the machine was fast or slow during the run. A change to stampseg
does not move the loop, so it moves the rescaled figures in full.
"""

import statistics
import time

import numpy as np

# Nominal CPU time of one reference_loop() call: a round figure near its
# median (8 to 10 ms) on a 2-vCPU x86-64 container. It sets the scale of the
# rescaled figures and nothing else.
REFERENCE_S = 0.010


def reference_loop():
    """CPU seconds of one pass of the fixed loop."""
    start = time.process_time()
    acc = 0
    for i in range(40_000):
        acc += i * i
    small = np.ones((300, 32))
    for _ in range(200):
        small = small * 1.0001 + 0.5
    big = np.ones(1 << 18)
    for _ in range(24):
        big += 1.0
    return time.process_time() - start


def slowdown(references):
    """How much slower than nominal the machine ran: median reference time / REFERENCE_S."""
    return statistics.median(references) / REFERENCE_S
