"""Reference clock: rescales measured times to one fixed machine speed.

The host this benchmark is meant for shares its cores, and its effective
speed drifts by up to 1.6x over seconds to minutes, which moves every
wall-clock figure with it.  So the benchmark times a fixed chunk of
pure-Python work (`chunk`) next to the work it measures, and reports each
time as it would read on a machine that runs the chunk in `NOMINAL_S`:

    reported = measured * NOMINAL_S / (chunk time measured nearby)

The chunk touches nothing of latred, so a change to the program moves the
reported times exactly as it moves the measured ones; only the machine's
own speed is divided out.  The raw wall-clock figures are printed beside
the rescaled ones.
"""

import statistics
import time

NOMINAL_S = 250e-6  # chunk time at the reference speed (about this host's median)


def chunk():
    """Seconds taken by one fixed chunk of integer and dict work."""
    t0 = time.perf_counter()
    s = 0
    d = {}
    for i in range(2000):
        s += (i * i) % 7
        d[i & 15] = s
    return time.perf_counter() - t0


def sample(k=3):
    """Median of k chunks: one reading of the machine's current speed."""
    return statistics.median(chunk() for _ in range(k))


def rescale(times, keys, refs, half_window):
    """Each times[i] rescaled by the median of refs around refs[keys[i]].

    refs is the sequence of chunk readings taken during a run, keys[i] the
    index of the reading taken just before times[i]; the local speed is the
    median of the readings within half_window positions either side.
    """
    local = {}
    out = []
    for t, k in zip(times, keys):
        if k not in local:
            lo, hi = max(0, k - half_window), k + half_window + 1
            local[k] = statistics.median(refs[lo:hi])
        out.append(t * NOMINAL_S / local[k])
    return out
