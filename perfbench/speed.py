"""The host-speed probe shared by the harness and its child processes."""

import time
from fractions import Fraction

REF_PROBE_S = 0.02      # probe duration that defines the reference host speed


def probe():
    """Time a fixed slice of pure-Python work (int, Fraction and dict
    traffic, like the program's) to read the host's current speed.

    On a shared host (measured on a 2-CPU virtual machine) the speed
    swings by up to 1.6x in phases lasting seconds, because of other
    tenants.  Every reported time is scaled by REF_PROBE_S over the
    probes taken on the same CPU around it, so it reads as seconds at one
    reference speed; raw times are printed beside."""
    t0 = time.perf_counter()
    s = 0
    for k in range(60000):
        s += k * k % 7
    f = Fraction(0)
    for k in range(1, 300):
        f += Fraction(1, k)
    d = {}
    for k in range(60000):
        d[k % 97] = d.get(k % 97, 0) + k
    return time.perf_counter() - t0
