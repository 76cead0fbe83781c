"""A fixed reference computation that measures how fast the machine is now.

On a shared host the CPU time of identical work drifts with what the
neighbours do (cache and core sharing), by up to 2x between minutes.
The benchmark runs a ``Reference`` after every operation and divides each
operation's time by the current reference time over its nominal value,
so that its timings read as on the host at nominal speed.  The reference
uses none of the package's code, so no change to the package moves it.

The in-process work mix resembles the package's interpreted kernels: cyclic Jacobi
rotations written as Python loops over numpy elements, with a fixed
number of rotations (no convergence test, no skipped pairs), so every
call does the same work.
"""

import resource
import subprocess
import sys
import time

import numpy as np

N = 12
SWEEPS = 8
# CPU seconds of the in-process and of the child reference on an idle
# 2-vCPU host (Python 3.11, numpy 2.4, one BLAS thread): the scale of
# normalized timings.  Any fixed value would do; runs are compared with runs.
NOMINAL_S = 0.015
NOMINAL_CHILD_S = 0.17


def _matrix():
    i = np.arange(N, dtype=float)
    return 1.0 / (1.0 + np.abs(i[:, None] - i[None, :])) + np.diag(i)


_A = _matrix()


def _sweeps(a):
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(SWEEPS):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q] + 1e-3  # never zero, so every pair rotates
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                for k in range(n):
                    akp = a[k, p]
                    akq = a[k, q]
                    a[k, p] = c * akp - s * akq
                    a[k, q] = s * akp + c * akq
                for k in range(n):
                    vkp = v[k, p]
                    vkq = v[k, q]
                    v[k, p] = c * vkp - s * vkq
                    v[k, q] = s * vkp + c * vkq
    return v


class Reference:
    """One fixed reference computation; calling it returns its CPU seconds.

    In process (``child=False``): Jacobi rotations on a fixed matrix.  As a
    child process (``child=True``): interpreter start and ``import numpy``,
    the fixed part of every command-line call, for workloads whose
    operations are child processes.
    """

    def __init__(self, child):
        self.kind = "child" if child else "in-process"
        self.nominal = NOMINAL_CHILD_S if child else NOMINAL_S

    def __call__(self):
        if self.kind == "in-process":
            t0 = time.process_time()
            _sweeps(_A.copy())
            return time.process_time() - t0
        t0 = _children_cpu()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return _children_cpu() - t0


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime
