"""Machine-speed sampling, so that end-to-end times do not move with the host.

The benchmark runs on shared virtual machines whose effective CPU speed
switches between regimes (about 1.45x apart on a 2-vCPU x86-64 VM) every few
seconds, and stays in one regime for tens of seconds at a time.  Timings of
identical work therefore spread by 15-40% across runs.  To measure the
program rather than the host, a fixed calibration kernel (small complex
matrix products, two eigendecompositions and a pure-Python loop, a mix like
ppsim's own work) runs in a SIGALRM handler every INTERVAL_S of wall time.
Its duration gives the machine's speed at that moment, and a measured
interval is rescaled to the reference speed, at which the kernel takes
REF_KERNEL_S:

    rescaled = sum over the interval's slices of  length * REF_KERNEL_S / kernel

where each slice runs from the end of one handler call to the start of the
next and ``kernel`` is the median of the WINDOW kernel timings around it.
The handler runs the kernel twice and times the second call, so that the
timing depends less on which caches the program has just evicted.  Time
spent in the handler is left out.  A program that does less work or
faster work gets a proportionally smaller rescaled time; a host that runs
everything slower does not.  The rescaling assumes that the program keeps
one thread busy, as ppsim does: busy threads of the program's own would slow
the kernel too and hide their cost.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.04
REF_KERNEL_S = 400e-6  # near the kernel's median on a 2-vCPU x86-64 VM
WINDOW = 5  # kernel timings per speed estimate, about 0.2 s of wall time

_rng = np.random.default_rng(20000)
_MATRICES = [a + a.conj().T for a in
             (_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8)) for _ in range(4))]


def kernel() -> None:
    """Mostly small-matrix numpy calls, whose cost is dominated by call
    overhead, as in ppsim; of the kernels tried, this mix follows ppsim's
    slowdowns most closely."""
    for _ in range(8):
        for h in _MATRICES:
            np.trace(h @ _MATRICES[0])
            np.zeros((8, 8), dtype=complex)
    for h in _MATRICES[:2]:
        np.linalg.eigh(h)
    acc = {}
    for i in range(100):
        acc[i % 17] = acc.get(i % 17, 0) + i


class SpeedSampler:
    """Samples the kernel's duration while active, as a context manager."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self.took = []
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a Python-level handler can be re-entered
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()  # untimed: refills the caches the program has just used
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t2)
        self.took.append(t2 - t1)
        self._busy = False

    def __enter__(self):
        for _ in range(20):
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._freeze()
        return False

    def _freeze(self) -> None:
        if not self.starts:
            raise RuntimeError("the speed sampler took no samples")
        starts, ends, took = np.array(self.starts), np.array(self.ends), np.array(self.took)
        half = WINDOW // 2
        padded = np.pad(took, half, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, WINDOW), axis=1)
        # slice i runs from the end of handler call i-1 to the start of call i;
        # the slice after the last call uses the last estimate
        self._slice_lo = np.concatenate(([-np.inf], ends))
        self._slice_hi = np.concatenate((starts, [np.inf]))
        self._scale = REF_KERNEL_S / np.concatenate((smooth, smooth[-1:]))

    def rescaled(self, t0: float, t1: float) -> float:
        """Program time in [t0, t1], rescaled to the reference speed."""
        first = int(np.searchsorted(self._slice_hi, t0, side="right"))
        last = int(np.searchsorted(self._slice_lo, t1, side="left"))
        lo = np.maximum(self._slice_lo[first:last], t0)
        hi = np.minimum(self._slice_hi[first:last], t1)
        return float(np.sum(np.clip(hi - lo, 0.0, None) * self._scale[first:last]))

    @property
    def samples(self) -> int:
        return len(self.took)

    @property
    def median_kernel_s(self) -> float:
        return float(np.median(self.took))
