"""Measurements that sit beside the workloads: a per-call kernel sweep,
source-size counters and the run record."""

import os
import platform
import statistics
import subprocess
import time

import numpy as np

from ppsim import core, prep

SWEEP_SPINS = (2, 3, 4)
SWEEP_BLOCKS = 7
SWEEP_BLOCK_S = 0.01
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def per_call_us(fn) -> float:
    """Median over blocks of the mean call time, in microseconds."""
    t0 = time.perf_counter()
    fn()
    calls = max(1, int(SWEEP_BLOCK_S / max(time.perf_counter() - t0, 1e-9)))
    blocks = []
    for _ in range(SWEEP_BLOCKS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        blocks.append((time.perf_counter() - t0) / calls)
    return statistics.median(blocks) * 1e6


def kernel_sweep(seed: int) -> dict:
    """Per-call cost of the solver's kernels on n-spin homonuclear cascades.

    This is the only 4-spin figure: no workload can run at 4 spins while the
    solver finds no 4-spin roots.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for n in SWEEP_SPINS:
        system = core.SpinSystem(gamma=(1.0,) * n)
        spec = prep.default_cascade(n, 1)
        angles = rng.uniform(0.0, 360.0, len(spec.steps))
        pulses = [((s.m, s.k), "x", a) for s, a in zip(spec.steps, np.radians(angles))]
        H = core.generator(pulses, n)
        out[f"core.generator.n{n}_us"] = per_call_us(lambda: core.generator(pulses, n))
        out[f"core.expm_unitary.n{n}_us"] = per_call_us(lambda: core.expm_unitary(H))
        out[f"prep.residual.n{n}_us"] = per_call_us(lambda: prep.residual(angles, system, spec))
    return out


def source_lines(package_dir) -> dict:
    """Non-blank, non-comment lines per module of the package, and their sum."""
    out = {}
    for path in sorted(package_dir.glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        lines = path.read_text(encoding="utf-8").splitlines()
        out[f"{name}.sloc"] = sum(1 for ln in lines if ln.strip() and not ln.lstrip().startswith("#"))
    out["src.sloc"] = sum(out.values())
    return out


def _git_commit(root) -> str:
    git_dir = root / ".git"
    if not git_dir.exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def run_record(root, args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
