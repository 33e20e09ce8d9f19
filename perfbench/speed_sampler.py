"""Sample how fast the host CPU runs a fixed minibatch step, four times a second.

Usage: python3 perfbench/speed_sampler.py <thread id, or 0>

Before each sample the sampler pins itself to the CPU that the given thread
last ran on (with 0, to each allowed CPU in turn), so it measures the CPU the
timed work is using.  A sample is the CPU time per pass of a forward and
backward pass of a small NumPy MLP, the kind of work a training step does.
When stdin closes it prints one "<perf_counter> <seconds per pass>" line per
sample and exits.  perf_counter is CLOCK_MONOTONIC, shared with the parent.
"""

import os
import select
import sys
import time

import numpy as np

PERIOD_S = 0.25
PASSES = 50  # ~3 ms at full speed: under 2 % of the sampled CPU

_rng = np.random.default_rng(0)
X = _rng.normal(size=(32, 16))
W1 = _rng.normal(size=(16, 32)) * 0.1
W2 = _rng.normal(size=(32, 32)) * 0.1
W3 = _rng.normal(size=(32, 20)) * 0.1
ROWS = np.arange(32)
Y = _rng.integers(0, 20, 32)


def seconds_per_pass() -> float:
    t0 = time.thread_time()
    for _ in range(PASSES):
        h1 = np.maximum(X @ W1, 0.0)
        h2 = np.maximum(h1 @ W2, 0.0)
        z = h2 @ W3
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[ROWS, Y] -= 1.0
        d2 = (p @ W3.T) * (h2 > 0)
        d1 = (d2 @ W2.T) * (h1 > 0)
        np.concatenate([(X.T @ d1).ravel(), (h1.T @ d2).ravel(), (h2.T @ p).ravel()])
    return (time.thread_time() - t0) / PASSES


def cpu_of(tid: int) -> int | None:
    try:
        with open(f"/proc/{tid}/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def main() -> None:
    tid = int(sys.argv[1])
    cpus = sorted(os.sched_getaffinity(0))
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        cpu = cpu_of(tid) if tid else None
        if cpu not in cpus:
            cpu = cpus[len(samples) % len(cpus)]
        os.sched_setaffinity(0, {cpu})
        samples.append((time.perf_counter(), seconds_per_pass()))
    print("\n".join(f"{t!r} {s!r}" for t, s in samples))


if __name__ == "__main__":
    main()
