"""Microbenchmarks for the simulator's hot layers.

* **kernel** — :data:`KERNEL_PATTERNS` maps an event-loop pattern to a
  function that runs ``n`` events and returns events/second.  The
  headline is the *sleep chain* (a process doing back-to-back
  ``yield delay`` sleeps), the dominant pattern in the real
  simulations; chain/churn/event/immediate cover the other hot paths.
* **ml** — :func:`bench_ml`: J48 fits/s on a representative curated
  sample set and rows/s through the compiled tree walk, with its
  speedup over the recursive reference walk.

``scripts/check_bench.py`` gates their *relative* claims (fast path
on vs off, compiled vs recursive walk) and ``benchmarks/`` reports the
absolute rates.  End-to-end simulator speed is measured by the
repository benchmark (``repobench/run.py``), which repeats each cell
and reports medians.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict

from repro.sim import Event, Kernel


# ---------------------------------------------------------------------------
# Kernel microbenchmarks (events/second).


def _bench_sleep(n: int) -> float:
    """Headline: back-to-back bare-delay sleeps, one per event."""
    kernel = Kernel()

    def proc():
        for _ in range(n):
            yield 1.0

    kernel.process(proc())
    start = perf_counter()
    kernel.run()
    return n / (perf_counter() - start)


def _bench_chain(n: int) -> float:
    """Sequential timeout objects (the pre-fast-path sleep idiom)."""
    kernel = Kernel()

    def proc():
        for _ in range(n):
            yield kernel.timeout(1.0)

    kernel.process(proc())
    start = perf_counter()
    kernel.run()
    return n / (perf_counter() - start)


def _bench_churn(n: int) -> float:
    """Process churn: spawn/bootstrap/terminate short-lived processes."""
    kernel = Kernel()

    def child():
        yield kernel.timeout(0.5)

    def spawner():
        for _ in range(n):
            yield kernel.process(child())

    kernel.process(spawner())
    start = perf_counter()
    kernel.run()
    return (3 * n) / (perf_counter() - start)


def _bench_event(n: int) -> float:
    """Event signaling: producer/consumer ping-pong via succeed()."""
    kernel = Kernel()
    box = {"ev": None}

    def producer():
        for _ in range(n):
            yield kernel.timeout(0.001)
            ev = box["ev"]
            if ev is not None:
                box["ev"] = None
                ev.succeed(42)

    def consumer():
        for _ in range(n):
            ev = Event(kernel)
            box["ev"] = ev
            yield ev

    kernel.process(producer())
    kernel.process(consumer())
    start = perf_counter()
    kernel.run()
    return (3 * n) / (perf_counter() - start)


def _bench_immediate(n: int) -> float:
    """Same-instant delivery: pre-triggered events yielded in a loop."""
    kernel = Kernel()

    def proc():
        for _ in range(n):
            ev = Event(kernel)
            ev.succeed(1)
            yield ev

    kernel.process(proc())
    start = perf_counter()
    kernel.run()
    return n / (perf_counter() - start)


KERNEL_PATTERNS = {
    "sleep": _bench_sleep,
    "chain": _bench_chain,
    "churn": _bench_churn,
    "event": _bench_event,
    "immediate": _bench_immediate,
}


# ---------------------------------------------------------------------------
# ML microbenchmarks (the per-invocation / per-retrain layer).


def _ml_dataset(n_rows: int, seed: int = 7):
    """A representative curated sample set: mixed numeric and nominal
    features, weighted rows (the §5.3.3 shape the trainer fits)."""
    import numpy as np

    from repro.ml.dataset import Dataset

    rng = np.random.default_rng(seed)
    codecs = ("h264", "vp9", "av1", "mjpeg")
    rows = []
    labels = []
    weights = []
    for _ in range(n_rows):
        size = float(rng.integers(1, 4096))
        sigma = float(rng.uniform(0.0, 8.0))
        rows.append(
            {
                "in_size": size * 1024.0,
                "pixels": size * 210.0,
                "arg_sigma": sigma,
                "codec": codecs[int(rng.integers(0, len(codecs)))],
                "arg_flag": bool(rng.integers(0, 2)),
            }
        )
        labels.append(int(min(127, (size * (1.0 + sigma / 4.0)) // 512)))
        weights.append(3.0 if rng.random() < 0.2 else 1.0)
    return Dataset(rows, labels, weights=weights)


def bench_ml(n_rows: int = 2000, repeats: int = 3) -> Dict[str, float]:
    """J48 train/predict rates plus the compiled-walk speedup."""
    from repro.ml.tree import J48Classifier

    dataset = _ml_dataset(n_rows)
    train_s = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        classifier = J48Classifier().fit(dataset)
        train_s = min(train_s, perf_counter() - start)
    rows = dataset.rows
    predict_s = float("inf")
    recursive_s = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        classifier.predict(rows)
        predict_s = min(predict_s, perf_counter() - start)
        start = perf_counter()
        classifier.predict_recursive(rows)
        recursive_s = min(recursive_s, perf_counter() - start)
    return {
        "rows": n_rows,
        "tree_nodes": classifier.n_nodes,
        "train_rows_per_sec": n_rows / train_s,
        "ml_predict_rows_per_sec": n_rows / predict_s,
        "recursive_rows_per_sec": n_rows / recursive_s,
        "ml_predict_speedup": predict_s and recursive_s / predict_s,
    }
