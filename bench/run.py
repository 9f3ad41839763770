"""Benchmark of ``planereg``: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload train-paper --seed 1 --seconds 20 --trace 0

A run sets the workload up ``SETUP_REPS`` times (each time generating its
phantoms in a child process and loading them), runs one warm-up operation,
then repeats the workload's operation in a closed loop for ``--seconds``
seconds and checks every kept output against independent computations.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics: the loop then
runs once untraced and once traced, the difference of their median
operation times is the tracing overhead, and the spans are written to
``.bench_work/spans-<workload>-<seed>.jsonl``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: toy inputs for the benchmark's own tests")
    return p.parse_args(argv)


class Loop:
    """Outcome of one closed loop of operations."""

    def __init__(self, wl, seconds: float, tracer=None):
        self.latencies: list[float] = []
        self.failed = 0
        self.volumes = 0
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.request = f"op{i}"
                root = tracer.begin("bench.op")
            t0 = time.perf_counter()
            try:
                self.volumes += wl.op(i)
            except Exception:  # a failed operation is counted, and the loop goes on
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
            self.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end(root)
            i += 1
        self.elapsed = time.perf_counter() - start

    @property
    def attempted(self) -> int:
        return len(self.latencies)


class _Traced:
    """Context that installs ``tracer`` (if any) under a root span for ``request``."""

    def __init__(self, tracer, request: str):
        self.tracer, self.request = tracer, request

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()
            self.tracer.request = self.request
            self.root = self.tracer.begin(f"bench.{self.request}")

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.end(self.root)
            self.tracer.uninstall()
        return False


def _generate(args, rep_dir: str):
    """Run the generation child for one set-up and wait for it: returns (generated, spans)."""
    result_path = rep_dir + ".pickle"
    cmd = [sys.executable, os.path.join(HERE, "generate.py"), args.workload, str(args.seed), args.scale,
           rep_dir, str(args.trace), result_path]
    # subprocess.run waits for the child, and kills and reaps it on any exception
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    with open(result_path, "rb") as fh:
        return pickle.load(fh)


def _program_counters() -> dict[str, int]:
    from planereg import augmentation, loss_metrics, volume

    return {
        "volume.interp_passes": volume.interpolation_call_count(),
        "augmentation.out_of_cube": augmentation.out_of_cube_count(),
        "loss_metrics.degenerate_normals": loss_metrics.degenerate_normal_count(),
    }


def run(args, run_dir: str) -> dict:
    import per_layer
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, run_dir)
    tracer = Tracer(wl.channels) if args.trace else None

    t_start = time.perf_counter()
    setup_s = []
    for rep in range(SETUP_REPS):
        rep_dir = os.path.join(run_dir, f"setup{rep}")
        t0 = time.perf_counter()
        with _Traced(tracer, f"setup{rep}"):
            generated, child_spans = _generate(args, rep_dir)
            if tracer is not None:
                tracer.adopt(child_spans)
            wl.setup(rep_dir, generated)
        setup_s.append(time.perf_counter() - t0)

    t_warmup = time.perf_counter()
    with _Traced(tracer, "warmup"):
        wl.warmup()
    t_loop = time.perf_counter()
    loop = Loop(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loops = [loop]
    if tracer is not None:
        before = _program_counters()
        tracer.install()
        try:
            traced = Loop(wl, args.seconds, tracer)
        finally:
            tracer.uninstall()
        after = _program_counters()
        loops.append(traced)
    t_verify = time.perf_counter()
    wl.verify()
    for failure in wl.check.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"{args.workload}: set-up {t_warmup - t_start:.1f} s, warm-up {t_loop - t_warmup:.1f} s, "
          f"loops {t_verify - t_loop:.1f} s, checks {time.perf_counter() - t_verify:.1f} s", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "op_latency_ms_p50": (1e3 * statistics.median(loop.latencies), "ms"),
            "volumes_per_s": (loop.volumes / loop.elapsed, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        ops = traced.attempted
        counts = {name: (after[name] - before[name]) / ops for name in after}
        counts["model.checkpoint_bytes"] = wl.checkpoint_bytes
        overhead = 100.0 * (statistics.median(traced.latencies) / statistics.median(loop.latencies) - 1.0)
        values = per_layer.derive(tracer.spans, counts, overhead)
        metrics = {name: (v, per_layer.unit(name)) for name, v in values.items()}
        os.makedirs(WORK, exist_ok=True)
        tracer.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"))
    return {
        "correct": not wl.check.failures,
        "attempted": sum(lp.attempted for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import planereg  # noqa: F401
    except ImportError as exc:
        print(f"cannot import planereg from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        result = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
