"""chiprank's benchmark: one seeded workload per run, one process, one thread.

    python3 perfbench/run.py --workload rank-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; chiprank is imported from ``src/``.
Set-up (importing chiprank and generating the seeded inputs) is sampled
in fresh interpreters through the run (see setup_sample.py) and its best
sample reported.  The timed loop runs passes over the workload's
fixed op list, building fresh graphs for each pass so that no cache carries
over, until ``--seconds`` have passed and at least three passes have run.
Every output is checked afterwards: the first pass's outputs by the
workload's oracle, later passes' by equality with the first.

``--trace 0`` reports the end-to-end metrics, with no wrappers installed.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics per pass (see spans.py), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a fuller report (seed, kernel backend, fallbacks, input digest, all
end-to-end metrics including ``fail_frac``).  README.md defines the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, sandpile_parity  # noqa: E402

SETUP_REPEATS = 20
MIN_PASSES = 3  # so that every op's best time is a best of three or more
MAX_LOOP_S = 120.0  # hard stop for the timed loop, whatever else holds
MODULES = ("_backend", "graphs", "dynamics", "rank", "complete", "dyck",
           "strip", "series", "cli")


class Failure:
    """An op that raised; compares unequal to everything."""

    def __init__(self, message: str):
        self.message = message


def load_chiprank(src: Path) -> types.SimpleNamespace:
    """Import chiprank afresh from ``src`` and return its modules."""
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.split(".")[0] == "chiprank"]:
        del sys.modules[name]
    pkg = importlib.import_module("chiprank")
    if Path(pkg.__file__).resolve().parent != (src / "chiprank").resolve():
        raise ImportError(f"chiprank imported from {pkg.__file__}, not from {src}")
    mods = {m: importlib.import_module("chiprank." + m) for m in MODULES}
    return types.SimpleNamespace(chiprank=pkg, **mods)


def sample_setup(name, seed, tiny, workdir, src) -> float:
    """Time one set-up in a fresh interpreter, so that it pays for every
    import as the workload's own process did, whatever this one has loaded."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_sample.py"), str(src), name, str(seed),
         "1" if tiny else "0", str(workdir)],
        capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def run_pass(cr, wl, inputs):
    """One pass over the op list on freshly built graphs.

    Returns the pass's wall time, the outputs (a Failure for each op that
    raised) and the times: graph building first, then one per op.
    """
    start = perf_counter()
    graphs = {k: cr.graphs.MultiGraph(m) for k, m in inputs.graphs.items()}
    times = [perf_counter() - start]
    outs = []
    for op in inputs.ops:
        t0 = perf_counter()
        try:
            out = wl.run(cr, op, graphs)
        except (Exception, SystemExit) as exc:  # a crashed op is a failed op
            out = Failure(f"{type(exc).__name__}: {exc}")
        times.append(perf_counter() - t0)
        outs.append(out)
    return perf_counter() - start, outs, times


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * q // 100) - 1))
    return sorted_values[int(k)]


def count_fallbacks(cr, wl, inputs) -> int:
    """Compiled-to-pure kernel fallbacks in one untimed pass (none are
    possible on the pure backend)."""
    if not cr._backend.COMPILED:
        return 0
    tracer = Tracer()
    tracer.install_fallback_counter(cr)
    try:
        run_pass(cr, wl, inputs)
    finally:
        tracer.uninstall()
    return tracer.counts["kernels.fallbacks"]


def input_digest(inputs, workdir) -> str:
    """SHA-256 of the inputs with the scratch directory's name left out, so
    that a seed's digest is the same on every run and at every commit."""
    return hashlib.sha256(repr(inputs).replace(str(workdir), "").encode()).hexdigest()


def run_workload(name, seed, seconds, trace, *, root, tiny=False):
    """Run one workload; returns (report, result) as printed by main."""
    src = Path(root) / "src"
    wl = WORKLOADS[name]
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        cr = load_chiprank(src)
        inputs = wl.make(random.Random(seed), tiny, workdir)
        # Set-up samples are due at even steps of the run's seconds and taken
        # after the untraced pass in which they fall due (the rest after the
        # loop), so that they span the run as the passes do.
        setup_times = []

        rows, pass_walls, traced_walls = [], [], []
        tracer = Tracer() if trace else None
        first = None
        bad = {}  # op index -> first failure message
        attempted = failed = 0

        def record(outs):
            nonlocal first, attempted, failed
            attempted += len(outs)
            if first is None:
                first = outs
            for i, out in enumerate(outs):
                if isinstance(out, Failure):
                    bad.setdefault(i, out.message)
                    failed += 1
                elif out != first[i]:
                    bad.setdefault(i, "output differs from the first pass")
                    failed += 1

        start = perf_counter()
        while True:
            wall, outs, times = run_pass(cr, wl, inputs)
            pass_walls.append(wall)
            rows.append(times)
            record(outs)
            while (len(setup_times) < SETUP_REPEATS and perf_counter() - start
                   >= len(setup_times) * seconds / SETUP_REPEATS):
                setup_times.append(sample_setup(name, seed, tiny, workdir, src))
            if tracer is not None:
                tracer.install(cr)
                try:
                    wall, outs, _ = run_pass(cr, wl, inputs)
                finally:
                    tracer.uninstall()
                traced_walls.append(wall)
                record(outs)
            elapsed = perf_counter() - start
            if elapsed >= MAX_LOOP_S or (elapsed >= seconds and len(rows) >= MIN_PASSES):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(sample_setup(name, seed, tiny, workdir, src))

        # oracles, outside the timed loop; an op whose first output fails
        # its oracle fails on every pass
        passes = attempted // len(inputs.ops)
        for i, (op, out) in enumerate(zip(inputs.ops, first)):
            if i in bad:
                continue
            try:
                err = wl.check(cr, op, inputs.graphs, out)
            except Exception as exc:  # noqa: BLE001 - a crashed oracle fails the op
                err = f"oracle raised {type(exc).__name__}: {exc}"
            if err:
                bad[i] = err
                failed += passes
        parity = sandpile_parity(cr, inputs) if name == "sandpile" else []
        fallbacks = (tracer.counts["kernels.fallbacks"] / len(traced_walls)
                     if tracer is not None else count_fallbacks(cr, wl, inputs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Each step's time, and set-up's, is its best across the run's samples.
    # Other processes on a shared machine only ever slow a step down, and
    # they do so in bursts that can last seconds, so the best of several
    # samples reads the program's own speed where the median reads how busy
    # the machine was.
    ops = len(inputs.ops)
    best = [min(col) for col in zip(*rows)]
    latencies = sorted(best[1:])
    e2e = {
        "ops_per_s": (ops / sum(best), "ops/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1000, "ms"),
        "fail_frac": (failed / attempted, "ratio"),
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    if tracer is not None:
        layer = tracer.metrics(len(traced_walls), sum(traced_walls))
        layer["trace.overhead"] = (
            statistics.median(traced_walls) / statistics.median(pass_walls), "ratio")
        shown = layer
    else:
        shown = {k: v for k, v in e2e.items() if k != "fail_frac"}
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "backend": "compiled" if cr.chiprank.COMPILED_KERNELS else "pure",
        "kernels.fallbacks": fallbacks,
        "inputs_sha256": input_digest(inputs, workdir),
        "ops_per_pass": ops,
        "passes": len(pass_walls),
        "latency_samples": len(latencies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "failures": {str(i): msg for i, msg in sorted(bad.items())[:10]},
        "kernel_parity_mismatches": parity,
    }
    result = {
        "correct": failed == 0 and not parity,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "chiprank" / "__init__.py").is_file():
        print(f"error: no chiprank source under {root / 'src'}; run from a "
              "checkout's root", file=sys.stderr)
        return 2
    try:
        report, result = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, root=root)
    except (ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
