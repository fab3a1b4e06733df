"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pentagon --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``;
its native GF kernels are built once into ``.bench_build/`` before any
timing starts.  A workload names the code its storage service runs;
every run sets up, then repeats rounds until ``--seconds`` are spent:
the service's read, repair, degraded-read and write steps
(``service_loads.py``), then one pass of the paper's sweeps
(``sweeps.py``).  Human-readable lines (checks, operations per kind, the host's
steal share, metrics with units) come first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end
metrics; with ``--trace 1`` they are the per-layer metrics from the
spans, and the end-to-end numbers measured under tracing are printed
on the line before, prefixed ``e2e-under-trace``, so the tracing
overhead can be read against an untraced run (``steady.py
overhead``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("pentagon", "heptagon")
#: Seconds of the read and of the write window of each round.
READ_S = 2.0
WRITE_S = 1.5

#: CPU time of one :func:`reference_cpu_s` loop on the reference host
#: (the 2-vCPU virtual machine the benchmark was built on) in a quiet
#: minute.  The CPU-time metrics are reported at that host speed.
NOMINAL_S = 0.0625
SCALED = ("read_cpu_us", "degraded_read_cpu_us", "write_cpu_ms_per_mb",
          "repair_cpu_ms_per_mb", "sweep_cpu_s")


def reference_cpu_s() -> float:
    """CPU time of the calling thread for a fixed loop of interpreter
    and small-array NumPy work, the mix the program spends its time in;
    median of 3.

    The host's CPU time for identical code moves by a quarter and more
    from one minute to the next (other guests share its cores and
    caches), and every CPU-time metric moves with it.  The loop is
    benchmark code only, so no change to the program can move it; the
    run times it before set-up and after every round, while the
    cluster idles, and scales the CPU-time metrics by ``NOMINAL_S``
    over the median.
    """
    import numpy as np

    times = []
    for _ in range(3):
        start = time.thread_time()
        total = 0
        table = {}
        for i in range(300_000):
            total += i * i % 7
            table[i & 1023] = total
        values = np.arange(4096)
        for _ in range(2000):
            values = (values * 3 + 1) % 1009
        times.append(time.thread_time() - start)
    return sorted(times)[1]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spans(tracer, spans_dir: Path) -> list:
    """The benchmark's spans plus those of the measured cluster's
    datanodes (the last set-up's), read back from their files.  Datanode
    spans that started before the tracer's last reset (the prefill) are
    dropped."""
    tracer.dump(spans_dir / "benchmark.json")
    spans = list(tracer.spans)
    clusters = sorted(spans_dir.glob("cluster*"))
    if clusters:
        for path in sorted(clusters[-1].glob("*.json")):
            spans.extend(tuple(span) for span in json.loads(path.read_text())
                         if span[4] >= tracer.since)
    return spans


def _host_cpu() -> tuple[int, int] | None:
    """Steal and total CPU time of the host so far (``/proc/stat``), or
    None where there is no such file.  Steal is time the hypervisor gave
    the vCPUs to other guests: a noise source no program change moves."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def main(argv=None) -> int:
    args = _parse(argv)
    # A terminated run still closes its cluster (and so its datanodes).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    # Child processes (datanodes, set-up probes, the C compiler)
    # inherit these, so nothing is written outside the checkout.
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "repro-native")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ.pop("REPRO_WORKERS", None)
    sys.path[:0] = [str(src), str(HERE)]

    from repro.gf import kernels

    kernels.native_available()      # first-use compile, outside all timing
    import service_loads
    import sweeps

    cpu_before = _host_cpu()
    reference = [reference_cpu_s()]
    # The sweeps' set-up is timed in fresh interpreters before any
    # cluster is up, then done once here, before any wrapper is
    # installed, so its first-use builds are not traced.
    sweep_setup_s = sweeps.set_up_median()
    sweeps.set_up()

    tracer = spans_dir = None
    if args.trace:
        from tracing import Tracer, install_client

        tracer = Tracer()
        spans_dir = BUILD / "spans" / args.workload
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        install_client(tracer)
    service = service_loads.Service(args.workload, args.seed, spans_dir)
    try:
        if tracer is not None:
            tracer.reset()
        sweep = sweeps.Sweeps(tracer)
        start = time.perf_counter()
        while not sweep.pass_cpu or time.perf_counter() - start < args.seconds:
            service.round(READ_S, WRITE_S)
            sweep.one_pass()
            reference.append(reference_cpu_s())
        service_metrics, info = service.finish()
    finally:
        service.close()
    swept = sweep.finish()
    cpu_after = _host_cpu()

    checks = {**service.checks, **swept["checks"]}
    ops = {**service.ops, **swept["ops"]}
    e2e = {
        "setup_s": (service.setup_s + sweep_setup_s, "s"),
        **service_metrics, **swept["metrics"],
        "peak_rss_mb": (service.datanode_rss_mb
                        + service_loads.vmhwm_mb(), "MB"),
    }
    scale = NOMINAL_S / statistics.median(reference)
    print("reference loop CPU s: "
          + " ".join(f"{t:.4f}" for t in reference))
    for name in SCALED:
        value, unit = e2e[name]
        print(f"raw {name} = {value:.6g} {unit} (before host-speed scaling)")
        e2e[name] = (value * scale, unit)
    print(f"rounds: {service.rounds}")
    for claim, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {claim}")
    for kind, (attempted, failed) in ops.items():
        print(f"ops {kind}: attempted {attempted}, failed {failed}")
    if cpu_before and cpu_after:
        steal, total = (after - before for before, after
                        in zip(cpu_before, cpu_after))
        print(f"host steal: {100.0 * steal / max(total, 1):.2f} % "
              "of CPU time during the run")
    for name, (value, unit) in info.items():
        print(f"info {name} = {value:.6g} {unit} (median over rounds, "
              "not gated)")
    metrics = {name: {"value": float(value), "unit": unit}
               for name, (value, unit) in e2e.items()}
    if tracer is not None:
        from tracing import layer_metrics

        print("e2e-under-trace " + json.dumps(metrics))
        metrics = layer_metrics(
            _spans(tracer, spans_dir), passes=swept["passes"],
            stripes_written=len(service.written),
            replans=service.replans,
            repair_excess_blocks=swept["repair_excess_blocks"])
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": sum(attempted for attempted, _ in ops.values()),
        "failed": sum(failed for _, failed in ops.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
