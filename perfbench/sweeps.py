"""The sweep step of a run: the paper's experiments, serially.

One pass regenerates Fig. 3 (all four panels), Fig. 4, Fig. 5,
Table 1 with its Monte-Carlo validation, the repair-bandwidth
measurement and the polygon-local families, checks the pentagon-local
chain's lumped states against every failure mask, then plans a node repair
for every tolerated failure pattern of every registry code plus
``pentagon-local(3g,2p)``.  No service layer runs in it.

The experiments use the paper's own fixed seeds (their shape checks
are claims about those figures), so ``--seed`` does not change this
step, and it is the same on every workload.

Each repair plan is one operation.  A plan that moves more blocks
than the generic decode fallback would is the known excess of
``PolygonLocalCode.plan_node_repair`` (the same 13 patterns on every
pass); it is printed and shows in ``repair_traffic_blocks``, but not
counted as failed: a run's other operations are as many as their steps
complete in their time, so a fixed count of failures would be a
different share of the attempted operations in every run.

``repro`` is imported inside :func:`set_up`, whose time is the
sweep step's set-up cost.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent

FIG3_TRIALS = 4
TERASORT_RUNS = 10
MC_TRIALS = 600

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def plan_codes() -> tuple[str, ...]:
    from repro.core import available_codes

    return (*available_codes(), "pentagon-local(3g,2p)")


def set_up() -> float:
    """Import every layer the sweeps use and build every code once."""
    start = time.perf_counter()
    from repro.core import make_code
    from repro.experiments import (  # noqa: F401
        families, fig3, fig4, fig5, repair_bandwidth, table1)
    from repro.gf import kernels

    kernels.native_available()
    for name in plan_codes():
        make_code(name).layout.generator_matrix()
    return time.perf_counter() - start


def set_up_median() -> float:
    """Median of ``SETUPS`` set-ups, each in a fresh interpreter."""
    probe = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
             "import sweeps; print(sweeps.set_up())")
    times = []
    for _ in range(SETUPS):
        out = subprocess.run(
            [sys.executable, "-c", probe, str(HERE.parent / "src"), str(HERE)],
            check=True, capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def decode_fallback_blocks(code, failed: tuple[int, ...]) -> int:
    """Blocks the generic decode-everything repair moves, from the layout.

    One copy per lost block that still has a live replica; if any
    symbol lost every replica, ``k`` decode inputs to the first failed
    slot plus one forward of each solved symbol to its other failed
    replicas.
    """
    layout = code.layout
    down = set(failed)
    lost = {symbol.index for symbol in layout.symbols
            if set(symbol.replicas) <= down}
    copies = sum(1 for slot in failed for index in layout.symbols_on_slot(slot)
                 if index not in lost)
    if not lost:
        return copies
    sink = failed[0]
    forwards = sum(1 for index in lost
                   for slot in layout.symbols[index].replicas if slot != sink)
    return copies + code.k + forwards


def repair_plan_sweep() -> dict:
    """Plan every tolerated failure pattern of every code once."""
    from repro.core import make_code
    from repro.core.repair import TransferKind

    attempted = failed_ops = traffic = excess = 0
    reads_failed = incomplete = 0
    for name in plan_codes():
        code = make_code(name)
        layout = code.layout
        for size in range(1, code.fault_tolerance + 1):
            for failed in itertools.combinations(range(code.length), size):
                plan = code.plan_node_repair(failed)
                attempted += 1
                traffic += plan.network_blocks
                over = plan.network_blocks - decode_fallback_blocks(code, failed)
                if over > 0:
                    failed_ops += 1
                    excess += over
                reads_failed += any(
                    transfer.source_slot in failed
                    for transfer in plan.transfers
                    if transfer.kind is not TransferKind.DECODED)
                incomplete += any(
                    set(plan.restored.get(slot, ()))
                    != set(layout.symbols_on_slot(slot)) for slot in failed)
    return {"attempted": attempted, "failed": failed_ops, "traffic": traffic,
            "excess": excess, "reads_failed_slot": reads_failed,
            "incomplete": incomplete}


class Fig3Oracle:
    """Records every Fig. 3 trial to check max-matching dominance.

    Schedulers of one cell share the trial's generator seed, so the
    generator state on entry identifies a trial across schedulers.
    """

    def __init__(self) -> None:
        from repro.experiments import fig3

        self.trials: dict[tuple, dict[str, float]] = defaultdict(dict)
        original = fig3.locality_trial

        @functools.wraps(original)
        def recorded(rng, code_name, scheduler_name, load, slots_per_node,
                     node_count):
            key = (code_name, load, slots_per_node,
                   rng.bit_generator.state["state"]["state"])
            value = original(rng, code_name, scheduler_name, load,
                             slots_per_node, node_count)
            self.trials[key][scheduler_name] = value
            return value

        fig3.locality_trial = recorded

    def violations(self) -> int:
        bad = sum(1 for values in self.trials.values()
                  if any(value > values["max-matching"] + 1e-9
                         for value in values.values()))
        self.trials.clear()
        return bad


def sweep_pass(wrap) -> tuple[dict, dict]:
    """One full pass; returns ``(shape checks, repair plan counts)``."""
    from repro.core import make_code
    from repro.experiments import (
        families, fig3, fig4, fig5, repair_bandwidth, table1)
    from repro.reliability.models import validate_polygon_local_states

    checks: dict[str, bool] = {}

    def add(prefix: str, results: dict[str, bool]) -> None:
        checks.update({f"{prefix}: {claim}": ok for claim, ok in results.items()})

    wrap(fig3.full_figure, "experiments.fig3")(trials=FIG3_TRIALS, workers=1)
    add("fig4", fig4.shape_checks(wrap(fig4.figure4, "experiments.fig4")(
        runs=TERASORT_RUNS, workers=1)))
    add("fig5", fig5.shape_checks(wrap(fig5.figure5, "experiments.fig5")(
        runs=TERASORT_RUNS, workers=1)))
    add("table1", table1.shape_checks(
        wrap(table1.build_table1, "experiments.table1")(workers=1)))
    add("table1-mc", table1.mc_shape_checks(
        wrap(table1.monte_carlo_validation, "experiments.table1_mc")(
            trials=MC_TRIALS, workers=1)))
    add("repair_bandwidth", repair_bandwidth.shape_checks(
        wrap(repair_bandwidth.measure_all, "experiments.repair_bandwidth")(
            workers=1)))
    add("families", families.shape_checks(
        wrap(families.build_families, "experiments.families")(workers=1)))
    try:
        validate_polygon_local_states(make_code("pentagon-local"))
        lumped = True
    except ValueError:
        lumped = False
    checks["reliability: pentagon-local chain states agree with every "
           "failure mask"] = lumped
    return checks, repair_plan_sweep()


class Sweeps:
    """Serial sweep passes; one per round of the run.

    ``sweep_cpu_s`` is the median CPU time of the calling thread per
    pass (the sweeps run serially in it).  The host this benchmark was
    built on runs identical CPU-bound code up to a third slower in wall
    time from one minute to the next; the thread's CPU time leaves out
    the time the hypervisor gives other guests and the time the
    cluster's own threads and processes take.
    """

    def __init__(self, tracer) -> None:
        self.oracle = Fig3Oracle()
        if tracer is not None:
            from tracing import install_sweeps

            install_sweeps(tracer)
            self.wrap = tracer.wrap
        else:
            self.wrap = lambda fn, name: fn  # noqa: E731
        self.pass_cpu: list[float] = []
        self.checks: dict[str, bool] = {}
        self.plans: dict[str, int] = defaultdict(int)
        self.fig3_violations = 0

    def one_pass(self) -> None:
        began = time.thread_time()
        pass_checks, pass_plans = sweep_pass(self.wrap)
        self.pass_cpu.append(time.thread_time() - began)
        for claim, ok in pass_checks.items():
            self.checks[claim] = self.checks.get(claim, True) and ok
        for key, value in pass_plans.items():
            self.plans[key] += value
        self.fig3_violations += self.oracle.violations()

    def finish(self) -> dict:
        passes, plans, checks = len(self.pass_cpu), self.plans, self.checks
        print("sweep pass CPU s: "
              + " ".join(f"{t:.3f}" for t in self.pass_cpu))
        checks["fig3: no scheduler beats max-matching on a trial"] = (
            self.fig3_violations == 0)
        checks["no repair plan reads a failed slot"] = (
            plans["reads_failed_slot"] == 0)
        checks["every repair plan restores every failed slot"] = (
            plans["incomplete"] == 0)
        print(f"repair plans above the decode fallback: {plans['failed']} "
              f"of {plans['attempted']}, {plans['excess']} blocks over")
        return {
            "metrics": {
                "sweep_cpu_s": (statistics.median(self.pass_cpu), "s"),
                "repair_traffic_blocks": (plans["traffic"] / passes,
                                          "blocks"),
            },
            "ops": {"repair plans": (plans["attempted"], 0)},
            "checks": checks,
            "passes": passes,
            "repair_excess_blocks": plans["excess"] / passes,
        }
