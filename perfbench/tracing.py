"""In-memory span tracing installed from the benchmark's own files.

The program carries no tracing of its own, so the traced run wraps the
public entry points of each layer in place (the ``install_*``
functions).  A
span is ``(span_id, parent_id, op_id, name, start, end, nbytes)``:
``parent_id`` is the span that was open when this one started (0 for a
root), and every span of one operation shares the ``op_id`` of its
root.  Spans stay in a list until the run ends; :meth:`Tracer.dump`
writes them out and :func:`layer_metrics` turns them into the
per-layer metrics named in ``BENCHMARK.json``.

The current span travels in a :class:`contextvars.ContextVar`, so
nesting is right both across threads (each starts a fresh context) and
across the namenode's asyncio tasks (each task owns a context copy).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

#: The span clock.  ``CLOCK_MONOTONIC`` is one clock for every process
#: of the host, so datanode spans and benchmark spans share a time line.
CLOCK = time.monotonic

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


class Tracer:
    """Collects spans from wrapped entry points of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self.since = 0.0

    def reset(self) -> None:
        """Forget spans recorded so far (set-up is not measured).

        :attr:`since` keeps the moment of the reset on the span clock,
        so the spans other processes recorded before it can be dropped
        too.
        """
        self.spans = []
        self.since = CLOCK()

    # ------------------------------------------------------------------
    def wrap(self, fn, name, size=None):
        """``fn`` recording one span per call.

        ``name`` is a string or ``name(args, kwargs)``; ``size`` maps
        ``(args, kwargs, result)`` to the bytes the call handled.
        """
        ids = self._ids
        clock = CLOCK
        tracer = self

        def open_span(args, kwargs):
            parent = _CURRENT.get()
            label = name(args, kwargs) if callable(name) else name
            if parent is not None and parent[2] == label:
                return None     # a super() call: one span per call site
            span_id = next(ids)
            if parent is None:
                ctx = (span_id, span_id, label)
                parent_id = 0
            else:
                ctx = (span_id, parent[1], label)
                parent_id = parent[0]
            return ctx, parent_id, label, _CURRENT.set(ctx)

        def close_span(ctx, parent_id, label, token, start, args, kwargs,
                       result, ok):
            end = clock()
            _CURRENT.reset(token)
            nbytes = size(args, kwargs, result) if (size and ok) else 0
            tracer.spans.append((ctx[0], parent_id, ctx[1], label, start,
                                 end, nbytes))

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                opened = open_span(args, kwargs)
                if opened is None:
                    return await fn(*args, **kwargs)
                ctx, parent_id, label, token = opened
                start = clock()
                ok, result = False, None
                try:
                    result = await fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    close_span(ctx, parent_id, label, token, start, args,
                               kwargs, result, ok)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = open_span(args, kwargs)
            if opened is None:
                return fn(*args, **kwargs)
            ctx, parent_id, label, token = opened
            start = clock()
            ok, result = False, None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                close_span(ctx, parent_id, label, token, start, args,
                           kwargs, result, ok)
        return wrapper

    def patch_method(self, cls, attr, name, size=None) -> None:
        setattr(cls, attr, self.wrap(cls.__dict__[attr], name, size))

    def patch_function(self, fn, name, size=None) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that bound it
        (``from x import fn`` copies the reference into the importer)."""
        wrapped = self.wrap(fn, name, size)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(list(self.spans), handle)


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _code_classes():
    from repro.core import Code

    found, stack = [], [Code]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


def _install_core(tracer: Tracer) -> None:
    def encode_bytes(args, kwargs, result):
        del kwargs, result
        return sum(len(block) for block in args[1])

    for cls in _code_classes():
        for attr, label in (("plan_degraded_read", "core.plan_degraded_read"),
                            ("plan_node_repair", "core.plan_node_repair"),
                            ("build_layout", "core.build_layout")):
            if attr in cls.__dict__:
                tracer.patch_method(cls, attr, label)
        if "encode" in cls.__dict__:
            tracer.patch_method(cls, "encode", "core.encode", encode_bytes)


def _install_gf(tracer: Tracer) -> None:
    from repro.gf import linear_combine

    def combine_bytes(args, kwargs, result):
        del kwargs, result
        return sum(len(buffer) for buffer in args[1])

    tracer.patch_function(linear_combine, "gf.linear_combine", combine_bytes)


def install_client(tracer: Tracer) -> None:
    """Benchmark-process layers of the service workloads."""
    from repro import net
    from repro.net import RpcPool
    from repro.service import transfer
    from repro.service.client import StorageClient
    from repro.service.namenode import NameNodeServer

    tracer.patch_function(net.send_frame, "net.send_frame")
    tracer.patch_function(net.recv_frame, "net.recv_frame")
    # The frame codec sees each frame's exact size without re-encoding.
    tracer.patch_function(net._encode_frame, "net.encode",
                          lambda args, kwargs, result: len(result))
    tracer.patch_function(net._decode_payload, "net.decode",
                          lambda args, kwargs, result: len(args[0]) + 4)
    tracer.patch_method(RpcPool, "call", "net.rpc_pool_call")
    for attr in ("read_block", "degraded_read", "write_file", "stat"):
        tracer.patch_method(StorageClient, attr, f"service.client.{attr}")
    tracer.patch_function(transfer.execute_read_plan,
                          "service.transfer.execute_read_plan")
    tracer.patch_function(transfer.execute_repair_plan,
                          "service.transfer.execute_repair_plan")
    tracer.patch_method(NameNodeServer, "_handle",
                        lambda args, kwargs: f"service.namenode.{args[1]}")
    tracer.patch_method(NameNodeServer, "_repair_stripe",
                        "service.namenode.repair_stripe")
    _install_core(tracer)
    _install_gf(tracer)


def install_datanode(tracer: Tracer) -> None:
    """Datanode-process layers: request handler, block store, GF."""
    from repro.cluster.datanode import DataNode
    from repro.service.datanode import DataNodeServer

    def handler_name(args, kwargs):
        del kwargs
        kind, data = args[1], args[2]
        if kind == "checksums" and not (data and data.get("blocks")):
            return "service.datanode.scrub"
        return f"service.datanode.{kind}"

    tracer.patch_method(DataNodeServer, "_handle", handler_name)
    for attr in ("put", "get", "current_checksum"):
        tracer.patch_method(DataNode, attr, f"service.datanode.store_{attr}")
    _install_gf(tracer)


def install_sweeps(tracer: Tracer) -> None:
    """Layers under the paper's experiment functions."""
    from repro.experiments import (
        families, fig3, fig4, repair_bandwidth, table1)
    from repro.mapreduce import run_terasort_once
    from repro.reliability import (
        recoverable_mask_table, simulate_group_mttd_total)
    from repro.reliability.markov import MarkovChain
    from repro.scheduling import (
        DelayScheduler, MaxMatchingScheduler, PeelingScheduler)
    from repro.workloads import workload_for_load

    tracer.patch_function(workload_for_load, "workloads.workload_for_load")
    for cls, label in ((DelayScheduler, "delay"),
                       (MaxMatchingScheduler, "max_matching"),
                       (PeelingScheduler, "peeling")):
        tracer.patch_method(cls, "assign", f"scheduling.{label}")
    tracer.patch_function(run_terasort_once, "mapreduce.run_terasort_once")
    tracer.patch_method(MarkovChain, "mean_time_to_absorption",
                        "reliability.chain_solve")
    tracer.patch_function(simulate_group_mttd_total, "reliability.simulate")
    tracer.patch_function(recoverable_mask_table, "reliability.mask_enum")
    # The engine's cells call these trial functions; time outside them
    # (but inside an experiment call) is the engine's own overhead.
    for fn in (fig3.locality_trial, fig4.terasort_trial, table1.table1_row,
               table1.mc_shard_total, families.family_row,
               repair_bandwidth.measure_code):
        tracer.patch_function(fn, "experiments.trial")
    _install_core(tracer)
    _install_gf(tracer)


# ----------------------------------------------------------------------
# Deriving the per-layer metrics
# ----------------------------------------------------------------------
#: Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "net.recv_wait_us": "us/frame",
    "net.send_us": "us/frame",
    "net.frames_per_read": "count",
    "net.bytes_per_read": "bytes",
    "service.client.stat_hit_ratio": "ratio",
    "service.client.self_us": "us/op",
    "service.client.replans_per_read": "count",
    "core.plan_degraded_read_us": "us",
    "core.plan_calls_per_read": "count",
    "core.encode_mb_s": "MB/s",
    "core.plan_node_repair_us": "us",
    "core.layout_builds": "count",
    "core.repair_blocks_over_decode": "blocks",
    "gf.linear_combine_us": "us",
    "gf.linear_combine_mb_s": "MB/s",
    "service.datanode.get_us": "us",
    "service.datanode.put_us": "us",
    "service.datanode.scrub_ms": "ms",
    "service.namenode.write_rpcs_per_stripe": "count",
    "service.namenode.repair_rpc_ms": "ms",
    "service.namenode.repair_stripe_ms": "ms",
    "service.namenode.repair_blocks_per_stripe": "count",
    "workloads.generate_ms": "ms/pass",
    "scheduling.delay_ms": "ms/pass",
    "scheduling.max_matching_ms": "ms/pass",
    "scheduling.peeling_ms": "ms/pass",
    "mapreduce.job_ms": "ms/pass",
    "reliability.chain_solve_ms": "ms/pass",
    "reliability.simulate_ms": "ms/pass",
    "reliability.mask_enum_ms": "ms/pass",
    "experiments.engine_overhead_ms": "ms/pass",
}

_READ_OPS = ("service.client.read_block", "service.client.degraded_read")
_CLIENT_OPS = _READ_OPS + ("service.client.write_file",)
_WRITE_RPCS = ("service.namenode.begin-write",
               "service.namenode.place-stripe",
               "service.namenode.commit-write",
               "service.namenode.abort-write")


def _covered(interval, children) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, *, passes: int = 1, stripes_written: int = 0,
                  replans: int = 0, repair_excess_blocks: int = 0) -> dict:
    """Per-layer metrics from every span of one traced run.

    ``spans`` mixes the benchmark process with its datanodes; only the
    benchmark process's spans share op ids with client operations.
    Totals of the paper-sweeps layers are divided by ``passes``.  A
    layer the workload never enters reads 0.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    by_op: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)
        by_op[span[2]].append(span)

    def durations(name):
        return [s[5] - s[4] for s in by_name.get(name, ())]

    def total(name):
        return sum(durations(name))

    reads = [s for name in _READ_OPS for s in by_name.get(name, ())]
    read_frames = read_bytes = read_plans = read_stats = 0
    for root in reads:
        names = Counter(s[3] for s in by_op[root[0]])
        read_frames += names["net.send_frame"] + names["net.recv_frame"]
        read_plans += names["core.plan_degraded_read"]
        read_stats += names["service.client.stat"]
        read_bytes += sum(s[6] for s in by_op[root[0]]
                          if s[3] in ("net.encode", "net.decode"))
    self_times = []
    for name in _CLIENT_OPS:
        for root in by_name.get(name, ()):
            inner = [(s[4], s[5]) for s in by_op[root[0]]
                     if s[3].startswith(("net.", "core."))]
            self_times.append(root[5] - root[4]
                              - _covered((root[4], root[5]), inner))

    repairs = by_name.get("service.namenode.repair_stripe", ())
    repair_ids = {s[0] for s in repairs}
    repair_rpcs = [s for s in by_name.get("net.rpc_pool_call", ())
                   if s[1] in repair_ids]
    encode = by_name.get("core.encode", ())
    combine = by_name.get("gf.linear_combine", ())
    n_reads = len(reads)
    per_read = (lambda count: count / n_reads) if n_reads else (lambda count: 0.0)
    us, ms = 1e6, 1e3
    trial_time = total("experiments.trial")
    experiment_time = sum(total(name) for name in by_name
                          if name.startswith("experiments.")
                          and name != "experiments.trial")
    metrics = {
        "net.recv_wait_us": _mean(durations("net.recv_frame")) * us,
        "net.send_us": _mean(durations("net.send_frame")) * us,
        "net.frames_per_read": per_read(read_frames),
        "net.bytes_per_read": per_read(read_bytes),
        "service.client.stat_hit_ratio": (1.0 - per_read(read_stats)
                                          if n_reads else 0.0),
        "service.client.self_us": _mean(self_times) * us,
        "service.client.replans_per_read": per_read(replans),
        "core.plan_degraded_read_us":
            _mean(durations("core.plan_degraded_read")) * us,
        "core.plan_calls_per_read": per_read(read_plans),
        "core.encode_mb_s": (sum(s[6] for s in encode)
                             / sum(s[5] - s[4] for s in encode) / 1e6
                             if encode else 0.0),
        "core.plan_node_repair_us":
            _mean(durations("core.plan_node_repair")) * us,
        "core.layout_builds": len(by_name.get("core.build_layout", ())) / passes,
        "core.repair_blocks_over_decode": repair_excess_blocks,
        "gf.linear_combine_us": _mean(durations("gf.linear_combine")) * us,
        "gf.linear_combine_mb_s": (sum(s[6] for s in combine)
                                   / sum(s[5] - s[4] for s in combine) / 1e6
                                   if combine else 0.0),
        "service.datanode.get_us": _mean(durations("service.datanode.get")) * us,
        "service.datanode.put_us": _mean(durations("service.datanode.put")) * us,
        "service.datanode.scrub_ms":
            _mean(durations("service.datanode.scrub")) * ms,
        "service.namenode.write_rpcs_per_stripe": (
            sum(len(by_name.get(name, ())) for name in _WRITE_RPCS)
            / stripes_written if stripes_written else 0.0),
        "service.namenode.repair_rpc_ms":
            _mean([s[5] - s[4] for s in repair_rpcs]) * ms,
        "service.namenode.repair_stripe_ms": _mean(
            [s[5] - s[4] for s in repairs]) * ms,
        "service.namenode.repair_blocks_per_stripe": (
            len(repair_rpcs) / len(repairs) if repairs else 0.0),
        "workloads.generate_ms": total("workloads.workload_for_load") * ms / passes,
        "scheduling.delay_ms": total("scheduling.delay") * ms / passes,
        "scheduling.max_matching_ms": total("scheduling.max_matching") * ms / passes,
        "scheduling.peeling_ms": total("scheduling.peeling") * ms / passes,
        "mapreduce.job_ms": total("mapreduce.run_terasort_once") * ms / passes,
        "reliability.chain_solve_ms": total("reliability.chain_solve") * ms / passes,
        "reliability.simulate_ms": total("reliability.simulate") * ms / passes,
        "reliability.mask_enum_ms": total("reliability.mask_enum") * ms / passes,
        "experiments.engine_overhead_ms":
            (experiment_time - trial_time) * ms / passes,
    }
    return {name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
