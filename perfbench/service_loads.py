"""The service steps of a run, against a real loopback storage service.

Each run builds one :class:`repro.service.ServiceCluster` (in-process
namenode, datanodes as subprocesses) for its workload's code, fills it
with payloads the benchmark derives from its seed, and drives it from
at most two load threads, each with its own
:class:`~repro.service.StorageClient`.  A round (:meth:`Service.round`)
is four steps in turn:

* **read** — 2 closed-loop readers of random single data blocks (two
  map slots reading their input blocks) on the healthy cluster;
* **repair** — the service's fault plan SIGKILLs a datanode, the
  namenode's checker detects and repairs it while one reader keeps
  reading, the benchmark reads every stripe back and restarts the node
  empty;
* **degraded** — 1 closed-loop reader of forced degraded reads;
* **write** — 1 closed-loop writer of new seeded one-stripe files.

Every read is compared byte for byte with the payload regenerated
from the seed; block counts are checked against the code's layout.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
import zlib
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.core import SymbolKind, make_code
from repro.service import ServiceCluster, ServiceError, parse_fault_plan
from repro.service.cluster import STARTUP_TIMEOUT

HERE = Path(__file__).resolve().parent

#: Set-ups per run; their median is the service's part of ``setup_s``
#: and the last one is the cluster the run measures.
SETUPS = 3

#: The workloads: one code each, its datanodes, block size and dataset.
SPECS = {
    "pentagon": {"code": "pentagon", "datanodes": 6, "block_bytes": 65536,
                 "files": 16, "stripes_per_file": 3},
    "heptagon": {"code": "heptagon", "datanodes": 8, "block_bytes": 16384,
                 "files": 24, "stripes_per_file": 2},
}

#: Checker timings, shortened through ``ServiceCluster``'s public
#: arguments so that detection does not dominate a repair round.
CHECKER = {"silence_timeout": 1.0, "check_period": 0.25,
           "heartbeat_interval": 0.2}

#: Longest a repair round may take before the run is declared wrong.
ROUND_TIMEOUT = 60.0


def payload(seed: int, tag: str, index: int, size: int) -> bytes:
    """The benchmark's own deterministic file contents."""
    return np.random.default_rng(
        (seed, zlib.crc32(tag.encode()), index)).bytes(size)


def vmhwm_mb(pid="self") -> float:
    """Peak resident set of a process, from ``/proc/<pid>/status``."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except FileNotFoundError:
        pass
    return 0.0


def task_cpu_ns(pid, tid=None) -> int:
    """CPU time so far of one thread, or summed over a process's live
    threads, in ns, from ``/proc/<pid>/task/<tid>/schedstat``.  Time
    the hypervisor gives other guests (steal) and time spent waiting
    are not in it."""
    tasks = [tid] if tid is not None else os.listdir(f"/proc/{pid}/task")
    total = 0
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass        # a thread or process that just ended
    return total


class Timings:
    """Operations of one kind: their latencies and the bytes they moved.

    A failed operation misses every latency limit (its latency is
    infinite) and adds nothing to throughput.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.bytes = 0

    def record(self, start: float, ok: bool, size: int = 0) -> None:
        self.latencies.append(time.perf_counter() - start if ok
                              else float("inf"))
        self.bytes += size if ok else 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.latencies.count(float("inf"))

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def p50_ms(self) -> float:
        return statistics.median(self.latencies) * 1e3


class BenchCluster(ServiceCluster):
    """A service cluster whose datanodes can be restarted, and traced.

    With ``spans_dir`` set, datanodes start through ``dn_launch.py``,
    which installs the datanode-side wrappers before running the same
    daemon, and write their spans there when they end.
    """

    def __init__(self, datanodes: int, *, spans_dir: Path | None = None,
                 **kwargs):
        self.spans_dir = spans_dir
        self.heartbeat_interval = kwargs.get("heartbeat_interval", 1.0)
        super().__init__(datanodes, **kwargs)

    def _spawn(self, node_id: int, heartbeat_interval: float):
        if self.spans_dir is None:
            return super()._spawn(node_id, heartbeat_interval)
        spans = self.spans_dir / f"dn{node_id}-{time.monotonic_ns()}.json"
        return subprocess.Popen(
            [sys.executable, str(HERE / "dn_launch.py"), str(node_id),
             f"{self.address[0]}:{self.address[1]}",
             str(heartbeat_interval), str(self.seed), str(spans)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def restart(self, node_id: int) -> None:
        """Start a fresh, empty datanode under a killed node's id."""
        old = self._procs.get(node_id)
        if old is not None:
            old.wait(timeout=10.0)
        self._procs[node_id] = self._spawn(node_id, self.heartbeat_interval)
        self._await_alive([node_id], STARTUP_TIMEOUT)

    def live_blocks(self) -> int:
        """Blocks held by the alive datanodes, asked of each daemon."""
        return sum(int(self.namenode.dn_call_sync(node, "status", {})["blocks"])
                   for node in self.status()["alive"])

    def cpu_ns(self) -> int:
        """CPU time so far of the benchmark process (its load threads,
        ended ones too, and the in-process namenode) and of the live
        datanodes' threads."""
        return time.process_time_ns() + sum(
            task_cpu_ns(proc.pid) for proc in self._procs.values()
            if proc.poll() is None)

    def datanode_rss_mb(self) -> float:
        """VmHWM of the live datanodes, summed."""
        return sum(vmhwm_mb(proc.pid) for proc in self._procs.values()
                   if proc.poll() is None)


class Dataset:
    """Prefilled files: names, payloads and the expected block bytes."""

    def __init__(self, spec: dict, seed: int, tag: str):
        self.code = make_code(spec["code"])
        self.block_bytes = spec["block_bytes"]
        self.stripes = spec["stripes_per_file"]
        size = self.code.k * self.block_bytes * self.stripes
        self.files = [(f"{tag}-s{seed}-{index:04d}",
                       payload(seed, tag, index, size))
                      for index in range(spec["files"])]
        self.data_symbols = [
            (symbol.index, self.code.layout.data_column(symbol.index))
            for symbol in self.code.layout.symbols
            if symbol.kind is SymbolKind.DATA]

    def expected(self, data: bytes, stripe: int, column: int) -> bytes:
        """The block's bytes (files are whole stripes: no padding)."""
        offset = (stripe * self.code.k + column) * self.block_bytes
        return data[offset:offset + self.block_bytes]

    def read_back(self, client, name: str, data: bytes, stripe: int,
                  symbol: int, column: int) -> bool:
        """True when one block reads back as written."""
        try:
            block = client.read_block(name, stripe, symbol)
        except ServiceError:
            return False
        return block == self.expected(data, stripe, column)

    def read_back_all(self, cluster: BenchCluster) -> int:
        """Read every data block of every stripe; returns mismatches."""
        with cluster.client() as client:
            return sum(not self.read_back(client, name, data, stripe, symbol,
                                          column)
                       for name, data in self.files
                       for stripe in range(self.stripes)
                       for symbol, column in self.data_symbols)

    @property
    def user_bytes(self) -> int:
        return sum(len(data) for _, data in self.files)

    @property
    def stripe_count(self) -> int:
        return len(self.files) * self.stripes


def set_up(spec: dict, dataset: Dataset, seed: int,
           spans_dir: Path | None) -> tuple[BenchCluster, float]:
    """Spin up a cluster and prefill ``dataset``; returns its time."""
    start = time.perf_counter()
    cluster = BenchCluster(spec["datanodes"], block_bytes=spec["block_bytes"],
                           seed=seed, spans_dir=spans_dir, **CHECKER)
    try:
        with cluster.client() as writer:
            for name, data in dataset.files:
                writer.write_file(name, data, spec["code"])
    except BaseException:
        cluster.close()
        raise
    return cluster, time.perf_counter() - start


def set_up_median(spec: dict, dataset: Dataset, seed: int,
                  spans_dir: Path | None) -> tuple[BenchCluster, float]:
    """``SETUPS`` set-ups; keeps the last cluster, reports the median."""
    times = []
    for attempt in range(SETUPS):
        spans = None
        if spans_dir is not None:
            spans = spans_dir / f"cluster{attempt}"
            spans.mkdir(parents=True, exist_ok=True)
        cluster, elapsed = set_up(spec, dataset, seed, spans)
        times.append(elapsed)
        if attempt < SETUPS - 1:
            cluster.close()
    return cluster, statistics.median(times)


class LoadThread(threading.Thread):
    """One load thread with its own client; ``loop`` runs until ``stop``.

    A typed service failure is a failed operation; any other error
    ends the thread and is raised again by :meth:`finish`.
    """

    def __init__(self, cluster: BenchCluster, stop: threading.Event):
        super().__init__(daemon=True)
        self.client = cluster.client()
        self.stop = stop
        self.timings = Timings()
        self.error: Exception | None = None

    def run(self) -> None:
        try:
            self.loop()
        except Exception as error:      # re-raised by finish()
            self.error = error
        finally:
            self.client.close()

    def loop(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        self.join()
        if self.error is not None:
            raise self.error


class Reader(LoadThread):
    """Closed-loop reader of random data blocks of a dataset."""

    def __init__(self, cluster: BenchCluster, stop: threading.Event,
                 dataset: Dataset, rng_key: tuple, forced: bool = False):
        super().__init__(cluster, stop)
        self.dataset = dataset
        self.rng = np.random.default_rng(rng_key)
        self.read = (self.client.degraded_read if forced
                     else self.client.read_block)
        self.mismatched = 0

    def loop(self) -> None:
        dataset, rng = self.dataset, self.rng
        while not self.stop.is_set():
            name, data = dataset.files[int(rng.integers(len(dataset.files)))]
            stripe = int(rng.integers(dataset.stripes))
            symbol, column = dataset.data_symbols[
                int(rng.integers(len(dataset.data_symbols)))]
            start = time.perf_counter()
            try:
                block = self.read(name, stripe, symbol)
            except ServiceError:
                self.timings.record(start, ok=False)
                continue
            self.timings.record(start, ok=True)
            if block != dataset.expected(data, stripe, column):
                self.mismatched += 1


class Writer(LoadThread):
    """Closed-loop writer of new seeded one-stripe files."""

    def __init__(self, cluster: BenchCluster, stop: threading.Event,
                 code_name: str, seed: int, file_bytes: int, first: int):
        super().__init__(cluster, stop)
        self.code_name = code_name
        self.seed = seed
        self.file_bytes = file_bytes
        self.first = first
        self.written: list[tuple[str, int]] = []

    def loop(self) -> None:
        while not self.stop.is_set():
            index = self.first + self.timings.attempted
            name = f"new-s{self.seed}-{index:05d}"
            data = payload(self.seed, "new", index, self.file_bytes)
            start = time.perf_counter()
            try:
                self.client.write_file(name, data, self.code_name)
            except ServiceError:
                self.timings.record(start, ok=False)
                continue
            self.timings.record(start, ok=True, size=self.file_bytes)
            self.written.append((name, index))


def run_threads(threads: list[LoadThread], stop: threading.Event,
                seconds: float) -> float:
    """Run ``threads`` for ``seconds``; returns the time they ran."""
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.finish()
    return time.perf_counter() - start


class Service:
    """One workload's measured cluster and the four steps of a round.

    Each step adds its operations to :attr:`ops`, ANDs its oracles into
    :attr:`checks`, adds its CPU time and its work to :attr:`cost`
    (the gated figures are ratios of their sums over the run), and
    appends its wall-clock figures to :attr:`timings` (one value per
    round; their medians are printed, not gated).
    """

    def __init__(self, workload: str, seed: int, spans_dir: Path | None):
        spec = SPECS[workload]
        self.seed = seed
        self.dataset = Dataset(spec, seed, workload[:3])
        self.code = self.dataset.code
        per_slot = set(self.code.layout.blocks_per_slot())
        if len(per_slot) != 1:
            raise ValueError(f"{self.code.name} has uneven slots {per_slot}")
        self.blocks_per_slot = per_slot.pop()
        self.file_bytes = self.code.k * self.dataset.block_bytes
        self.cluster, self.setup_s = set_up_median(spec, self.dataset, seed,
                                                   spans_dir)
        self.cost: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        self.timings: dict[str, list[float]] = defaultdict(list)
        self.ops: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.checks: dict[str, bool] = {}
        self.written: list[tuple[str, int]] = []
        self.replans = 0
        self.rounds = 0
        self.victims = np.random.default_rng((seed, 13))
        self.picks = np.random.default_rng((seed, 11))
        self.spare = None
        self.datanode_rss_mb = 0.0

    def close(self) -> None:
        self.cluster.close()

    def _count(self, kind: str, timings: Timings) -> None:
        self.ops[kind][0] += timings.attempted
        self.ops[kind][1] += timings.failed

    def _check(self, claim: str, ok: bool) -> None:
        self.checks[claim] = self.checks.get(claim, True) and ok

    def _reader(self, stop: threading.Event, reader: int,
                forced: bool = False) -> Reader:
        return Reader(self.cluster, stop, self.dataset,
                      (self.seed, 7, reader, self.rounds), forced)

    def _window(self, threads: list[LoadThread], stop: threading.Event,
                seconds: float) -> tuple[float, float]:
        """Run load threads for ``seconds``; returns (wall s, CPU s)."""
        cpu = self.cluster.cpu_ns()
        elapsed = run_threads(threads, stop, seconds)
        for thread in threads:
            self.replans += thread.client.counters["replans"]
        return elapsed, (self.cluster.cpu_ns() - cpu) / 1e9

    def round(self, read_s: float, write_s: float) -> None:
        """One round: read, repair, degraded-read and write steps."""
        self.read(read_s)
        # The datanodes' peak before any write, which grows the store
        # by design.
        if not self.written:
            self.datanode_rss_mb = max(self.datanode_rss_mb,
                                       self.cluster.datanode_rss_mb())
        self.repair()
        self.degraded(write_s)
        self.write(write_s)
        self.rounds += 1

    # ------------------------------------------------------------------
    def read(self, seconds: float) -> None:
        """2 closed-loop readers of the healthy cluster."""
        stop = threading.Event()
        readers = [self._reader(stop, worker) for worker in range(2)]
        _, cpu = self._window(readers, stop, seconds)
        reads = Timings()
        for reader in readers:
            reads.latencies += reader.timings.latencies
            self._check("reads match the seeded payload",
                        reader.mismatched == 0)
        self._add_cost("read_cpu_us", cpu * 1e6, reads.completed)
        self.timings["read_p50_ms"].append(reads.p50_ms())
        self._count("reads", reads)

    def degraded(self, seconds: float) -> None:
        """1 closed-loop reader of forced degraded reads."""
        stop = threading.Event()
        reader = self._reader(stop, 3, forced=True)
        _, cpu = self._window([reader], stop, seconds)
        self._check("degraded reads match the seeded payload",
                    reader.mismatched == 0)
        self._add_cost("degraded_read_cpu_us", cpu * 1e6,
                       reader.timings.completed)
        self.timings["degraded_read_p50_ms"].append(reader.timings.p50_ms())
        self._count("degraded reads", reader.timings)

    def write(self, seconds: float) -> None:
        """1 closed-loop writer of new one-stripe files."""
        stop = threading.Event()
        writer = Writer(self.cluster, stop, self.code.name, self.seed,
                        self.file_bytes, first=self.ops["writes"][0])
        elapsed, cpu = self._window([writer], stop, seconds)
        self.written += writer.written
        self._add_cost("write_cpu_ms_per_mb", cpu * 1e3,
                       writer.timings.bytes / 1e6)
        self.timings["write_mb_s"].append(writer.timings.bytes / elapsed / 1e6)
        self._count("writes", writer.timings)

    def repair(self) -> None:
        """Kill a datanode, wait for its repair, verify, restart it.

        One reader reads throughout.  The repair's CPU is taken from the
        poll that first sees a completed repair to the poll that sees
        the last; the reader thread's own CPU is left out of it, the
        datanodes' work for its reads is not.
        """
        cluster = self.cluster
        status = cluster.status()
        candidates = [node for node in status["alive"] if node != self.spare]
        victim = candidates[int(self.victims.integers(len(candidates)))]
        before = status["repair"]
        stop = threading.Event()
        reader = self._reader(stop, 2)
        reader.start()

        def cpu_ns() -> int:
            return cluster.cpu_ns() - task_cpu_ns("self", reader.native_id)

        try:
            cluster.arm_faults(parse_fault_plan(f"kill:dn{victim}@t=0",
                                                seed=self.seed))
            killed_at = time.perf_counter()
            # The round ends once the namenode counts the victim dead
            # (status() recomputes liveness on each call) and no stripe
            # is queued, in repair, damaged or degraded.
            first = last = None
            last_done = before["done"]
            while True:
                status = cluster.status()
                now = time.perf_counter()
                state = status["repair"]
                if state["done"] > last_done:
                    last_done = state["done"]
                    last = (now, last_done, cpu_ns())
                    first = first or last
                if (victim not in status["alive"]
                        and not state["queued"] and not state["in_progress"]
                        and not state["damaged_stripes"]
                        and not state["degraded_stripes"]):
                    break
                if now - killed_at > ROUND_TIMEOUT:
                    break
                time.sleep(0.005)
        finally:
            stop.set()
            reader.finish()
        drained = first is not None and now - killed_at <= ROUND_TIMEOUT
        self._check("every repair round drains its queue", drained)
        if not drained:
            raise RuntimeError(f"repair of dn{victim} did not drain in "
                               f"{ROUND_TIMEOUT:.0f} s")
        rebuilt_mb = ((last[1] - first[1]) * self.blocks_per_slot
                      * self.dataset.block_bytes / 1e6)
        if rebuilt_mb:
            self._add_cost("repair_cpu_ms_per_mb",
                           (last[2] - first[2]) / 1e6, rebuilt_mb)
            self.timings["repair_mb_s"].append(
                rebuilt_mb / max(last[0] - first[0], 1e-9))
        self.timings["repair_read_p50_ms"].append(reader.timings.p50_ms())
        self._count("reads during repair", reader.timings)
        self._check("reads during repair match the seeded payload",
                    reader.mismatched == 0)
        self.replans += reader.client.counters["replans"]
        repaired = state["done"] - before["done"]
        failed = state["failed"] - before["failed"]
        self.ops["repaired stripes"][0] += repaired + failed
        self.ops["repaired stripes"][1] += failed
        self._check("every stripe reads back after repair",
                    self.read_back() == 0)
        self._check("live blocks = stripes x layout blocks",
                    cluster.live_blocks() == self.stripes * self.code.total_blocks)
        cluster.restart(victim)
        self.spare = victim

    # ------------------------------------------------------------------
    def _add_cost(self, name: str, cpu: float, work: float) -> None:
        self.cost[name][0] += cpu
        self.cost[name][1] += work

    @property
    def stripes(self) -> int:
        return self.dataset.stripe_count + len(self.written)

    def read_back(self) -> int:
        """Mismatches over every data block of the dataset and one seeded
        block of every written file."""
        dataset = self.dataset
        wrong = dataset.read_back_all(self.cluster)
        with self.cluster.client() as client:
            for name, index in self.written:
                symbol, column = dataset.data_symbols[int(
                    self.picks.integers(len(dataset.data_symbols)))]
                wrong += not dataset.read_back(
                    client, name,
                    payload(self.seed, "new", index, self.file_bytes), 0,
                    symbol, column)
        return wrong

    def finish(self) -> tuple[dict, dict]:
        """Final oracles; returns the gated end-to-end figures and the
        printed wall-clock ones, each as ``{name: (value, unit)}``."""
        self._check("written files read back as written",
                    self.read_back() == 0)
        blocks = self.cluster.live_blocks()
        self._check("live blocks = stripes x layout blocks",
                    blocks == self.stripes * self.code.total_blocks)
        user_bytes = (self.dataset.user_bytes
                      + len(self.written) * self.file_bytes)
        units = {"read_cpu_us": "us", "degraded_read_cpu_us": "us",
                 "write_cpu_ms_per_mb": "ms/MB",
                 "repair_cpu_ms_per_mb": "ms/MB"}
        metrics = {name: (self.cost[name][0] / max(self.cost[name][1], 1e-9),
                          unit) for name, unit in units.items()}
        metrics["stored_bytes_per_user_byte"] = (
            blocks * self.dataset.block_bytes / user_bytes, "ratio")
        info = {name: (statistics.median(values),
                       "MB/s" if name.endswith("_mb_s") else "ms")
                for name, values in self.timings.items()}
        return metrics, info
