"""Traced datanode: the benchmark's own entry point for one daemon.

Usage: ``python3 perfbench/dn_launch.py NODE_ID HOST:PORT HEARTBEAT_S
FAULT_SEED SPANS_PATH``.  It installs the datanode-side wrappers of
:mod:`tracing` and then runs :func:`repro.service.run_datanode`, the
same daemon ``python -m repro datanode`` starts.  Its spans stay in
memory and are written to ``SPANS_PATH`` when the daemon ends: on a
``shutdown`` request or on the ``SIGTERM`` the cluster harness sends
when it closes.  A daemon the fault plan SIGKILLs leaves no spans.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.net import parse_hostport  # noqa: E402
from repro.service import run_datanode  # noqa: E402

from tracing import Tracer, install_datanode  # noqa: E402


def main(argv: list[str]) -> int:
    node_id, namenode, heartbeat, fault_seed, spans_path = argv
    tracer = Tracer()
    install_datanode(tracer)

    def finish(*_signal_args) -> None:
        tracer.dump(spans_path)
        os._exit(0)

    signal.signal(signal.SIGTERM, finish)
    run_datanode(int(node_id), parse_hostport(namenode),
                 heartbeat_interval=float(heartbeat),
                 fault_seed=int(fault_seed))
    finish()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
