"""Repeat runs, summarise their spread, and compare two sets of runs.

    python3 perfbench/steady.py run --workload pentagon -k 10 --out a.json
    python3 perfbench/steady.py compare a.json b.json
    python3 perfbench/steady.py overhead untraced.json traced.json

``run`` calls ``run.py`` k times with seeds ``--first-seed`` ..
``--first-seed + k - 1``, saves every result, and prints each metric's
median, quartiles and spread (the interquartile distance as a share of
the median).  ``compare`` judges a second set against a first by each
end-to-end metric's bound in ``BENCHMARK.json``: ``worse`` when the
median moved the wrong way by more than the bound, ``unresolved`` when
either set's spread is wider than the bound (unless every run of the
second set beats every run of the first), else ``better`` or
``no change``.  ``overhead`` reads the end-to-end numbers a ``--trace
1`` set measured under tracing against an untraced set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _spread(values: list[float]) -> float:
    q1, median, q3 = _quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["raw"] = {}
    for line in lines:
        if line.startswith("e2e-under-trace "):
            result["e2e_under_trace"] = json.loads(line.split(" ", 1)[1])
        elif line.startswith("raw "):
            name, value = line[4:].split(" = ")
            result["raw"][name] = float(value.split()[0])
        elif line.startswith("host steal: "):
            result["steal_pct"] = float(line.split()[2])
    return result


def summarise(results: list[dict], key: str = "metrics") -> None:
    """Quartiles and spread of each metric; for a host-speed scaled
    metric also the spread of the same runs' raw figures."""
    print(f"{'metric':44} {'unit':9} {'q1':>11} {'median':>11} "
          f"{'q3':>11} {'spread':>7} {'raw':>7}")
    for name in results[0][key]:
        values = [r[key][name]["value"] for r in results]
        q1, median, q3 = _quartiles(values)
        raw = ""
        if key == "metrics" and name in results[0].get("raw", {}):
            raw = f"{_spread([r['raw'][name] for r in results]):7.3f}"
        print(f"{name:44} {results[0][key][name]['unit']:9} {q1:11.5g} "
              f"{median:11.5g} {q3:11.5g} {_spread(values):7.3f} {raw:>7}")
    steal = [r["steal_pct"] for r in results if "steal_pct" in r]
    if steal:
        print("host steal % by run: " + " ".join(f"{v:.1f}" for v in steal))
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"runs {len(results)}, correct {all(r['correct'] for r in results)}, "
          f"failed shares {sorted(shares)}")


def compare(base: list[dict], new: list[dict]) -> None:
    for metric in _bench()["end_to_end"]:
        name = metric["name"]
        if name not in base[0]["metrics"] or name not in new[0]["metrics"]:
            continue
        old = [r["metrics"][name]["value"] for r in base]
        cur = [r["metrics"][name]["value"] for r in new]
        old_median, new_median = statistics.median(old), statistics.median(cur)
        sign = 1.0 if metric["better"] == "lower" else -1.0
        change = sign * (new_median - old_median) / abs(old_median)
        dominates = (max(cur) < min(old) if sign > 0 else min(cur) > max(old))
        bound = metric["bound"]
        if max(_spread(old), _spread(cur)) > bound and not dominates:
            verdict = "unresolved"
        elif change > bound:
            verdict = "worse"
        elif -change > _spread(old):
            verdict = "better"
        else:
            verdict = "no change"
        print(f"{name:28} {old_median:11.5g} -> {new_median:11.5g} "
              f"{metric['unit']:7} worse by {change:+7.2%} "
              f"(bound {bound:.0%}, spreads {_spread(old):.3f}/"
              f"{_spread(cur):.3f}): {verdict}")


def overhead(untraced: list[dict], traced: list[dict]) -> None:
    for name in untraced[0]["metrics"]:
        plain = statistics.median(r["metrics"][name]["value"] for r in untraced)
        under = statistics.median(r["e2e_under_trace"][name]["value"]
                                  for r in traced)
        print(f"{name:28} untraced {plain:11.5g}  traced {under:11.5g}  "
              f"ratio {under / plain:6.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("-k", type=int, default=5)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=None,
                     help="default: run_seconds of BENCHMARK.json")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", type=Path, required=True)
    for command in ("compare", "overhead"):
        pair = sub.add_parser(command)
        pair.add_argument("first", type=Path)
        pair.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        seconds = args.seconds or _bench()["run_seconds"]
        results = []
        for seed in range(args.first_seed, args.first_seed + args.k):
            results.append(run_once(args.workload, seed, seconds, args.trace))
            args.out.write_text(json.dumps(results))
        summarise(results)
        if args.trace:
            summarise(results, "e2e_under_trace")
        return 0
    first = json.loads(args.first.read_text())
    second = json.loads(args.second.read_text())
    (compare if args.command == "compare" else overhead)(first, second)
    return 0


if __name__ == "__main__":
    sys.exit(main())
