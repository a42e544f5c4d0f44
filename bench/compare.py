"""Compare two result files written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

Prints one row per workload and end-to-end metric with both values, the
change from A to B and the bound ``BENCHMARK.json`` fixes for it, plus
two guards kept beside the metrics: the share of open-loop ticks missed
may grow by at most 0.01, and the share of failed operations may not
grow at all.  It also requires the two runs to agree on ``sim_digest``,
the hash of every acknowledged (model, step, simulated time).

Exits 1 when any metric is outside its bound or a digest differs.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Guards on figures that may be 0, so they carry absolute bounds.
ABSOLUTE_GUARDS = (("slo_miss_frac", 0.01), ("failed_frac", 0.0))


def _row(workload, name, a, b, change, bound, ok) -> str:
    return (f"{workload:18s} {name:26s} {a:>14.6g} {b:>14.6g} "
            f"{change:>10s} {bound:>9s}  {'ok' if ok else 'WORSE'}")


def compare(a: dict, b: dict, spec: dict):
    """Yield (line, ok) for every comparison of *a* against *b*."""
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        old = a["workloads"].get(workload, {}).get("end_to_end")
        new = b["workloads"].get(workload, {}).get("end_to_end")
        if old is None or new is None:
            yield f"{workload:18s} missing from one of the runs", False
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before, after = old["metrics"][name], new["metrics"][name]
            change = (after - before) / before
            worse = change if metric["better"] == "lower" else -change
            ok = worse <= metric["bound"]
            yield _row(workload, name, before, after, f"{change:+.2%}",
                       f"{metric['bound']:.1%}", ok), ok
        for name, limit in ABSOLUTE_GUARDS:
            before, after = old["extra"][name], new["extra"][name]
            ok = after - before <= limit
            yield _row(workload, name, before, after,
                       f"{after - before:+.4f}", f"+{limit:g}", ok), ok
        same = old["extra"]["sim_digest"] == new["extra"]["sim_digest"]
        yield (f"{workload:18s} {'sim_digest':26s} "
               f"{old['extra']['sim_digest']:>14s} "
               f"{new['extra']['sim_digest']:>14s} "
               f"{'':>10s} {'equal':>9s}  {'ok' if same else 'DIFFERS'}",
               same)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py A.json B.json",
              file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print(f"note: A ran seed {a['seed']} at {a['scale']} scale, B seed "
              f"{b['seed']} at {b['scale']}; digests will differ")
    print(f"{'workload':18s} {'metric':26s} {'A':>14s} {'B':>14s} "
          f"{'change':>10s} {'bound':>9s}")
    failures = 0
    for line, ok in compare(a, b, spec):
        print(line)
        failures += not ok
    print(f"{failures} outside bounds" if failures else "all within bounds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
