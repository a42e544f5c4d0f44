"""Shared benchmark plumbing.

Every bench runs a deterministic simulation once (``benchmark.pedantic``
with a single round — repeating a deterministic run only wastes wall
time), prints the paper-style rows, and asserts the reproduction bands
from EXPERIMENTS.md.  Expensive experiments are cached so sibling benches
(Fig. 11/12 share one run; Fig. 15/16 share one run) reuse results.

``--trace-out DIR`` makes tracing-aware benches (the Fig. 13 breakdown)
write their Chrome ``trace_event`` JSON there, one file per trace,
loadable in chrome://tracing or Perfetto.

``--golden check`` compares every result :func:`run_once` produces with
the committed record in ``golden.json`` and fails on any moved value,
printing its old and new values; ``--golden update`` rewrites the
record's entries for the keys the session ran.  The simulation is
deterministic, so the record holds simulated values only and compares
floats exactly; the benches whose numbers are host-timed are listed in
the file's ``excluded`` map and never recorded.  Run it at full size
(``CI_FAST`` unset): ``PYTHONPATH=src python -m pytest benchmarks
--golden check``.
"""

import hashlib
import json
import numbers
import os

import pytest

_RESULTS = {}

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

#: Benches that measure host time: no record can pin their numbers.
HOST_TIMED = {
    "bench_ablation_index": "host-timed cost per ModelMap lookup",
    "bench_sim_hotpath": "host wall clock of the event engine and solver",
}

#: Result fields recorded by their SHA-256 instead of their text.
HASHED = ("chrome_trace_json",)

_golden = {"mode": None, "record": None, "ran": {}}


def pytest_addoption(parser):
    parser.addoption(
        "--trace-out", action="store", default=None, metavar="DIR",
        help="directory for Chrome trace JSON from tracing-aware benches")
    parser.addoption(
        "--golden", action="store", default=None,
        choices=("check", "update"),
        help="check every run_once result against benchmarks/golden.json, "
             "or rewrite the entries this session ran")


def pytest_configure(config):
    mode = config.getoption("--golden", default=None)
    if mode is None:
        return
    if os.environ.get("CI_FAST", "0") != "0":
        raise pytest.UsageError("--golden records full-size runs; "
                                "unset CI_FAST")
    _golden["mode"] = mode
    record = {"excluded": {}, "hashed": [], "bench": {}, "results": {}}
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH) as handle:
            record = json.load(handle)
    _golden["record"] = record


def pytest_sessionfinish(session, exitstatus):
    if _golden["mode"] != "update" or not _golden["ran"]:
        return
    record = _golden["record"]
    ran = _golden["ran"]
    modules = {bench for bench, _value in ran.values()}
    # A key its own bench ran without producing has gone from the suite.
    for key, bench in list(record["bench"].items()):
        if bench in modules and key not in ran:
            del record["bench"][key]
            del record["results"][key]
    for key, (bench, value) in ran.items():
        record["bench"][key] = bench
        record["results"][key] = value
    record["excluded"] = dict(HOST_TIMED)
    record["hashed"] = list(HASHED)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="session")
def trace_out_dir(request):
    """The --trace-out directory (created), or None when not requested."""
    path = request.config.getoption("--trace-out")
    if path is not None:
        os.makedirs(path, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def shared_results():
    """Cross-bench cache for experiments that feed several figures."""
    return _RESULTS


def run_once(benchmark, key, func, shared):
    """Run *func* under the benchmark fixture, caching into *shared*."""
    if key in shared:
        # A sibling bench already produced the data; time only the reuse.
        result = shared[key]
        benchmark.pedantic(lambda: result, rounds=1, iterations=1)
        return result
    result = benchmark.pedantic(func, rounds=1, iterations=1)
    shared[key] = result
    if _golden["mode"] is not None:
        _golden_record(key, result)
    return result


def canonical(value, hashed=False):
    """*value* as plain JSON data: str keys, lists, and every text under
    a :data:`HASHED` key as its SHA-256."""
    if isinstance(value, dict):
        return {str(k): canonical(v, hashed or k in HASHED)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v, hashed) for v in value]
    if isinstance(value, str) and hashed:
        return {"sha256": hashlib.sha256(value.encode()).hexdigest()}
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise TypeError(f"golden record cannot hold {type(value).__name__}")


def _text(value):
    return json.dumps(value, sort_keys=True)


def moved(old, new, path=""):
    """Yield ``(path, old, new)`` for every leaf that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from moved(old.get(key, "<absent>"),
                             new.get(key, "<absent>"), f"{path}.{key}")
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for index, (a, b) in enumerate(zip(old, new)):
            yield from moved(a, b, f"{path}[{index}]")
    elif _text(old) != _text(new):
        yield path, old, new


def _golden_record(key, result):
    value = canonical(result)
    bench = os.environ["PYTEST_CURRENT_TEST"].split("::")[0]
    bench = os.path.splitext(os.path.basename(bench))[0]
    if _golden["mode"] == "update":
        _golden["ran"][key] = (bench, value)
        return
    results = _golden["record"]["results"]
    if key not in results:
        pytest.fail(f"golden: {key} is not in {GOLDEN_PATH}; "
                    f"run --golden update", pytrace=False)
    lines = [f"  {key}{path}: {_text(old)} -> {_text(new)}"
             for path, old, new in moved(results[key], value)]
    if lines:
        pytest.fail(f"golden: {key} moved at {len(lines)} values\n"
                    + "\n".join(lines), pytrace=False)
