"""qpoly benchmark: one workload, closed loop, one client, one thread.

    python3 perfbench/run.py --workload frontier|cli-session|verify-all \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The package is imported from src/ (it need
not be installed) with QPOLY_ORDER removed from the environment.  A run is
a fixed whole number of passes of the workload (see workloads.py), about S
seconds of work on the VM where the benchmark was defined.  Every request's output is
checked against the sha256 recorded in digests.json and against the
program's own dual-route verdict.

The host's speed drifts (by up to 1.5x on the VM where this was written), so
a short fixed pure-Python loop, the probe, runs after every request; each
request's time is scaled by the probes on either side of it to a host whose
probe takes PROBE_REF_S.  The reported times are in those reference seconds;
the times as measured are printed above the result line.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the passes for
S/2 seconds untraced, replays the same requests with spans around the public
functions of each layer (spans.py), and reports the per-layer metrics.
--smoke runs one pass at tiny sizes.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_SAMPLES = 16
# The probe loop and its time on the host where the benchmark was defined (a
# 2-core x86-64 VM, Python 3.11).  Reported times are scaled to that host.
PROBE_LOOPS = 50_000
PROBE_REF_S = 0.005

# The lru_cache functions present when the benchmark was defined; caches are
# found by introspection, and one of these that is gone reads as 0.
CACHE_NAMES = ("q_number", "q_factorial", "quesne_c", "hermite_classical",
               "gegenbauer_classical", "q_hermite", "q_laguerre", "q_gegenbauer_direct",
               "partitions_of", "_hermite_u", "_hermite_v", "hermite_connection",
               "classical_log_coefficients", "gegenbauer_connection")


def environment():
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return (f"python {sys.version.split()[0]}, nproc {len(os.sched_getaffinity(0))}, "
            f"commit {commit}")


def load_digests():
    return json.loads(DIGESTS.read_text())


def import_package():
    """Import qpoly afresh from src/ and return its modules by short name."""
    for mod in spans.package_modules().values():
        del sys.modules[mod.__name__]
    importlib.import_module(spans.PACKAGE)
    importlib.import_module(spans.PACKAGE + ".cli")
    return spans.package_modules()


def time_setup(workload, smoke):
    """Seconds to import qpoly afresh and build the workload's request list.
    The modules in use before the call are put back afterwards."""
    in_use = spans.package_modules()
    t0 = time.perf_counter()
    mods = import_package()
    WORKLOADS[workload][1](mods, smoke)
    elapsed = time.perf_counter() - t0
    for mod in mods.values():
        del sys.modules[mod.__name__]
    sys.modules.update({mod.__name__: mod for mod in in_use.values()})
    gc.collect()
    return elapsed


class Caches:
    """The package's lru caches, found by introspection; keeps hit and miss
    totals per function name across cache_clear, which resets them."""

    def __init__(self, mods):
        found = {}
        for mod in mods.values():
            holders = [mod] + [v for v in vars(mod).values()
                               if isinstance(v, type) and v.__module__ == mod.__name__]
            for holder in holders:
                for value in vars(holder).values():
                    if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                        found[id(value)] = value
        self.fns = list(found.values())
        self.names = sorted({fn.__name__ for fn in self.fns})
        self.reset()

    def reset(self):
        self.hits = dict.fromkeys(self.names, 0)
        self.misses = dict.fromkeys(self.names, 0)
        self.peak_entries = 0

    def clear(self):
        entries = 0
        for fn in self.fns:
            info = fn.cache_info()
            self.hits[fn.__name__] += info.hits
            self.misses[fn.__name__] += info.misses
            entries += info.currsize
            fn.cache_clear()
        self.peak_entries = max(self.peak_entries, entries)


def digest_of(output, canon):
    if not isinstance(output, str):
        output = json.dumps(canon(output, "bench", 0), sort_keys=True)
    return hashlib.sha256(output.encode()).hexdigest()


def probe():
    """Seconds taken by a fixed pure-Python loop: a reading of how fast the
    host runs Python at this moment."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def to_reference(elapsed, probe_before, probe_after):
    """Scale a time measured between two probes to a host whose probe takes
    PROBE_REF_S."""
    return elapsed * 2 * PROBE_REF_S / (probe_before + probe_after)


class Outcome:
    def __init__(self):
        self.latencies = []   # seconds as measured
        self.scaled = []      # the same, in reference seconds
        self.failed_keys = []
        self.passes = 0
        self.wall = 0.0

    @property
    def speed(self):
        """Measured over reference time of the requests: 1.0 on a host whose
        probe takes PROBE_REF_S, above 1 on a slower one."""
        return sum(self.latencies) / sum(self.scaled)


def run_passes(mods, workload, seed, smoke, digests, caches, canon, passes, tracer=None,
               setup_samples=None):
    """Closed loop over `passes` whole passes of the workload.  A probe runs
    after every request, and each request's time is also scaled by the mean of
    the probes on either side of it.  With a `setup_samples` list, set-up is
    timed SETUP_SAMPLES times in all, spread over the gaps before, between and
    after the passes, and that time is left out of the wall time."""
    make_pass, _, clear, _ = WORKLOADS[workload]
    rng = random.Random(seed)
    out = Outcome()
    clock = time.perf_counter
    setup_time = 0.0

    def sample_setup(gap):
        nonlocal setup_time
        if setup_samples is not None:
            t0 = clock()
            for _ in range(SETUP_SAMPLES * (gap + 1) // (passes + 1) - len(setup_samples)):
                before = probe()
                elapsed = time_setup(workload, smoke)
                setup_samples.append(to_reference(elapsed, before, probe()))
            setup_time += clock() - t0

    t_start = clock()
    last_probe = probe()
    for gap in range(passes):
        sample_setup(gap)
        requests = make_pass(mods, rng, smoke, gap)
        if clear == "pass":
            caches.clear()
        for req in requests:
            if clear == "request":
                caches.clear()
            if tracer is not None:
                tracer.request_id += 1
            t0 = clock()
            try:
                output, verdict = req.call()
            except Exception as exc:  # a request that raises is a failed request
                output, verdict = f"{type(exc).__name__}: {exc}", False
            elapsed = clock() - t0
            now = probe()
            out.latencies.append(elapsed)
            out.scaled.append(to_reference(elapsed, last_probe, now))
            last_probe = now
            try:
                ok = verdict and digest_of(output, canon) == digests.get(req.key)
            except Exception:  # output the canonical form cannot take
                ok = False
            if not ok:
                out.failed_keys.append(req.key)
        out.passes += 1
    sample_setup(passes)
    out.wall = clock() - t_start - setup_time
    caches.clear()
    return out


def pass_count(workload, seconds, smoke):
    """The workload's passes for a 30-second run, scaled to `seconds`.  The
    count, not the clock, ends a run, so every version does the same work."""
    return 1 if smoke else max(1, round(WORKLOADS[workload][3] * seconds / 30))


def tail_latency(latencies):
    """(value, percentile, samples): the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace, smoke=False, digests=None, log=print):
    """Run one workload and return the result object."""
    if not (SRC / spans.PACKAGE / "__init__.py").is_file():
        raise FileNotFoundError(f"{SRC / spans.PACKAGE} not found; run from a qpoly checkout")
    os.environ.pop("QPOLY_ORDER", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    digests = load_digests() if digests is None else digests

    mods = import_package()
    caches = Caches(mods)
    canon = mods["render"].polynomial_json_dict

    log(f"env: {environment()}, qpoly from {Path(mods['qpoly'].__file__).parent}")
    args = (mods, workload, seed, smoke, digests, caches, canon)
    if not trace:
        setup_times = []
        res = run_passes(*args, pass_count(workload, seconds, smoke), setup_samples=setup_times)
        attempted, failed = len(res.latencies), len(res.failed_keys)
        tail, pct, n = tail_latency(res.scaled)
        raw_tail = tail_latency(res.latencies)[0]
        log(f"{workload} seed {seed}: {res.passes} passes, {attempted} requests, "
            f"{failed} failed (fail_ratio {failed / attempted:.4g}), wall {res.wall:.3f} s")
        log(f"host speed {res.speed:.4f} x reference; as measured: "
            f"ops_per_s {attempted / sum(res.latencies):.5g}, "
            f"latency_p50_s {statistics.median(res.latencies):.5g}, latency_tail_s {raw_tail:.5g}")
        log(f"latency_tail_s is p{pct:.4g} of {n} samples")
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "ops_per_s": _metric(attempted / sum(res.scaled), "1/s"),
            "latency_p50_s": _metric(statistics.median(res.scaled), "s"),
            "latency_tail_s": _metric(tail, "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        failed_keys = res.failed_keys
    else:
        plain = run_passes(*args, pass_count(workload, seconds / 2, smoke))
        caches.reset()
        tracer = spans.Tracer()
        tracer.install(mods)
        try:
            res = run_passes(*args, plain.passes, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics, report = layer_metrics(tracer, caches, res, plain)
        for line in report:
            log(line)
        attempted = len(plain.latencies) + len(res.latencies)
        failed_keys = plain.failed_keys + res.failed_keys
        failed = len(failed_keys)
    for key in sorted(set(failed_keys)):
        log(f"FAILED: {key}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_metrics(tracer, caches, res, plain):
    calls, self_s, dur = tracer.summary()
    nreq = len(res.latencies)
    metrics = {}
    for name in spans.TARGET_NAMES:
        metrics[f"{name}.calls"] = _metric(calls.get(name, 0) / nreq, "count/req")
        metrics[f"{name}.self_s"] = _metric(self_s.get(name, 0.0) / nreq / res.speed, "s/req")
    report = [f"traced {res.passes} passes, {nreq} requests, host speed {res.speed:.4f} x reference; "
              "per-layer figures are per request"]
    missing = [c for c in CACHE_NAMES if c not in caches.hits]
    for name in CACHE_NAMES:
        hits, misses = caches.hits.get(name, 0), caches.misses.get(name, 0)
        metrics[f"cache.{name}.hit_ratio"] = _metric(hits / (hits + misses) if hits + misses else 0.0,
                                                    "ratio")
    for name in caches.names:
        report.append(f"cache {name}: {caches.hits[name]} hits, {caches.misses[name]} misses")
    metrics["cache.entries"] = _metric(caches.peak_entries, "count")
    metrics["field.share"] = _metric(tracer.inclusive(dur, "field.") / res.wall, "ratio")
    metrics["field.poly_gcd.share"] = _metric(tracer.inclusive(dur, "field.poly_gcd") / res.wall,
                                              "ratio")
    metrics["trace.overhead_ratio"] = _metric(sum(res.scaled) / sum(plain.scaled), "ratio")
    layered = sum(self_s.values())
    report.append(f"traced wall {res.wall:.4f} s = layer self time {layered:.4f} s "
                  f"+ untraced remainder {res.wall - layered:.4f} s")
    for layer in dict.fromkeys(name.split(".")[0] for name in spans.TARGET_NAMES):
        total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        report.append(f"  {layer}: {total:.4f} s self")
    report.append(f"skipped: {', '.join(tracer.skipped + missing) or 'none'}")
    return metrics, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at tiny sizes")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
