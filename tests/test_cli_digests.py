"""Byte-exact CLI output: every `eval` and `connect` request of the
benchmark's cli-session pool (every family and format, n <= 8, k <= n), each
on cold caches, passes its own dual-route verdict and prints the stdout whose
sha256 perfbench/digests.json records."""

import hashlib
import json
import pathlib
import sys
import types

import qpoly.cli
import qpoly.render

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _bench_workloads():
    """perfbench/workloads.py run from its source, so that nothing is written
    under perfbench/ and the bench's own modules are not imported."""
    path = BENCH / "workloads.py"
    module = types.ModuleType("qpoly_bench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclass creation looks it up
    try:
        exec(compile(path.read_text(), str(path), "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


def _clear_caches():
    for name, mod in list(sys.modules.items()):
        if name.startswith("qpoly."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_cli_pool_matches_recorded_digests():
    digests = json.loads((BENCH / "digests.json").read_text())
    mods = {"cli": qpoly.cli, "render": qpoly.render}
    requests = _bench_workloads().cli_pool(mods, smoke=False)
    assert len(requests) == 567
    wrong = []
    for req in requests:
        _clear_caches()
        output, verdict = req.call()
        if not verdict or hashlib.sha256(output.encode()).hexdigest() != digests[req.key]:
            wrong.append(req.key)
    assert wrong == []
