"""Record the sha256 of every request a workload pass can contain.

    python3 perfbench/record_digests.py

Run from the repository root at a commit whose outputs are trusted; it
rewrites perfbench/digests.json (full and smoke sizes, all workloads).  Each
request must also pass its own dual-route verdict.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import WORKLOADS


def main():
    os.environ.pop("QPOLY_ORDER", None)
    sys.path.insert(0, str(run.SRC))
    mods = run.import_package()
    caches = run.Caches(mods)
    canon = mods["render"].polynomial_json_dict
    digests = {}
    for workload, (_, pool, *_) in WORKLOADS.items():
        for smoke in (True, False):
            for req in pool(mods, smoke):
                caches.clear()
                output, verdict = req.call()
                if not verdict:
                    raise SystemExit(f"dual-route check failed: {req.key}")
                digests[req.key] = run.digest_of(output, canon)
            print(f"{workload} smoke={smoke}: {len(digests)} digests so far", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
