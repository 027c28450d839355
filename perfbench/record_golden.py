"""Write golden.json: the stdout digest of every request at the default seed.

    python3 perfbench/record_golden.py

Record only from a commit whose outputs are known to be right: the benchmark
counts any later difference in a request's stdout as a failed request.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from braidalg import cli, fusion  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    golden = {}
    for workload in workloads.WORKLOADS:
        golden[workload] = {}
        for request in workloads.build(workload, workloads.DEFAULT_SEED):
            code, text = workloads.execute(request, cli.run, fusion.check_fusion_ring)
            why = workloads.failures(request, code, text, None)
            if why:
                print(f"error: {request.label}: {'; '.join(why)}", file=sys.stderr)
                return 1
            golden[workload][request.label] = workloads.digest(text)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
