"""Set-up probe: one fresh interpreter doing one workload's set-up.

    python3 probe.py <repo root> <workload> [session anchors.json]

Imports what the workload's ops use (``analyze()`` imports its
liveness stages lazily; a first op would pay for them) and, for
``edit_loop``, opens the session anchors: decodes each graph and runs
the first ``EditSession.analyze()``.  Prints ``{"ready": t}`` with
``t`` on the monotonic clock, which the parent reads against the
moment it spawned this process.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    root, workload = Path(argv[1]), argv[2]
    sys.path.insert(0, str(root / "src"))
    from repro import analysis, io
    import repro.csdf.schedule  # noqa: F401
    import repro.tpdf.boundedness  # noqa: F401

    if workload == "simulate":
        import repro.sim.schedplane  # noqa: F401
    if workload == "edit_loop":
        for doc in json.loads(Path(argv[3]).read_text()):
            analysis.EditSession(io.graph_from_payload(doc)).analyze()
    print(json.dumps({"ready": time.monotonic()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
