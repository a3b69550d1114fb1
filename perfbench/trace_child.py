"""Run one homstab CLI call under the benchmark's tracer.

    python trace_child.py TRACE_OUT CLI_ARG...

behaves like ``python -m homstab.cli CLI_ARG...`` (same output, same exit
code) and also writes the tracer's export and the lru-cache hit/miss totals
to TRACE_OUT as JSON.  ``homstab`` must be importable (PYTHONPATH).
"""

import json
import sys
from pathlib import Path

import metrics
import tracer


def main() -> int:
    out = Path(sys.argv[1])
    import homstab
    import homstab.cli

    modules = tracer.package_modules(homstab)
    caches = tracer.CacheBook(modules)
    tr = tracer.Tracer()
    tr.install(modules, metrics.TRACE_TARGETS)
    try:
        code = tr.run_op(0, homstab.cli.main, sys.argv[2:])
    finally:
        tr.restore()
    sys.stdout.flush()
    doc = tr.export()
    doc["caches"] = caches.totals()
    out.write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
