"""Traced twin of one CLI job, run in a fresh process.

    python cli_worker.py SPANS.json VERB [ARGS...]

Times ``import gasketlab.cli``, installs the span tracer, runs
``gasketlab.cli.main(argv)`` and writes the spans, the import time and
the package's cache counters to SPANS.json when it ends.  The exit code
is the verb's.
"""

import json
import sys
import time

import tracer as tracing


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import gasketlab.cli
    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    code = gasketlab.cli.main(argv)
    doc = {"import_s": import_s, "spans": tracer.spans,
           "caches": tracing.cache_counts(tracer.caches)}
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
