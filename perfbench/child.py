"""Run one flipgroupoid CLI command in this fresh interpreter and time it.

    python3 perfbench/child.py META [--trace SPANS --command N] -- CLI-ARGS...

The parent notes the clock before it starts this process.  ``imported``
is the clock once ``flipgroupoid.cli`` is imported, so set-up is the
interpreter start plus that import; ``start`` and ``end`` bracket
``cli.main``.  The clock is ``time.perf_counter``, which is system-wide
on Linux, so parent and child times compare.  With ``--trace`` the
command runs under the tracer and its spans and counts go to SPANS.
Timings go to META as JSON; the command's stdout is this process's.
"""

import time
import json
import os
import resource
import sys
import traceback


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    meta_path = opts[0]
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    command = int(opts[opts.index("--command") + 1]) if "--command" in opts else 0

    import flipgroupoid.cli as cli

    imported, imported_cpu = time.perf_counter(), time.process_time()
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer(command)
    raised = None
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            code = cli.main(cli_args)
        else:
            code = tracer.install().call(cli.main, cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code, raised = 1, traceback.format_exc()
    end, end_cpu = time.perf_counter(), time.process_time()
    sys.stdout.flush()
    if tracer is not None:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    with open(meta_path, "w") as fh:
        json.dump({"pid": os.getpid(), "imported": imported, "start": start, "end": end,
                   "imported_cpu": imported_cpu, "start_cpu": start_cpu, "end_cpu": end_cpu,
                   "code": code, "raised": raised,
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
