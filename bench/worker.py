"""Benchmark worker: one cold process that runs a list of genusone CLI commands.

Started by ``run.py`` as ``python3 bench/worker.py SRC_DIR``.  It speaks one
JSON line each way over stdin/stdout:

    worker -> parent   {"ready": true}
        once ``genusone.cli`` is imported from SRC_DIR (end of set-up)
    parent -> worker   {"commands": [[argv...], ...], "trace": bool, "run": int}
    worker -> parent   {"results": [...], "cpu_s": ..., "peak_rss_kb": ...,
                        "spans": [...] or null}

Each result holds the command's exit status, its captured stdout, its
wall time inside the worker, and the traceback if it raised.  ``cpu_s``
is this process's user+sys time over the command loop only, and
``peak_rss_kb`` its peak resident set, both from ``getrusage``.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_commands(cli, commands, tracer, run):
    results = []
    for index, argv in enumerate(commands):
        if tracer is not None:
            tracer.run = f"{run}.{index}"
        out, err = io.StringIO(), io.StringIO()
        status, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        results.append({"status": status, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "error": error,
                        "seconds": elapsed})
    return results


def main() -> int:
    src = os.path.realpath(sys.argv[1])
    sys.path.insert(0, src)
    import genusone
    import genusone.cli as cli
    origin = os.path.realpath(genusone.__file__ or "")
    if not origin.startswith(src + os.sep):
        print(f"worker: genusone was imported from {origin}, not from {src}",
              file=sys.stderr)
        return 1
    channel = sys.stdout
    channel.write(json.dumps({"ready": True}) + "\n")
    channel.flush()

    request = json.loads(sys.stdin.readline())
    tracer = None
    if request["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    try:
        results = run_commands(cli, request["commands"], tracer, request["run"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = resource.getrusage(resource.RUSAGE_SELF)
    channel.write(json.dumps({
        "results": results,
        "cpu_s": _cpu_seconds(after) - _cpu_seconds(before),
        "peak_rss_kb": after.ru_maxrss,
        "spans": tracer.spans if tracer is not None else None,
    }) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
