"""One timed layerspec run in a fresh interpreter.

    python3 perfbench/child.py RESULT_JSON SRC_DIR [--trace RUN_ID] -- CLI_ARGS...

Imports ``layerspec.cli`` from SRC_DIR, calls ``layerspec.cli.main(CLI_ARGS)``
and writes to RESULT_JSON the monotonic clock reading right after the
import, the wall time of ``main``, its exit code, the process's peak
resident memory, the numerical environment and, with ``--trace``, the
per-layer metrics and spans.
"""

import sys
import time


def main(argv):
    result_path, src = argv[0], argv[1]
    rest = argv[2:]
    cli_args = rest[rest.index("--") + 1:]
    run_id = int(rest[rest.index("--trace") + 1]) if "--trace" in rest else None

    sys.path.insert(0, src)
    import layerspec.cli

    record = {"imported_at": time.monotonic()}

    # nothing else is imported before layerspec.cli, so setup_s measures only it
    import json
    import resource

    from environment import numeric_environment

    tracer = None
    if run_id is not None:
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    t0 = time.perf_counter()
    code = layerspec.cli.main(cli_args)
    record["wall_s"] = time.perf_counter() - t0
    record["exit_code"] = code
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["per_layer"] = tracer.metrics()
        record["spans"] = tracer.spans
    record["environment"] = numeric_environment()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
