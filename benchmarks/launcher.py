"""Run the nstar command line with span tracing installed.

    python3 benchmarks/launcher.py SPAN_FILE JOB_ID -- CLI_ARGS...

Imports `nstar.cli` (timing the import), installs the tracer, calls
`nstar.cli.main(CLI_ARGS)`, writes the spans to SPAN_FILE at exit and exits
with the command's own code. The package is found through PYTHONPATH, as
for `python -m nstar.cli`.
"""

from __future__ import annotations

import sys
from time import perf_counter


def main() -> int:
    span_file, job_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        print("usage: launcher.py SPAN_FILE JOB_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    t0 = perf_counter()
    import nstar.cli

    import_s = perf_counter() - t0
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.job = int(job_id)
    code = 1
    try:
        code = nstar.cli.main(cli_args)
    finally:
        tracer.dump(span_file, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
