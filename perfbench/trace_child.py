"""One traced CLI invocation, for the traced run of the cli workload.

    python3 perfbench/trace_child.py SPANS_FILE RUN_ID CLI_ARGS...

Installs the layer tracer, runs ``dunkl_pauli.cli.main(CLI_ARGS)`` and
writes the recorded spans to SPANS_FILE as JSON; exits with the CLI's code.
"""

import json
import sys

import spans


def main(argv) -> int:
    out, run_id, *cli_args = argv
    tracer = spans.Tracer(run_id)
    tracer.install()
    from dunkl_pauli import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
