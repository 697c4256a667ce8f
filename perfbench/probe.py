"""Fresh-interpreter probes, each run as its own child process.

    python3 perfbench/probe.py setup WORKLOAD SEED WORKDIR
        generate the workload's inputs, import and warm its layers, exit;
        the parent times the whole child, interpreter start included.
    python3 perfbench/probe.py import
        print JSON with the seconds to import dunkl_pauli and
        dunkl_pauli.cli, and the number of modules the CLI import loads.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main(argv) -> int:
    if argv[:1] == ["import"]:
        before = len(sys.modules)
        t0 = perf_counter()
        import dunkl_pauli  # noqa: F401
        t1 = perf_counter()
        import dunkl_pauli.cli  # noqa: F401
        t2 = perf_counter()
        print(json.dumps({"pkg_s": t1 - t0, "cli_s": t2 - t0,
                          "modules": len(sys.modules) - before}))
        return 0
    if argv[:1] == ["setup"] and len(argv) == 4:
        import workloads
        wl = workloads.WORKLOADS[argv[1]]
        env = workloads.Env(root=Path(__file__).resolve().parent.parent,
                            work=Path(argv[3]))
        wl.setup(wl.generate(int(argv[2])), env)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
