#!/usr/bin/env python3
"""Regenerate every figure bundle (all 8 layouts, panels a-d) as CSV.

Each bundle lands in the output directory together with a JSON manifest
naming the curves and the exact configuration used; see `dunkl-pauli figure
--help` for single-panel runs and overrides.  Each layout's line gives its
wall time.
"""

import argparse
import sys
import time

from dunkl_pauli.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="figures", help="output directory")
    ap.add_argument("--mode", default="consistent",
                    choices=("consistent", "paper-faithful"))
    ap.add_argument("--steps", type=int, default=400)
    args = ap.parse_args()

    for fig in range(1, 9):
        t0 = time.perf_counter()
        rc = cli_main(["figure", "--figure", str(fig), "--out", args.out,
                       "--mode", args.mode, "--steps", str(args.steps)])
        if rc != 0:
            return rc
        print(f"figure {fig}: wrote panels a-d to {args.out}/ "
              f"in {time.perf_counter() - t0:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
