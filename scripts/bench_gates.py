#!/usr/bin/env python3
"""The benchmark gates of CI: check one perfbench run's record.

    python perfbench/run.py --workload verify --seed 1 --seconds 1 --trace 1 \\
        | python scripts/bench_gates.py verify 1

The arguments are the workload and whether the run was traced (1 or 0);
the scan and verify gates read traced counts, so those two need a traced run.
The last two lines of the run's stdout are its full record (every metric)
and its result line.  Prints one summary line and exits 1 if the run is
not correct or breaks a gate.
"""

import json
import sys

# perfbench exempts the fig1c/fig1d pins from "correct"; every CSV must
# match its pinned checksum here
FIGURE_PIN_MISMATCHES = 0

# per scan pass, whatever the seed: 12 nu pairs x 2 parities x 2 ells, one
# validate_sector call per sector, the second sector of each parity served
# by the oracle's one-entry memo, each operator solved on the grids of
# steps h, h/2 and h/4 (12 x 2 x 2 x 3 = 144); the predicted brackets, the
# count and the fallback of the finest grid all run inside its one solve,
# so an extra solve of any grid breaks the gate
SCAN_SOLVES = 144

# per verify pass: apply_G runs 827 times (300 in the identity checks, 500
# for one G image per basis function of each of the 250 (nu, parity, ell)
# eigenpair cases, 27 in the findings)
VERIFY_APPLY_G_CALLS = 827

# per verify pass there are 16 radial operators, one per (nu, parity, ell),
# each solved on the grids of 300, 601 and 1203 nodes less those below its
# kappa cut (48 solves).  Nodes per operator, over its three grids: 2,051 at
# kappa = 1 (three operators), 1,606 at 1.8, 1,530 at 2 (three), 1,312 at
# 2.8, 1,271 at 3 (three), 1,142 at 3.8, 1,116 at 4 (three) and 1,030 at
# 4.8, 22,994 in all: a second solve of any operator breaks one of the two
# gates
VERIFY_SOLVES = 48
VERIFY_GRID_POINTS = 22_994


def check(workload: str, traced: bool, full: dict, last: dict) -> tuple[bool, list]:
    """(passed, summary line items) for one run's full record and result
    line."""
    ok = last["correct"] is True
    line = [workload, "correct:", last["correct"]]
    if workload == "figures":
        mismatches = full["metrics"]["pin_mismatches"]["value"]
        line += ["pin mismatches:", mismatches]
        ok = ok and mismatches == FIGURE_PIN_MISMATCHES
    if workload in ("scan", "verify") and not traced:
        # the solve gates read a traced count: an untraced record fails them
        return False, line + ["needs --trace 1 for radial_oracle.solves"]
    if traced:
        solves = last["metrics"]["radial_oracle.solves"]["value"]
        line += ["oracle solves:", solves]
        ok = ok and solves > 0
    if workload == "scan":
        line += ["radial_oracle.solves per pass:", solves]
        ok = ok and solves <= SCAN_SOLVES
    if workload == "verify":
        g_calls = last["metrics"]["angular.apply_G.calls"]["value"]
        nodes = last["metrics"]["radial_oracle.grid_points"]["value"]
        line += ["angular.apply_G.calls per pass:", g_calls,
                 "radial_oracle.solves per pass:", solves,
                 "radial_oracle.grid_points per pass:", nodes]
        ok = (ok and g_calls <= VERIFY_APPLY_G_CALLS and solves <= VERIFY_SOLVES
              and nodes <= VERIFY_GRID_POINTS)
    return ok, line


def main(argv: list[str], stdin) -> int:
    workload, traced = argv[0], argv[1] == "1"
    full, last = map(json.loads, stdin.read().splitlines()[-2:])
    ok, line = check(workload, traced, full, last)
    print(*line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], sys.stdin))
