"""Print the evolved kernel's s rows, numerator work and moments over a
fixed case list, one line per case, for comparing checkouts.

    python3 tools/kernel_moments.py [SRC] > moments.txt

Imports gibbsdyn from SRC (default: this checkout's src) and prints, for
each case, its name, the row count S of the kernel's s grid, the
numerator rows reduced by the s-law's g-factor calls (`scan_rows` in the
support scan, `fine_rows` in the fine pass, the last call, each counted
again on a window rebuild), their total numerator work `rows_x_R`, the
sum of rows x r nodes over every reduction, and the kernel's mean,
variance and total_mass_defect by `repr`. The cases are the
evolved kernels of the finite_n benchmark workload at seed 0, the double
well at n = 3200 for t from 0.001 to 10, the double well, cosine_well(1)
and glued_exp(1) at n = 1e5, and |r| at its kink. Nothing is timed. Two
source trees give the same kernels exactly when

    diff <(python3 tools/kernel_moments.py A/src) <(python3 tools/kernel_moments.py B/src)

prints nothing; where they differ, the diff shows the numbers that moved.
S is read from the s grid that evolved_kernel hands to
kernels._gaussian_mixture, and the rows from kernels._GMachine.log_g and
its _log_num(grid, rows, quad, lw), so SRC needs those, not this tool.
The work counts are deterministic, unlike a timing.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

# the finite_n workload's ladder centre and drawn alphas at seed 0
BASE = 0.0006888437030500962


def _cases():
    ladder = [
        (f"double_well n={n} t={t} {'+' if sign > 0 else '-'}", "double_well", n, t, BASE + sign / math.sqrt(n))
        for t in (1.0, 0.2)
        for n in (50, 3200)
        for sign in (1.0, -1.0)
    ]
    return [
        *ladder,
        ("double_well n=64 t=0.1", "double_well", 64, 0.1, 0.0051590880588060495),
        ("cosine_1 n=100 t=1", "cosine_1", 100, 1.0, 0.284114316166169),
        ("glued_1 n=100 t=1", "glued_1", 100, 1.0, 0.2517833500585927),
        *[(f"zero n={n} t=1", "zero", n, 1.0, a) for n, a in
          ((2, 1.5338241641058254), (64, 2.351395767104318), (10000, 1.4297908624570674))],
        *[(f"double_well n=3200 t={t}", "double_well", 3200, t, BASE + 1.0 / math.sqrt(3200))
          for t in (0.001, 0.002, 0.01, 0.1, 1.0, 10.0)],
        *[(f"{name} n=100000 t={t}", name, 100_000, t, a)
          for name, t, a in (("double_well", 0.2, BASE + 1.0 / math.sqrt(100_000)),
                             ("double_well", 1.0, BASE + 1.0 / math.sqrt(100_000)),
                             ("cosine_1", 1.0, 0.3), ("glued_1", 1.0, 0.3))],
        ("abs n=400 t=0.5 kink", "abs", 400, 0.5, 0.0),
    ]


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: kernel_moments.py [SRC]", file=sys.stderr)
        return 2
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    from gibbsdyn import kernels, potential as pot

    specs = {
        "double_well": pot.polynomial([3.0, 0.0, -4.0, 0.0, 1.0]),
        "cosine_1": pot.cosine_well(1.0),
        "glued_1": pot.glued_exp(1.0),
        "zero": pot.zero(),
        "abs": pot.absolute(),
    }
    rows, calls = [], []
    mixture, log_g, log_num = kernels._gaussian_mixture, kernels._GMachine.log_g, kernels._GMachine._log_num

    def recording_mixture(s, *rest):
        rows.append(s.size)
        return mixture(s, *rest)

    def recording_log_g(machine, s):
        calls.append([])  # the (rows, R) of each numerator this call reduces
        return log_g(machine, s)

    def recording_log_num(machine, grid, n_rows, *rest):
        calls[-1].append((n_rows, grid[0].size))
        return log_num(machine, grid, n_rows, *rest)

    kernels._gaussian_mixture = recording_mixture
    kernels._GMachine.log_g = recording_log_g
    kernels._GMachine._log_num = recording_log_num
    for label, name, n, t, alpha in _cases():
        calls.clear()
        k = kernels.evolved_kernel(specs[name], n, t, alpha)
        scan = sum(S for call in calls[:-1] for S, _ in call)
        fine = sum(S for S, _ in calls[-1])
        work = sum(S * R for call in calls for S, R in call)
        print(f"{label}: S={rows[-1]} scan_rows={scan} fine_rows={fine} rows_x_R={work} "
              f"mean={k.mean!r} variance={k.variance!r} total_mass_defect={k.total_mass_defect!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
