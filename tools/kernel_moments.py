"""Print the evolved kernel's s rows and moments over a fixed case list, one
line per case, for comparing checkouts.

    python3 tools/kernel_moments.py [SRC] > moments.txt

Imports gibbsdyn from SRC (default: this checkout's src) and prints, for
each case, its name, the row count S of the kernel's s grid, and the
kernel's mean, variance and total_mass_defect by `repr`. The cases are the
evolved kernels of the finite_n benchmark workload at seed 0, the double
well at n = 3200 for t from 0.001 to 10, the double well, cosine_well(1)
and glued_exp(1) at n = 1e5, and |r| at its kink. Nothing is timed. Two
source trees give the same kernels exactly when

    diff <(python3 tools/kernel_moments.py A/src) <(python3 tools/kernel_moments.py B/src)

prints nothing; where they differ, the diff shows the numbers that moved.
S is read from the s grid that evolved_kernel hands to
kernels._gaussian_mixture, so SRC needs that function, not this tool.
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
    rows = []
    mixture = kernels._gaussian_mixture

    def recording_mixture(s, *rest):
        rows.append(s.size)
        return mixture(s, *rest)

    kernels._gaussian_mixture = recording_mixture
    for label, name, n, t, alpha in _cases():
        k = kernels.evolved_kernel(specs[name], n, t, alpha)
        print(f"{label}: S={rows[-1]} mean={k.mean!r} variance={k.variance!r} "
              f"total_mass_defect={k.total_mass_defect!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
