"""Print each benchmark job's `job-id sha256` line and its results, for
comparing checkouts.

    python3 tools/job_digests.py WORKLOAD SEED > digests.txt

Runs the benchmark's set-up and one pass of WORKLOAD (phase_diagram,
finite_n or classify) at SEED through perfbench's own `run.Bench`, in a
temporary directory, and prints each job's output digest (exit code,
stdout and every output file), followed by its results on one line: a CLI
job's report `results` as JSON with sorted keys, a library job's value by
`repr`. Nothing is timed or reported. Two checkouts give the same outputs
exactly when

    diff <(python3 A/tools/job_digests.py classify 0) <(python3 B/tools/job_digests.py classify 0)

prints nothing; where their digests differ, the diff shows the numbers
that moved. Jobs whose output fails the benchmark's checks are named on
stderr, and the exit status is then 1.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (pins the thread pools and locates ./src)


def _results_line(job, out) -> str:
    if out is None:
        return "no output"
    if job.argv is None:
        return repr(out.value)
    if out.rc != 0:
        return f"exit code {out.rc}"
    return json.dumps(out.results, sort_keys=True)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in run.WORKLOAD_NAMES or not argv[1].isdigit():
        print(f"usage: job_digests.py {{{','.join(run.WORKLOAD_NAMES)}}} SEED", file=sys.stderr)
        return 2
    run._import_package()
    with tempfile.TemporaryDirectory() as tmp:
        bench = run.Bench(argv[0], int(argv[1]), Path(tmp))
        bench.setup_round()
        for job in bench.jobs:  # run.Bench.run_pass without its timing
            _, out, error = bench.execute(job)
            _, digest = bench.judge(job, out, error)
            print(job.id, digest)
            print(_results_line(job, out))
    for job, problems in bench.problems.items():
        print(f"job_digests.py: {job} failed: {problems}", file=sys.stderr)
    return 1 if bench.problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
