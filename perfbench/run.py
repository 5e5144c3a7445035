"""gibbsdyn benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload phase_diagram --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the package is imported from ./src. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 times the workload and reports the
end-to-end metrics; --trace 1 runs one untraced and one traced pass and
reports the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One process, one thread: pin the BLAS and OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference_seed0.json"

DEFAULT_SEED = 0
SETUP_ROUNDS = 7
MIN_PASSES = 2
WORKLOAD_NAMES = ("phase_diagram", "finite_n", "classify")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p75_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# Times `import gibbsdyn` in a fresh interpreter. The third-party modules the
# package imports today are loaded first: their import time is large, noisy
# and no change to gibbsdyn can move it; any other import gibbsdyn adds is timed.
_IMPORT_PROBE = (
    "import time\n"
    "import numpy, scipy.special\n"
    "start = time.perf_counter()\n"
    "import gibbsdyn\n"
    "print(time.perf_counter() - start)\n"
)


def _import_package():
    """Import gibbsdyn from ./src, never from an installed copy."""
    if not (SRC / "gibbsdyn" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no gibbsdyn sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import gibbsdyn

    if Path(gibbsdyn.__file__).resolve().parent != (SRC / "gibbsdyn").resolve():
        raise SystemExit(f"run.py: imported gibbsdyn from {gibbsdyn.__file__}, not from {SRC}")


@contextlib.contextmanager
def _workdir():
    """A per-process scratch directory under .perfbench, removed afterwards."""
    path = WORK / f"work-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@dataclass
class Output:
    """What one job produced: CLI exit code, stdout and files, or a library value."""

    rc: int = 0
    stdout: str = ""
    files: dict = field(default_factory=dict)
    value: object = None

    def _doc(self) -> dict:
        (name,) = [n for n in self.files if n.endswith(".json")]
        return json.loads(self.files[name])

    @property
    def results(self) -> dict:
        return self._doc()["results"]

    @property
    def params(self) -> dict:
        return self._doc()["params"]

    def text(self, name: str) -> str:
        return self.files[name].decode("utf-8")

    def nbytes(self) -> int:
        return sum(len(b) for b in self.files.values())

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr((self.rc, self.stdout, self.value)).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name])
        return h.hexdigest()


@dataclass
class Record:
    job: str
    seconds: float  # wall time of the job
    probe: float  # speed probe run just before it
    ok: bool
    digest: str
    nbytes: int
    scaled: float = 0.0  # seconds at the reference speed, set by rescale()


def rescale(records: list[Record]) -> list[Record]:
    for r, k in zip(records, speed.scales([r.probe for r in records])):
        r.scaled = r.seconds * k
    return records


class Bench:
    """One workload in one process: set-up, timed passes, checks."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import workloads

        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.outdir = workdir / "out"
        self.specs: dict = {}
        self.jobs = workloads.build(workload, seed, self.spec_path, self.specs)
        self.verdicts: dict[str, tuple[str, list]] = {}  # job id -> (first digest, problems)
        self.problems: dict[str, list] = {}
        self.reference = None
        if seed == DEFAULT_SEED and REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text()).get(workload)

    def spec_path(self, name: str) -> str:
        return str(self.workdir / "specs" / f"{name}.json")

    # -- set-up -------------------------------------------------------------

    def setup_round(self) -> float:
        """Import in a fresh interpreter, write and parse every spec, warm up."""
        import workloads
        from gibbsdyn import potential

        env = dict(os.environ, PYTHONPATH=str(SRC))
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        import_s = float(probe.stdout.strip().splitlines()[-1])

        start = time.perf_counter()
        shutil.rmtree(self.workdir / "specs", ignore_errors=True)
        (self.workdir / "specs").mkdir(parents=True)
        self.outdir.mkdir(parents=True, exist_ok=True)
        for name in workloads.spec_names(self.jobs):
            path = self.spec_path(name)
            Path(path).write_text(json.dumps(workloads.SPECS[name]), encoding="utf-8")
            self.specs[name] = potential.from_json(path)
        for job in workloads.warmups(self.workload, self.spec_path):
            self.execute(job)
        return import_s + time.perf_counter() - start

    # -- jobs ---------------------------------------------------------------

    def execute(self, job) -> tuple[float, Output | None, str | None]:
        """Run one job; returns (seconds, output, error)."""
        from gibbsdyn import cli

        for p in self.outdir.iterdir():
            p.unlink()
        seconds = 0.0
        try:
            if job.argv is not None:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    start = time.perf_counter()
                    try:
                        rc = cli.run(job.argv + ["--out", str(self.outdir)])
                    except SystemExit as exc:  # argparse rejected the arguments
                        rc = exc.code if isinstance(exc.code, int) else 1
                    finally:
                        seconds = time.perf_counter() - start
                files = {p.name: p.read_bytes() for p in sorted(self.outdir.iterdir())}
                return seconds, Output(rc=rc, stdout=buf.getvalue(), files=files), None
            start = time.perf_counter()
            try:
                value = job.call(self.specs)
            finally:
                seconds = time.perf_counter() - start
            return seconds, Output(value=value), None
        except Exception:  # a failing job is counted, never fatal
            return seconds, None, traceback.format_exc(limit=3)

    def judge(self, job, out: Output | None, error: str | None) -> tuple[bool, str]:
        """Check a job's output the first time it is seen; later runs must
        reproduce the same output bitwise."""
        if out is None:
            self.problems.setdefault(job.id, []).append(error)
            return False, ""
        digest = out.digest()
        if job.id in self.verdicts:
            first, problems = self.verdicts[job.id]
            if digest != first:
                self.problems.setdefault(job.id, []).append("output differs from its first run")
                return False, digest
            return not problems, digest
        problems = []
        if out.rc != 0:
            problems.append(f"exit code {out.rc}")
        else:
            try:
                problems += job.check(out)
                if self.reference is not None:
                    problems += compare(job.summary(out), self.reference.get(job.id))
            except Exception:  # a check that cannot read the output is a failure
                problems.append(traceback.format_exc(limit=3))
        self.verdicts[job.id] = (digest, problems)
        if problems:
            self.problems.setdefault(job.id, []).extend(problems)
        return not problems, digest

    def run_pass(self, tracer=None) -> list[Record]:
        records = []
        for job in self.jobs:
            if tracer is not None:
                tracer.job = job.id
            probe = speed.probe()
            seconds, out, error = self.execute(job)
            ok, digest = self.judge(job, out, error)
            records.append(Record(job.id, seconds, probe, ok, digest, out.nbytes() if out else 0))
        return records


def _close(got, want, tol) -> bool:
    if isinstance(got, (list, tuple)) and isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(_close(g, w, tol) for g, w in zip(got, want))
    if tol is None or isinstance(got, (str, bool)) or isinstance(want, (str, bool)):
        return got == want
    return abs(got - want) <= tol


def compare(summary: dict, recorded: dict | None) -> list[str]:
    """Differences between a job's summary and the recorded outputs."""
    if recorded is None:
        return ["no recorded output for this job"]
    problems = []
    for key, (value, tol) in summary.items():
        if key not in recorded:
            problems.append(f"{key}: not recorded")
        elif not _close(value, recorded[key], tol):
            problems.append(f"{key}: {value!r} differs from recorded {recorded[key]!r} (tolerance {tol})")
    return problems


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(bench: Bench, seconds: float) -> tuple[dict, list[Record]]:
    """Timed passes over the job list until the next pass would overrun."""
    setup, setup_probes = [], []
    for _ in range(SETUP_ROUNDS):
        setup_probes.append(speed.probe())
        setup.append(bench.setup_round())
    passes: list[list[Record]] = []
    start = time.perf_counter()
    while True:
        passes.append(bench.run_pass())
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + sum(r.seconds for r in passes[-1]) > seconds:
            break
    records = rescale([r for batch in passes for r in batch])
    times = [r.scaled for r in records]
    failed = sum(not r.ok for r in records)
    metrics = {
        "setup_s": statistics.median(setup) * speed.REFERENCE_S / statistics.median(setup_probes),
        "wall_s": statistics.median(sum(r.scaled for r in batch) for batch in passes),
        "job_p50_s": _percentile(times, 50),
        "job_p75_s": _percentile(times, 75),
        "peak_rss_mb": _peak_rss_mb(),
        "ok_frac": 1.0 - failed / len(records),
    }
    raw_walls = [sum(r.seconds for r in batch) for batch in passes]
    print(
        f"{bench.workload}: seed {bench.seed}, {len(passes)} passes x {len(bench.jobs)} jobs "
        f"= {len(records)} job runs, {failed} failed (failed_frac {failed / len(records):.4g})"
    )
    print(
        f"  unscaled: setup {statistics.median(setup):.4g} s, pass walls {[round(w, 3) for w in raw_walls]} s, "
        f"speed probe {statistics.median(r.probe for r in records) * 1e3:.4g} ms"
    )
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, records


def trace(bench: Bench) -> tuple[dict, list[Record]]:
    """A traced pass between two untraced ones; per-layer metrics from the
    traced pass, overhead against the mean of the untraced two."""
    from tracer import Tracer, layer_metrics

    bench.setup_round()
    before = bench.run_pass()
    tracer = Tracer().install()
    try:
        traced = bench.run_pass(tracer)  # judge() holds it to the untraced outputs
    finally:
        tracer.uninstall()
    after = bench.run_pass()
    rescale(before + traced + after)
    path = WORK / f"trace-{bench.workload}-seed{bench.seed}.jsonl"
    tracer.write_spans(path)
    metrics = {k: _metric(v, u) for k, (v, u) in layer_metrics(tracer, sum(r.nbytes for r in traced)).items()}
    plain_wall = (sum(r.scaled for r in before) + sum(r.scaled for r in after)) / 2.0
    metrics["trace.overhead_s"] = _metric(sum(r.scaled for r in traced) - plain_wall, "s")
    print(f"{bench.workload}: seed {bench.seed}, traced {len(traced)} jobs, {len(tracer.spans)} spans -> {path}")
    return metrics, before + traced + after


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    with _workdir() as workdir:
        bench = Bench(workload, seed, workdir)
        metrics, records = trace(bench) if traced else measure(bench, seconds)
    for job_id, problems in sorted(bench.problems.items()):
        print(f"FAIL {job_id}: {problems[0].strip().splitlines()[-1]}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    failed = sum(not r.ok for r in records)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}


def record_reference(workload: str):
    """Write the outputs of one pass at the default seed to the reference file."""
    with _workdir() as workdir:
        bench = Bench(workload, DEFAULT_SEED, workdir)
        bench.reference = None
        bench.setup_round()
        recorded = {}
        for job in bench.jobs:
            _, out, error = bench.execute(job)
            ok, _ = bench.judge(job, out, error)
            if not ok:
                raise SystemExit(f"run.py: {job.id} fails its checks; not recording: {bench.problems[job.id]}")
            recorded[job.id] = {k: v for k, (v, _) in job.summary(out).items()}
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    doc[workload] = dict(sorted(recorded.items()))
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} {workload} jobs in {REFERENCE}")


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"run.py: workload {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write this workload's outputs at the default seed to reference_seed0.json")
    args = parser.parse_args(argv)

    if args.workload == "all":
        result = run_all(args)
    else:
        _import_package()
        WORK.mkdir(exist_ok=True)
        if args.record_reference:
            record_reference(args.workload)
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
