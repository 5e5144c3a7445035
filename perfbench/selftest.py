"""Self-tests for the benchmark itself.

    python3 perfbench/selftest.py                    # all workloads
    python3 perfbench/selftest.py --workloads classify

Checks the tracer's self-time arithmetic, that every binding of a traced
function is wrapped, the metric names against BENCHMARK.json, that traced
and untraced jobs give identical outputs, and that the traced work counts
repeat exactly between two traced runs at one seed (two full traced runs
per workload, about a minute each).
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import re
import subprocess
import sys
import unittest

import run  # pins threads and locates the sources

run._import_package()

import tracer as tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
COUNT_SUFFIXES = (".calls", ".points", ".probe_ratio", ".repeat_frac", ".bytes_written")
WORKLOADS = list(run.WORKLOAD_NAMES)


class SelfTime(unittest.TestCase):
    def test_nested_call(self):
        ticks = iter(range(100))
        tr = tracing.Tracer(clock=lambda: next(ticks))
        leaf = tr.wrap("m.leaf", lambda: None, span=False)

        def inner_fn():
            leaf()

        inner = tr.wrap("m.inner", inner_fn)

        def outer_fn():
            inner()
            inner()

        outer = tr.wrap("m.outer", outer_fn)
        outer()
        # clock: outer 0, inner 1, leaf 2-3, inner end 4, inner 5, leaf 6-7,
        # inner end 8, outer end 9
        self.assertEqual(tr.total_s["m.outer"], 9)
        self.assertEqual(tr.self_s["m.outer"], 9 - 2 * 3)
        self.assertEqual(tr.total_s["m.inner"], 6)
        self.assertEqual(tr.self_s["m.inner"], 6 - 2 * 1)
        self.assertEqual(tr.self_s["m.leaf"], 2)
        self.assertEqual(tr.calls["m.inner"], 2)
        self.assertEqual(tr.calls["m.leaf"], 2)
        # spans: the leaf keeps none; both inner spans point at the outer one
        by_name = {}
        for sid, name, start, end, parent, job in tr.spans:
            by_name.setdefault(name, []).append((sid, start, end, parent))
        self.assertNotIn("m.leaf", by_name)
        (outer_id, *_), = by_name["m.outer"]
        self.assertEqual([p for *_, p in by_name["m.inner"]], [outer_id, outer_id])
        self.assertEqual(tr.children_of("m.outer", "m.inner"), 2)

    def test_exception_still_recorded(self):
        tr = tracing.Tracer()

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            tr.wrap("m.boom", boom)()
        self.assertEqual(tr.calls["m.boom"], 1)
        self.assertEqual(tr._stack, [])


class Bindings(unittest.TestCase):
    def test_every_module_is_a_layer(self):
        pkg = run.SRC / "gibbsdyn"
        modules = {p.stem for p in pkg.glob("*.py")} - {"__init__", "errors"}
        self.assertEqual(modules, set(tracing.LAYERS))

    def test_every_import_binding_is_wrapped(self):
        modules = tracing.layer_modules()
        functions = tracing.traced_functions(modules)
        bindings = []
        for site in tracing.LAYERS:
            tree = ast.parse((run.SRC / "gibbsdyn" / f"{site}.py").read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gibbsdyn."):
                    source = importlib.import_module(node.module)
                    for alias in node.names:
                        if getattr(source, alias.name, None) in functions:
                            bindings.append((site, alias.asname or alias.name))
        named = {
            ("tilted", "golden_section"), ("tilted", "local_minima_indices"), ("classify", "golden_section"),
            ("classify", "initial_kernel"), ("potential", "global_minimum"), ("kernels", "localize"),
            ("kernels", "expanding_localize"), ("kernels", "log_integral"), ("kernels", "logsumexp"),
            ("kernels", "refine_if_rough"), ("kernels", "simpson_grid"), ("mc_sim", "localize"),
            ("mc_sim", "log_integral"), ("mc_sim", "simpson_grid"),
        }
        self.assertLessEqual(named, set(bindings))
        tr = tracing.Tracer().install(modules)
        try:
            for site, attr in bindings:
                obj = getattr(modules[site], attr)
                self.assertTrue(hasattr(obj, "__tracer_name__"), f"{site}.{attr} is not wrapped")
            for fn, qualname in functions.items():
                layer, attr = qualname.split(".", 1)
                self.assertTrue(hasattr(getattr(modules[layer], attr), "__tracer_name__"), qualname)
            self.assertEqual(modules["kernels"].logsumexp.__tracer_name__, "kernels.logsumexp")
            self.assertEqual(modules["kernels"].localize.__tracer_name__, "quadrature.localize")
        finally:
            tr.uninstall()
        for fn, qualname in functions.items():
            layer, attr = qualname.split(".", 1)
            self.assertIs(getattr(modules[layer], attr), fn, f"{qualname} not restored")


class MetricNames(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END_UNITS)
        layer = {k: u for k, (v, u) in tracing.layer_metrics(tracing.Tracer(), 0).items()}
        layer["trace.overhead_s"] = "s"
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, layer)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOAD_NAMES)
        for name, unit in list(e2e.items()) + list(layer.items()):
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)


class TracedOutputs(unittest.TestCase):
    """A few jobs of each workload give bitwise-identical outputs traced and untraced."""

    def test_identical_outputs(self):
        for workload in WORKLOADS:
            workdir = run.WORK / f"selftest-{workload}"
            run.shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                bench = run.Bench(workload, 7, workdir)
                bench.jobs = [j for j in bench.jobs if "simulate" not in j.id and "cos_of_square" not in j.id][:8]
                bench.setup_round()
                plain = bench.run_pass()
                tr = tracing.Tracer().install()
                try:
                    traced = bench.run_pass(tr)
                finally:
                    tr.uninstall()
            finally:
                run.shutil.rmtree(workdir, ignore_errors=True)
            self.assertEqual([r.digest for r in plain], [r.digest for r in traced], workload)
            self.assertTrue(all(r.ok for r in plain + traced), bench.problems)
            self.assertGreater(len(tr.spans), 0)


class RepeatCounts(unittest.TestCase):
    """Work counts repeat exactly between two traced runs at one seed."""

    def _traced(self, workload, seed=11):
        cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=run.ROOT, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_counts_repeat(self):
        for workload in WORKLOADS:
            a, b = self._traced(workload), self._traced(workload)
            self.assertTrue(a["correct"] and b["correct"], workload)
            counts = [k for k in a["metrics"] if k.endswith(COUNT_SUFFIXES)]
            self.assertGreater(len(counts), 10)
            for k in counts:
                self.assertEqual(a["metrics"][k]["value"], b["metrics"][k]["value"], f"{workload} {k}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args, rest = parser.parse_known_args()
    WORKLOADS[:] = args.workloads.split(",")
    unittest.main(argv=[sys.argv[0]] + rest, verbosity=2)
