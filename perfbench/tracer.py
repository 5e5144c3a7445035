"""Outside-in tracer for the gibbsdyn layer modules.

The tracer never edits the package. It replaces every binding of a public
function of a layer module -- the module attribute and every copy made by a
`from gibbsdyn.<module> import <name>` -- with a timing wrapper, and puts the
originals back on `uninstall()`.

Each wrapped call records a span (id, name, start, end, parent id, job id).
Spans stay in memory and are written once, at the end of the run. A span's
self time is its duration minus the durations of its direct child spans;
calls run on one thread, so children never overlap. High-frequency leaves
(`potential.eval` makes about 150k calls per phase_diagram pass) keep
exact counters and times but store no span.

The wrapper's own cost lands in the caller's self time, so traced self
times are upper bounds; the run reports the total overhead separately.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

from gibbsdyn.quadrature import odd_count as _odd_count  # bound before install() wraps it

LAYERS = (
    "potential",
    "gridmin",
    "tilted",
    "classify",
    "quadrature",
    "kernels",
    "paths",
    "mc_sim",
    "cli",
)

# Leaves called so often that storing a span per call would dominate the run.
COUNTER_ONLY = frozenset(
    {
        "potential.eval",
        "potential.deriv",
        "potential.fd_step",
        "potential.has_analytic_deriv",
        "potential.window_radius",
        "quadrature.odd_count",
        "quadrature.simpson_log_weights",
    }
)

# Bindings that are their own layer boundary. kernels.logsumexp is the
# evolved-kernel mixture; the g-machine integrals reach quadrature.logsumexp
# through quadrature.log_integral instead.
SITE_NAMES = {("kernels", "logsumexp"): "kernels.logsumexp"}


def layer_modules():
    import importlib

    return {layer: importlib.import_module(f"gibbsdyn.{layer}") for layer in LAYERS}


def traced_functions(modules) -> dict:
    """{function object: "layer.name"} for the public functions each layer defines."""
    out = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                out[obj] = f"{layer}.{name}"
    return out


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


class Tracer:
    """Spans, per-name call counts, total and self times, and work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.job = None
        self._stack: list[list] = []  # open frames: [child seconds, span id]
        self._next_id = 0
        self._seen_crossover: set = set()
        self._installed: list[tuple] = []  # (module, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, *, span: bool = True, after=None):
        """A wrapper that times fn under `name`. `after(tracer, args, kwargs,
        result)` may return a label; the self time is then also booked under
        `name.label`."""
        tracer = self
        clock = self.clock
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, -1]
            if span:
                frame[1] = tracer._next_id
                tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += own
                if span:
                    tracer.spans.append(
                        (frame[1], name, start, end, parent[1] if parent else -1, tracer.job)
                    )
            if after is not None:
                label = after(tracer, args, kwargs, result)
                if label:
                    self_s[f"{name}.{label}"] += own
                    calls[f"{name}.{label}"] += 1
            return result

        traced.__wrapped__ = fn
        traced.__tracer_name__ = name
        return traced

    def install(self, modules=None):
        """Wrap every binding of every traced function in the layer modules."""
        modules = modules or layer_modules()
        functions = traced_functions(modules)
        for site, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                qualname = functions.get(obj) if inspect.isfunction(obj) else None
                if qualname is None:
                    continue
                name = SITE_NAMES.get((site, attr), qualname)
                wrapper = self.wrap(
                    name,
                    obj,
                    span=qualname not in COUNTER_ONLY,
                    after=_AFTER.get(qualname),
                )
                self._installed.append((mod, attr, obj))
                setattr(mod, attr, wrapper)
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # -- results ----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "job": job}
                    )
                    + "\n"
                )

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans whose direct parent is a `parent_name` span."""
        names = {sid: name for sid, name, *_ in self.spans}
        return sum(
            1 for _, name, _, _, parent, _ in self.spans if name == child_name and names.get(parent) == parent_name
        )


# -- per-function counters, run after a successful call ----------------------


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _after_points(key):
    def after(tracer, args, kwargs, result):
        tracer.counters[key] += _size(_arg(args, kwargs, 1, "r"))

    return after


def _after_localize(tracer, args, kwargs, result):
    tracer.counters["quadrature.localize.points"] += _odd_count(_arg(args, kwargs, 3, "n_coarse"))


def _after_refine(tracer, args, kwargs, result):
    if result[0].size != _arg(args, kwargs, 0, "x").size:
        tracer.counters["quadrature.refine_if_rough.refined"] += 1


def _after_scan(tracer, args, kwargs, result):
    tracer.counters["tilted.bad_set_scan.grid_points"] += int(_arg(args, kwargs, 3, "grid_n"))


def _after_crossover(tracer, args, kwargs, result):
    from gibbsdyn import tilted

    key = (
        _arg(args, kwargs, 0, "spec"),
        _arg(args, kwargs, 1, "tol", tilted.DEFAULT_TOL),
        bool(_arg(args, kwargs, 2, "find_witness", True)),
    )
    if key in tracer._seen_crossover:
        tracer.counters["classify.crossover_time.repeats"] += 1
    tracer._seen_crossover.add(key)
    return result.method


def _after_kernel(tracer, args, kwargs, result):
    key = "kernels.max_mass_defect"
    tracer.counters[key] = max(tracer.counters[key], float(result.total_mass_defect))


def _after_evolve(tracer, args, kwargs, result):
    tracer.counters["mc_sim.accepted"] += result.accepted_count
    tracer.counters["mc_sim.drawn"] += result.config.replicas
    return result.method


_AFTER = {
    "potential.eval": _after_points("potential.eval.points"),
    "potential.deriv": _after_points("potential.deriv.points"),
    "quadrature.localize": _after_localize,
    "quadrature.refine_if_rough": _after_refine,
    "tilted.bad_set_scan": _after_scan,
    "classify.crossover_time": _after_crossover,
    "kernels.initial_kernel": _after_kernel,
    "kernels.eta_kernel": _after_kernel,
    "kernels.evolved_kernel": _after_kernel,
    "mc_sim.evolve_and_condition": _after_evolve,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    c, s, t, k = tracer.calls, tracer.self_s, tracer.total_s, tracer.counters
    return {
        "potential.eval.calls": (c["potential.eval"], "count"),
        "potential.eval.points": (k["potential.eval.points"], "count"),
        "potential.eval.self_s": (s["potential.eval"], "s"),
        "potential.deriv.points": (k["potential.deriv.points"], "count"),
        "potential.from_json.self_s": (s["potential.from_json"], "s"),
        "gridmin.golden_section.calls": (c["gridmin.golden_section"], "count"),
        "gridmin.golden_section.self_s": (s["gridmin.golden_section"], "s"),
        "gridmin.global_minimum.self_s": (s["gridmin.global_minimum"], "s"),
        "tilted.global_minimisers.calls": (c["tilted.global_minimisers"], "count"),
        "tilted.global_minimisers.self_s": (s["tilted.global_minimisers"], "s"),
        "tilted.is_bad.calls": (c["tilted.is_bad"], "count"),
        "tilted.bad_set_scan.probe_ratio": (
            _ratio(
                tracer.children_of("tilted.bad_set_scan", "tilted.is_bad"),
                k["tilted.bad_set_scan.grid_points"],
            ),
            "ratio",
        ),
        "tilted.bad_set_scan.self_s": (s["tilted.bad_set_scan"], "s"),
        "tilted.bad_set_scan.total_s": (t["tilted.bad_set_scan"], "s"),
        "tilted.limiting_potential.self_s": (s["tilted.limiting_potential"], "s"),
        "tilted.limiting_potential.total_s": (t["tilted.limiting_potential"], "s"),
        "classify.crossover_time.calls": (c["classify.crossover_time"], "count"),
        "classify.crossover_time.repeat_frac": (
            _ratio(k["classify.crossover_time.repeats"], c["classify.crossover_time"]),
            "ratio",
        ),
        "classify.crossover_time.second_derivative.self_s": (
            s["classify.crossover_time.second_derivative"],
            "s",
        ),
        "classify.crossover_time.phi2_scan.self_s": (s["classify.crossover_time.phi2_scan"], "s"),
        "classify.phi2_infimum.self_s": (s["classify.phi2_infimum"], "s"),
        "classify.gibbs_at.self_s": (s["classify.gibbs_at"], "s"),
        "classify.gibbs_at.total_s": (t["classify.gibbs_at"], "s"),
        "classify.equivalence_oracle.self_s": (s["classify.equivalence_oracle"], "s"),
        "classify.equivalence_sides.self_s": (s["classify.equivalence_sides"], "s"),
        "quadrature.localize.calls": (c["quadrature.localize"], "count"),
        "quadrature.localize.points": (k["quadrature.localize.points"], "count"),
        "quadrature.refine_if_rough.refined_frac": (
            _ratio(k["quadrature.refine_if_rough.refined"], c["quadrature.refine_if_rough"]),
            "ratio",
        ),
        "quadrature.log_integral.self_s": (s["quadrature.log_integral"], "s"),
        "quadrature.logsumexp.self_s": (s["quadrature.logsumexp"], "s"),
        "kernels.evolved_kernel.calls": (c["kernels.evolved_kernel"], "count"),
        "kernels.evolved_kernel.self_s": (s["kernels.evolved_kernel"], "s"),
        "kernels.initial_kernel.self_s": (s["kernels.initial_kernel"], "s"),
        "kernels.eta_kernel.self_s": (s["kernels.eta_kernel"], "s"),
        "kernels.logsumexp.self_s": (s["kernels.logsumexp"], "s"),
        "kernels.max_mass_defect": (k["kernels.max_mass_defect"], "ratio"),
        "paths.minimising_trajectories.self_s": (s["paths.minimising_trajectories"], "s"),
        "paths.path_rate.calls": (c["paths.path_rate"], "count"),
        "mc_sim.evolve_and_condition.reject.self_s": (s["mc_sim.evolve_and_condition.reject"], "s"),
        "mc_sim.evolve_and_condition.exact.self_s": (s["mc_sim.evolve_and_condition.exact"], "s"),
        "mc_sim.accept_ratio": (_ratio(k["mc_sim.accepted"], k["mc_sim.drawn"]), "ratio"),
        "mc_sim.estimate_acceptance.calls": (c["mc_sim.estimate_acceptance"], "count"),
        "mc_sim.ks_distance.self_s": (s["mc_sim.ks_distance"], "s"),
        "cli.run.calls": (c["cli.run"], "count"),
        "cli.run.self_s": (s["cli.run"], "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
    }
