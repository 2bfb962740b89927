"""Per-layer tracing of ``run_experiment`` from outside the program.

``instrument`` replaces, for the duration of a ``with`` block, the public
``slmc`` functions that ``run_experiment`` reaches with wrappers that time
each call. The gradient and Hessian oracles of every target built inside
the block are wrapped the same way. Spans nest: a span's self time is its
duration minus the spans that ran inside it, and time outside every span
is the orchestration's own (``experiment.other_s``).

A wrapped name that is missing from its module, or that a workload never
calls, is listed by :meth:`Tracer.absent` instead of failing the run.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from time import perf_counter

import numpy as np

import slmc.experiment
import slmc.metrics
import slmc.sampler
import slmc.spd
import slmc.targets

# (module, attribute, span name). ``run_experiment`` looks these names up in
# the module shown, so replacing the module attribute reroutes its calls.
WRAPPED = (
    (slmc.experiment, "load_logistic_csv", "targets.load_logistic_csv"),
    (slmc.experiment, "make_gaussian", "targets.make_gaussian"),
    (slmc.experiment, "make_logistic_ridge", "targets.make_logistic_ridge"),
    (slmc.experiment, "default_theta_probes", "tuner.default_theta_probes"),
    (slmc.experiment, "estimate_theta", "tuner.estimate_theta"),
    (slmc.experiment, "scaled_params", "tuner.scaled_params"),
    (slmc.experiment, "plan_scaled", "tuner.plan_scaled"),
    (slmc.experiment, "plan_unscaled", "tuner.plan_unscaled"),
    (slmc.experiment, "unscaled_config", "tuner.unscaled_config"),
    (slmc.experiment, "run_chain", "sampler.run_chain"),
    (slmc.sampler, "make_step_cache", "sampler.make_step_cache"),
    (slmc.experiment, "moment_summary", "metrics.moment_summary"),
    (slmc.experiment, "gaussian_w2", "metrics.gaussian_w2"),
    (slmc.experiment, "empirical_w2", "metrics.empirical_w2"),
)
#: Oracle attributes of each target a wrapped factory returns.
ORACLES = (("grad_oracle", "targets.grad"), ("hess_oracle", "targets.hess"))
TARGET_FACTORIES = ("targets.make_gaussian", "targets.make_logistic_ridge")


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Aggregated spans and counters of one or more traced calls."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.missing: list[str] = []
        self._open: list[float] = []  # child time of each open span
        self.reset()

    def reset(self):
        """Zero every figure; wrappers already handed out stay live."""
        for stats in self.stats.values():
            stats.calls, stats.total, stats.self_time = 0, 0.0, 0.0
        self.root_total = 0.0  # time inside outermost spans
        self.steps = 0  # n_steps summed over run_chain calls
        self.w2_points = 0  # cloud sizes summed over empirical_w2 calls
        self.cache_bytes = 0  # ndarray bytes reachable from the largest cache

    def wrap(self, name: str, fn, after=None):
        stats = self.stats.setdefault(name, SpanStats())

        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = self._open.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - child
                if self._open:
                    self._open[-1] += elapsed
                else:
                    self.root_total += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def total(self, *names: str) -> float:
        return sum(self.stats[n].total for n in names if n in self.stats)

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def absent(self) -> list[str]:
        """Wrapped names that do not exist, or that no traced call reached."""
        uncalled = [name for name, s in self.stats.items() if s.calls == 0]
        return sorted(set(self.missing) | set(uncalled))

    # Hooks that read counts off a wrapped call's arguments or result.

    def _count_steps(self, args, kwargs, result):
        bound = _bind(slmc.sampler.run_chain, args, kwargs)
        self.steps += int(bound.get("n_steps", 0))

    def _count_w2_points(self, args, kwargs, result):
        cloud = _bind(slmc.metrics.empirical_w2, args, kwargs).get("a")
        self.w2_points += int(getattr(cloud, "count", 0))

    def _measure_cache(self, args, kwargs, result):
        self.cache_bytes = max(self.cache_bytes, reachable_ndarray_bytes(result))

    def _instrument_target(self, args, kwargs, target):
        for attr, name in ORACLES:
            fn = getattr(target, attr, None)
            if fn is None:
                self.missing.append(f"TargetModel.{attr}")
                continue
            # TargetModel is frozen; the instance is this block's own.
            object.__setattr__(target, attr, self.wrap(name, fn))


def _bind(fn, args, kwargs) -> dict:
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


@contextmanager
def instrument(tracer: Tracer):
    """Route the wrapped ``slmc`` names through ``tracer`` inside the block."""
    hooks = {
        "sampler.run_chain": tracer._count_steps,
        "sampler.make_step_cache": tracer._measure_cache,
        "metrics.empirical_w2": tracer._count_w2_points,
    }
    for factory in TARGET_FACTORIES:
        hooks[factory] = tracer._instrument_target
    for _, name in ORACLES:
        tracer.stats.setdefault(name, SpanStats())
    saved = []
    try:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr, None)
            if original is None:
                tracer.missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, hooks.get(name)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def reachable_ndarray_bytes(obj) -> int:
    """Bytes of the distinct ndarray buffers reachable from ``obj`` through
    dataclass fields and instance attributes (a computed size, not RSS)."""
    seen_objects: set[int] = set()
    seen_buffers: set[int] = set()
    total = 0
    pending = [obj]
    while pending:
        item = pending.pop()
        if id(item) in seen_objects:
            continue
        seen_objects.add(id(item))
        if isinstance(item, np.ndarray):
            base = item
            while isinstance(base.base, np.ndarray):
                base = base.base
            if id(base) not in seen_buffers:
                seen_buffers.add(id(base))
                total += base.nbytes
        elif is_dataclass(item) and not isinstance(item, type):
            pending.extend(getattr(item, f.name) for f in fields(item))
        elif hasattr(item, "__dict__") and not callable(item):
            pending.extend(vars(item).values())
    return total


#: Unit of each figure :func:`layer_metrics` returns.
LAYER_UNITS = {
    "targets.grad_us": "us",
    "targets.grad_calls": "count",
    "targets.build_s": "s",
    "targets.hess_calls": "count",
    "tuner.theta_s": "s",
    "sampler.step_self_us": "us",
    "sampler.steps": "count",
    "sampler.cache_build_s": "s",
    "sampler.cache_builds": "count",
    "sampler.cache_bytes": "B",
    "metrics.empirical_w2_s": "s",
    "metrics.w2_points": "count",
    "metrics.gaussian_w2_s": "s",
    "experiment.other_s": "s",
}


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced ``run_experiment`` call of ``wall`` seconds."""
    grad_calls = tracer.calls("targets.grad")
    grad_s = tracer.total("targets.grad")
    run_chain = tracer.stats.get("sampler.run_chain", SpanStats())
    return {
        "targets.grad_us": grad_s / grad_calls * 1e6 if grad_calls else 0.0,
        "targets.grad_calls": grad_calls,
        "targets.build_s": tracer.total(
            "targets.load_logistic_csv", "targets.make_gaussian", "targets.make_logistic_ridge"
        ),
        "targets.hess_calls": tracer.calls("targets.hess"),
        "tuner.theta_s": tracer.total(
            "tuner.default_theta_probes", "tuner.estimate_theta", "tuner.scaled_params"
        ),
        "sampler.step_self_us": run_chain.self_time / tracer.steps * 1e6 if tracer.steps else 0.0,
        "sampler.steps": tracer.steps,
        "sampler.cache_build_s": tracer.total("sampler.make_step_cache"),
        "sampler.cache_builds": tracer.calls("sampler.make_step_cache"),
        "sampler.cache_bytes": tracer.cache_bytes,
        "metrics.empirical_w2_s": tracer.total("metrics.empirical_w2"),
        "metrics.w2_points": tracer.w2_points,
        "metrics.gaussian_w2_s": tracer.total("metrics.moment_summary", "metrics.gaussian_w2"),
        "experiment.other_s": wall - tracer.root_total,
    }


def sweep(dims, delta: float = 0.05) -> dict[str, float]:
    """Step-cache build time and whole-step time (gradient included) against d,
    on a Gaussian target with precision diag geomspace(1, 100, d) and A = I."""
    out = {}
    for d, steps, builds in dims:
        tracer = Tracer()
        with instrument(tracer):
            target = slmc.experiment.make_gaussian(
                np.zeros(d), slmc.spd.SymMatrix.diagonal(np.geomspace(1.0, 100.0, d))
            )
            config = slmc.experiment.unscaled_config(target)
            init = slmc.targets.InitSpec.from_point(target)
            build_times = []
            for _ in range(builds):
                start = perf_counter()
                slmc.sampler.make_step_cache(config, delta)
                build_times.append(perf_counter() - start)
            tracer.reset()
            slmc.experiment.run_chain(
                init, target, config, delta, steps, np.random.default_rng(d)
            )
        chain_s = tracer.total("sampler.run_chain") - tracer.total("sampler.make_step_cache")
        out[f"sweep.d{d}.cache_build_s"] = float(np.median(build_times))
        out[f"sweep.d{d}.step_us"] = chain_s / steps * 1e6
    return out
