"""Spans and counts around gridtopo's public functions.

Each function is wrapped at the module attribute its caller looks up (for
example `gridtopo.learn.rg_sampled`, which `learn_from_moments` calls), so
nothing under `src/` changes. A span records its name, the span that called
it, the phase (setup or timed) and its start and end. Counts are read from
the returned objects after the call.

Without timing, only the learner's entry points are wrapped, and only to
keep the learned grids for the correctness gate.
"""
from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

# (module under gridtopo, attribute, span name). The span name is
# <layer>.<function>; `distances` folds into the `moments` layer, and the
# grid generator, which lives in bench.py, into `grid`.
SITES = (
    ("bench", "random_radial_grid", "grid.random_radial_grid"),
    ("cli", "random_radial_grid", "grid.random_radial_grid"),
    ("cli", "load_grid", "grid.load_grid"),
    ("cli", "save_grid", "grid.save_grid"),
    ("lcpf", "simulate", "lcpf.simulate"),
    ("bench", "simulate", "lcpf.simulate"),
    ("cli", "simulate", "lcpf.simulate"),
    ("lcpf", "sample_injections", "lcpf.sample_injections"),
    ("lcpf", "solve_lcpf", "lcpf.solve_lcpf"),
    ("cli", "save_measurements", "lcpf.save_measurements"),
    ("cli", "load_measurements", "lcpf.load_measurements"),
    ("moments", "accumulate", "moments.accumulate"),
    ("bench", "accumulate", "moments.accumulate"),
    ("cli", "accumulate", "moments.accumulate"),
    ("learn", "estimate_distances", "moments.estimate_distances"),
    ("learn", "rg_sampled", "grouping.rg_sampled"),
    ("learn", "assign_reactances", "learn.assign_reactances"),
    ("learn", "learn_from_moments", "learn.learn_from_moments"),
    ("bench", "learn_from_moments", "learn.learn_from_moments"),
    ("cli", "learn_from_moments", "learn.learn_from_moments"),
    ("cli", "save_learned", "learn.save_learned"),
    ("cli", "load_learned", "learn.load_learned"),
    ("bench", "evaluate", "bench.evaluate"),
    ("cli", "evaluate", "bench.evaluate"),
    ("bench", "run_experiment", "bench.run_experiment"),
    ("cli", "main", "cli.main"),
)

LEARN = "learn.learn_from_moments"


@dataclass
class Span:
    name: str
    parent: int | None
    phase: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers and holds what they record, in memory."""

    def __init__(self, timing: bool):
        self.timing = timing
        self.enabled = True
        self.phase = "setup"
        self.spans: list[Span] = []
        self._stack: list[int] = []
        # Filled by the hooks below.
        self.learned: list[tuple[tuple[str, ...], object]] = []
        self.truth = None  # the true grid of the unit being learned
        self.distances: list[tuple[object, object]] = []
        self.diagnostics: list[object] = []
        self.csv_bytes: list[int] = []
        self.rows_loaded: list[int] = []

    def install(self, package) -> None:
        for module_name, attr, name in SITES:
            if self.timing or name == LEARN:
                self._wrap(getattr(package, module_name), attr, name)

    def _wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if self.timing:
                parent = self._stack[-1] if self._stack else None
                span = Span(name, parent, self.phase, time.perf_counter())
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(result, args, kwargs)
            return result

        setattr(module, attr, wrapper)

    # -- hooks: counts read from returned objects --------------------------

    def _after_learn_learn_from_moments(self, learned, args, kwargs):
        m = args[0] if args else kwargs["m"]
        nodes = kwargs.get("nodes") or (args[2] if len(args) > 2 else None)
        self.learned.append((tuple(nodes) if nodes else m.nodes, learned))

    def _after_grid_random_radial_grid(self, grid, args, kwargs):
        self.truth = grid

    def _after_moments_estimate_distances(self, d, args, kwargs):
        self.distances.append((d, self.truth))

    def _after_grouping_rg_sampled(self, tree, args, kwargs):
        self.diagnostics.append(tree.diagnostics)

    def _after_lcpf_save_measurements(self, _none, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.csv_bytes.append(os.path.getsize(path))

    def _after_lcpf_load_measurements(self, ms, args, kwargs):
        self.rows_loaded.append(ms.T)

    # -- summaries ----------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own
