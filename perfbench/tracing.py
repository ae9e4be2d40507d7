"""In-memory span tracer for the traced run, installed from outside collideq.

``traced(tracer)`` wraps the public functions listed in ``TRACED`` wherever
a ``collideq`` module looks them up (a name imported into several module
namespaces is patched in each) and puts every original back on exit. Classes
are traced through one method on the class itself: ``Resolved.__init__`` and
``DensityMatrix.__post_init__`` (the validation a construction pays).

Each call records a span ``[name, start, end, parent]``; ``parent`` is the
index of the enclosing traced call, or -1. A span's self time is its
duration minus the part of it covered by its child spans. Counts are taken
at the same boundaries from the wrapped calls' arguments, results and
typed errors.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

TRACED: Dict[str, Tuple[str, ...]] = {
    "cli": ("main", "Resolved", "write_csv"),
    "engine": ("embedded_step_channel", "steady_state",
               "steady_heat_flux_from_state", "evolve"),
    "metrics": ("fidelity", "effective_temperature", "tripartite_negativity",
                "pair_negativities", "negativity_2"),
    "tensor": ("DensityMatrix", "partial_trace", "embed", "expm_i_hermitian"),
    "blp": ("blp_measure",),
    "trajectories": ("ensemble_mean_heat", "trajectory_seed"),
}
CLASS_METHODS = {"Resolved": "__init__", "DensityMatrix": "__post_init__"}

# extra counts: (name, unit, better)
COUNTS = (
    ("cli.rows", "count", "higher"),
    ("cli.rows_flagged", "count", "lower"),
    ("cli.write_csv.bytes", "bytes", "lower"),
    ("engine.steady_state.failed", "count", "lower"),
    ("engine.evolve.steps", "count", "higher"),
    ("metrics.effective_temperature.not_diagonal", "count", "lower"),
    ("blp.pair_steps", "count", "higher"),
    ("blp.unconverged", "count", "lower"),
    ("trajectories.traj_steps", "count", "higher"),
)

_MARK = "__perfbench_wrapper__"

Span = List  # [name, start, end, parent]


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {name: 0 for name, _, _ in COUNTS}
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, on_return=None, on_error=None) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.monotonic
        sig = inspect.signature(fn) if on_return else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(counts, err)
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counts, sig.bind(*args, **kwargs).arguments, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper


# --- count hooks -------------------------------------------------------------

def _write_csv_counts(counts, args, _result):
    rows = list(args["rows"])
    status = list(args["columns"]).index("status")
    counts["cli.rows"] += len(rows)
    counts["cli.rows_flagged"] += sum(1 for row in rows if row[status] != "ok")
    counts["cli.write_csv.bytes"] += os.path.getsize(args["path"])


def _evolve_counts(counts, args, _result):
    counts["engine.evolve.steps"] += args["n_steps"]


def _blp_counts(counts, _args, result):
    counts["blp.pair_steps"] += result.pair_values.size * (len(result.series) - 1)
    counts["blp.unconverged"] += int(not result.converged)


def _ensemble_counts(counts, args, _result):
    counts["trajectories.traj_steps"] += args["n_steps"] * args["n_trajectories"]


def _error_counter(name: str, exc_type: type):
    def on_error(counts, err):
        if isinstance(err, exc_type):
            counts[name] += 1
    return on_error


def _hooks() -> Dict[str, Tuple[Optional[Callable], Optional[Callable]]]:
    from collideq.errors import CollideqError, NotDiagonal

    return {
        "cli.write_csv": (_write_csv_counts, None),
        "engine.evolve": (_evolve_counts, None),
        "engine.steady_state": (None, _error_counter("engine.steady_state.failed",
                                                     CollideqError)),
        "metrics.effective_temperature": (
            None, _error_counter("metrics.effective_temperature.not_diagonal", NotDiagonal)),
        "blp.blp_measure": (_blp_counts, None),
        "trajectories.ensemble_mean_heat": (_ensemble_counts, None),
    }


# --- installing and removing the wrappers -----------------------------------

Patch = Tuple[object, str, object]  # (owner, attribute, original)


def _collideq_modules() -> List[object]:
    for layer in TRACED:
        importlib.import_module(f"collideq.{layer}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "collideq" or name.startswith("collideq.")]


def install(tracer: Tracer) -> List[Patch]:
    """Wrap every traced function everywhere collideq looks it up."""
    modules = _collideq_modules()
    hooks = _hooks()
    patches: List[Patch] = []
    for layer, fns in TRACED.items():
        home = sys.modules[f"collideq.{layer}"]
        for fn_name in fns:
            name = f"{layer}.{fn_name}"
            on_return, on_error = hooks.get(name, (None, None))
            obj = getattr(home, fn_name)
            if isinstance(obj, type):
                meth = CLASS_METHODS[fn_name]
                targets = [(obj, meth, obj.__dict__[meth])]
            else:
                targets = [(m, attr, obj) for m in modules
                           for attr, val in vars(m).items() if val is obj]
            wrapper = tracer.wrap(name, targets[0][2], on_return, on_error)
            for owner, attr, orig in targets:
                setattr(owner, attr, wrapper)
                patches.append((owner, attr, orig))
    return patches


def uninstall(patches: Sequence[Patch]) -> None:
    for owner, attr, orig in reversed(patches):
        setattr(owner, attr, orig)


def leftover_wrappers() -> List[str]:
    """Names in collideq modules and classes that still hold a wrapper."""
    found = []
    for mod in _collideq_modules():
        for attr, val in vars(mod).items():
            if getattr(val, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(val, type) and val.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{m}" for m, v in vars(val).items()
                          if getattr(v, _MARK, False)]
    return found


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    patches = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(patches)


# --- reduction ----------------------------------------------------------------

def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, hi)
        out.append((end - start) - covered)
    return out


def traced_names() -> List[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def layer_metrics(spans: Sequence[Span], counts: Dict[str, int]) -> Dict[str, float]:
    """Per-function calls and self time, per-layer self time, and counts."""
    out: Dict[str, float] = {}
    for name in traced_names():
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for layer in TRACED:
        out[f"{layer}.self_s"] = 0.0
    for span, self_s in zip(spans, self_times(spans)):
        name = span[0]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{name.split('.', 1)[0]}.self_s"] += self_s
    out.update(counts)
    return out
