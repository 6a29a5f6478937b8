"""Spans around the calls into each ris_sim layer, recorded from outside the
package.

``install()`` replaces each public function in the namespace its caller looks
it up in (``ris_sim.cli.laplace_quadrature_oracle``, not the defining module)
with a wrapper that records a span: name, start, end, parent span and a few
counts read from the arguments or the result.  Hot leaf calls
(``scipy.integrate.quad`` as ``interference_analytic`` sees it, and the
incomplete gamma) only bump a counter attributed to the innermost open span.
A name that no longer exists is listed as missing instead of failing, so a
refactor that deletes it shows up as missing metrics.

Spans are kept in memory and written out by the caller through ``dump()``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time


def _rows(result) -> int:
    return int(result.shape[0])


# (module, attribute, span name, counts read from (args, kwargs, result))
SPANS = (
    ("ris_sim.cli", "load_config", "experiment_config.load_config", None),
    ("ris_sim.montecarlo", "run_ensemble", "montecarlo.run_ensemble",
     lambda a, k, r: {"trials": int(a[1] if len(a) > 1 else k["trials"]),
                      "resampled": int(r.resampled)}),
    ("ris_sim.montecarlo", "outage_from_ensemble", "montecarlo.outage_from_ensemble", None),
    ("ris_sim.montecarlo", "sample_mhcpp", "geometry.sample_mhcpp",
     lambda a, k, r: {"kept": _rows(r)}),
    ("ris_sim.geometry", "sample_hppp", "geometry.sample_hppp",
     lambda a, k, r: {"points": _rows(r)}),
    ("ris_sim.montecarlo", "sample_ris_clusters", "geometry.sample_ris_clusters",
     lambda a, k, r: {"pairs": int(a[0].shape[0]) * _rows(r[0])}),
    ("ris_sim.cli", "s0_gamma_cdf", "power_analytic.s0_gamma_cdf",
     lambda a, k, r: {"samples": int(getattr(a[0], "size", 1))}),
    ("ris_sim.cli", "laplace_quadrature_oracle", "interference_analytic.oracle", None),
    ("ris_sim.cli", "analytic_rates", "outage_epidemic.analytic_rates", None),
    ("ris_sim.cli", "sis_ode_solve", "outage_epidemic.sis_ode_solve", None),
    ("ris_sim.cli", "run_abm", "mobility_sim.run_abm", None),
    ("ris_sim.mobility_sim", "abm_step", "mobility_sim.abm_step", None),
    ("ris_sim.mobility_sim", "random_walk_step", "mobility_sim.random_walk_step", None),
)

COUNTERS = (
    ("ris_sim.power_analytic", "lower_incomplete_gamma_regularized",
     "special_functions.incomplete_gamma"),
)

# the scipy.integrate module object bound in interference_analytic
QUAD = ("ris_sim.interference_analytic", "integrate", "quad")

CLI_MODULE = "ris_sim.cli"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._count_lock = threading.Lock()
        self._open_names: dict[int, str] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        # a pool thread's outermost span belongs to whatever the main thread
        # has open, i.e. the command that submitted the work
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def _innermost_name(self) -> str:
        stack = self._stack()
        parent = self._parent(stack)
        return self._open_names.get(parent, "") if parent is not None else ""

    def span(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = self._parent(stack)
            self._open_names[span_id] = name
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                del self._open_names[span_id]
            record = {"id": span_id, "name": name, "start": start, "end": end,
                      "parent": parent}
            if info is not None:
                try:
                    record.update(info(args, kwargs, result))
                except Exception as exc:  # a changed signature must not stop the run
                    record["info_error"] = repr(exc)
            self.spans.append(record)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = f"{name}@{self._innermost_name()}"
            with self._count_lock:
                self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing}


class _CountingModule:
    """Stands in for a module object, counting calls to one of its functions."""

    def __init__(self, module, attr: str, wrapped) -> None:
        self._module = module
        setattr(self, attr, wrapped)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


def _patch(tracer: Tracer, module_name: str, attr: str, make) -> None:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        tracer.missing.append(module_name)
        return
    target = getattr(module, attr, None)
    if target is None:
        tracer.missing.append(f"{module_name}.{attr}")
        return
    setattr(module, attr, make(target))


def install() -> Tracer:
    """Wrap every traced name and return the tracer holding the spans."""
    tracer = Tracer()
    cli = importlib.import_module(CLI_MODULE)
    for attr in sorted(vars(cli)):
        if attr.startswith("cmd_") and callable(getattr(cli, attr)):
            command = attr[len("cmd_"):].replace("_", "-")
            setattr(cli, attr, tracer.span(f"cli.{command}", getattr(cli, attr)))
    for module_name, attr, name, info in SPANS:
        _patch(tracer, module_name, attr, lambda fn, n=name, i=info: tracer.span(n, fn, i))
    for module_name, attr, name in COUNTERS:
        _patch(tracer, module_name, attr, lambda fn, n=name: tracer.counter(n, fn))
    module_name, attr, fn_name = QUAD

    def counting_module(module):
        if not hasattr(module, fn_name):
            tracer.missing.append(f"{module_name}.{attr}.{fn_name}")
            return module
        wrapped = tracer.counter(fn_name, getattr(module, fn_name))
        return _CountingModule(module, fn_name, wrapped)

    _patch(tracer, module_name, attr, counting_module)
    return tracer
