"""Decorator-based experiment registry.

Every paper figure/table declares itself here instead of being imported by
name from a hard-coded list: a module decorates its ``run`` function with
:func:`experiment`, and the orchestrator (``repro.eval.orchestrator``),
CLI (``python -m repro``) and benchmark harness all discover it through the
shared :data:`REGISTRY`.

A registered experiment carries a name, free-form tags, a ``cost`` class
(one of :data:`COST_CLASSES` — the orchestrator's execution order), and a
parameter schema introspected from the ``run`` signature. Execution pairs
the decorated function with a renderer resolved lazily from the same module
(by attribute name), so a module's natural ``run()`` / ``render()`` layout
registers without reordering its definitions.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.eval.metrics import as_metrics

#: Modules that register experiments, in paper order. ``load_all`` imports
#: these; registration order defines the default run/list order.
EXPERIMENT_MODULES: Tuple[str, ...] = (
    "repro.eval.tables_12",
    "repro.eval.fig03_adam_slowdown",
    "repro.eval.fig04_tensor_stats",
    "repro.eval.fig05_breakdown",
    "repro.eval.fig16_overall",
    "repro.eval.fig17_breakdown",
    "repro.eval.fig18_hit_rate",
    "repro.eval.fig19_cpu_perf",
    "repro.eval.fig20_mac_granularity",
    "repro.eval.fig21_comm",
    "repro.eval.ablations",
    "repro.eval.scenarios",
)

#: Tag carried by the 12 experiments ``repro.eval.runner`` regenerated in
#: the original serial harness (every paper figure/table).
PAPER_TAG = "paper"

#: Tag carried by the parameterized off-design-point scenario experiments.
SCENARIO_TAG = "scenario"

#: Accepted ``cost`` classes, cheapest first. The orchestrator starts
#: pending runs in the reverse order (slow > medium > fast, request order
#: within a class) so the pool's tail is short.
COST_CLASSES = ("fast", "medium", "slow")

#: Annotation string -> accepted runtime types for simple scalar params
#: (``int`` accepts int where ``float`` is annotated, as Python does).
_SCALAR_ANNOTATIONS: Dict[str, tuple] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
}


def normalize_params(value: Any) -> Any:
    """Reduce a parameter value to a JSON-stable form for hashing/manifests.

    Dataclasses become field dicts, sequences become lists, scalars pass
    through, and anything else falls back to ``repr``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: normalize_params(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, **fields}
    if isinstance(value, (list, tuple)):
        return [normalize_params(v) for v in value]
    if isinstance(value, dict):
        return {str(k): normalize_params(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


@dataclass(frozen=True)
class ExperimentOutput:
    """What one experiment execution produced."""

    name: str
    result: Any  #: the run() return value (None for text-only experiments)
    text: str  #: the rendered artifact written to results/<name>.txt

    def summary(self) -> Optional[dict]:
        """A JSON-safe digest of the result, when it knows how to make one.

        Delegates to the :class:`repro.eval.metrics.Metrics` protocol:
        any result with an ``as_dict`` participates.
        """
        return as_metrics(self.result)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment (a paper figure, table, or ablation)."""

    name: str
    func: Callable[..., Any]
    module: str
    renderer: Optional[str]  #: attribute in ``module``; None -> func returns text
    tags: Tuple[str, ...]
    cost: str  #: one of COST_CLASSES ("fast" | "medium" | "slow")
    description: str

    def param_schema(self) -> Dict[str, dict]:
        """``{param: {"default": ..., "required": bool, "annotation": ...}}``."""
        schema: Dict[str, dict] = {}
        for name, param in inspect.signature(self.func).parameters.items():
            if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                continue
            required = param.default is inspect.Parameter.empty
            entry = {
                "required": required,
                "default": None if required else normalize_params(param.default),
            }
            if param.annotation is not inspect.Parameter.empty:
                entry["annotation"] = str(param.annotation)
            schema[name] = entry
        return schema

    def default_of(self, param: str) -> Any:
        """The raw (un-normalized) default value of one ``run`` parameter."""
        try:
            value = inspect.signature(self.func).parameters[param].default
        except KeyError:
            raise ConfigError(
                f"experiment {self.name!r} has no parameter {param!r}; "
                f"schema: {sorted(self.param_schema())}"
            ) from None
        if value is inspect.Parameter.empty:
            raise ConfigError(
                f"experiment {self.name!r}: parameter {param!r} has no default"
            )
        return value

    def validate_params(self, params: Dict[str, Any]) -> None:
        """Check overrides against the introspected schema.

        Rejects names ``run`` does not accept, and values whose type
        contradicts a simple scalar annotation (``int``/``float``/``str``/
        ``bool`` — richer annotations are not second-guessed). The sweep
        engine funnels every expanded matrix point through this before
        anything is scheduled.
        """
        schema = self.param_schema()
        unknown = sorted(set(params) - set(schema))
        if unknown:
            raise ConfigError(
                f"experiment {self.name!r} has no parameter(s) {unknown}; "
                f"schema: {sorted(schema)}"
            )
        for name, value in params.items():
            annotation = schema[name].get("annotation")
            expected = _SCALAR_ANNOTATIONS.get(annotation)
            if expected is None:
                continue
            ok = isinstance(value, expected)
            if bool not in expected and isinstance(value, bool):
                ok = False  # bool passes isinstance(int) but isn't an int here
            if not ok:
                raise ConfigError(
                    f"experiment {self.name!r}: parameter {name!r} expects "
                    f"{annotation}, got {type(value).__name__} ({value!r})"
                )

    def execute(self, **params: Any) -> ExperimentOutput:
        """Run the experiment and render its artifact text."""
        self.validate_params(params)
        result = self.func(**params)
        if self.renderer is None:
            return ExperimentOutput(name=self.name, result=None, text=str(result))
        render = getattr(sys.modules[self.module], self.renderer)
        return ExperimentOutput(name=self.name, result=result, text=render(result))


class ExperimentRegistry:
    """Name -> :class:`ExperimentSpec`, in canonical (paper) order.

    Listing order follows :data:`EXPERIMENT_MODULES` and, within a module,
    registration order — independent of which module happened to be
    imported first in the process.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, ExperimentSpec] = {}
        self._sequence: Dict[str, int] = {}
        self._loaded = False
        self._load_lock = threading.Lock()

    def _order_key(self, spec: ExperimentSpec) -> Tuple[int, int]:
        try:
            module_rank = EXPERIMENT_MODULES.index(spec.module)
        except ValueError:
            module_rank = len(EXPERIMENT_MODULES)
        return (module_rank, self._sequence.get(spec.name, len(self._sequence)))

    def register(self, spec: ExperimentSpec) -> ExperimentSpec:
        if spec.name in self._specs:
            existing = self._specs[spec.name]
            raise ConfigError(
                f"duplicate experiment name {spec.name!r}: already registered "
                f"by {existing.module}, re-registered by {spec.module}"
            )
        if spec.cost not in COST_CLASSES:
            raise ConfigError(
                f"experiment {spec.name!r}: cost must be one of "
                f"{'/'.join(COST_CLASSES)}, got {spec.cost!r}"
            )
        self._sequence[spec.name] = len(self._sequence)
        self._specs[spec.name] = spec
        return spec

    def load_all(self) -> "ExperimentRegistry":
        """Import every experiment module (idempotent) and return self.

        A module that is already imported but has no specs here (the
        registry was cleared) is reloaded so its decorators re-register.
        Thread-safe: concurrent first callers (serve handler threads
        validating submissions) serialize on one load instead of racing
        a reload into duplicate registrations.
        """
        if self._loaded:
            return self
        with self._load_lock:
            if self._loaded:
                return self
            registered = {spec.module for spec in self._specs.values()}
            for module in EXPERIMENT_MODULES:
                needs_rerun = (
                    self is REGISTRY
                    and module in sys.modules
                    and module not in registered
                )
                if needs_rerun:
                    importlib.reload(sys.modules[module])
                else:
                    importlib.import_module(module)
            self._loaded = True
        return self

    def get(self, name: str) -> ExperimentSpec:
        self.load_all()
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(sorted(self._specs))
            raise ConfigError(f"unknown experiment {name!r}; known: {known}") from None

    def names(self) -> List[str]:
        return [spec.name for spec in self.specs()]

    def specs(self) -> List[ExperimentSpec]:
        self.load_all()
        return sorted(self._specs.values(), key=self._order_key)

    def select(
        self,
        only: Optional[Sequence[str]] = None,
        tags: Optional[Iterable[str]] = None,
    ) -> List[ExperimentSpec]:
        """Subset by explicit names and/or required tags, registry order.

        ``only`` entries are validated (unknown names raise) and the result
        keeps registry order regardless of the order names were given in.
        """
        chosen = self.specs()
        if only is not None:
            wanted = {self.get(name).name for name in only}
            chosen = [s for s in chosen if s.name in wanted]
        if tags:
            required = set(tags)
            chosen = [s for s in chosen if required.issubset(s.tags)]
        return chosen

    def clear(self) -> None:
        """Drop all registrations (test isolation only)."""
        self._specs.clear()
        self._sequence.clear()
        self._loaded = False


#: The process-wide registry all eval modules register into.
REGISTRY = ExperimentRegistry()


def experiment(
    name: str,
    *,
    tags: Sequence[str] = (),
    cost: str = "fast",
    render: Optional[str] = "render",
    description: Optional[str] = None,
    registry: Optional[ExperimentRegistry] = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register the decorated ``run``-style function as an experiment.

    ``render`` names the renderer attribute looked up in the function's own
    module at execution time (pass ``None`` when the function already
    returns the artifact text).
    """

    def wrap(func: Callable[..., Any]) -> Callable[..., Any]:
        doc = description
        if doc is None:
            doc = inspect.getdoc(sys.modules[func.__module__]) or ""
            doc = doc.splitlines()[0] if doc else ""
        (registry or REGISTRY).register(
            ExperimentSpec(
                name=name,
                func=func,
                module=func.__module__,
                renderer=render,
                tags=tuple(tags),
                cost=cost,
                description=doc,
            )
        )
        return func

    return wrap
