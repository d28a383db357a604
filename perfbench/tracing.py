"""Layer spans and modelled-hardware counters, recorded from outside the program.

Every layer boundary is a public function or method of the ``repro``
package. :func:`install` replaces each one, from this file, with a wrapper
that opens a span (layer, name, start, end, parent) and, after the call,
reads the layer's modelled counters from the public ``stats`` objects,
``hit_rates()`` or the call's own arguments and result.

A call into a layer that is already the innermost open layer passes
straight through: batched entry points that fall back to their scalar
twins (``FunctionalMee.read_lines`` replaying ``read_line`` on a failure,
``encrypt_lines`` calling ``keystream_lines``) are one span and are
counted once.

Two modes share the wrappers:

* ``timed=False`` wraps only the layers that carry modelled cachelines
  (tenanalyzer, metadata, mee) and reads no clock. The untraced
  repetitions use it to count the lines behind ``sim_lines_per_s``.
* ``timed=True`` wraps every layer, records spans in memory and computes
  nesting-aware self time: a span's duration minus the time its child
  spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers with a self-time metric, in report order.
LAYERS = (
    "tracegen",
    "tenanalyzer",
    "cpu_adam",
    "metadata",
    "crypto",
    "mee",
    "npu",
    "comm",
    "core",
)

_perf_counter = time.perf_counter


class Recorder:
    """Spans and counters of one repetition."""

    def __init__(self, timed: bool) -> None:
        self.timed = timed
        #: Wrappers record only while active: the timed body, not the checks.
        self.active = False
        #: Finished spans: (span_id, parent_id, layer, name, start, end, self_s).
        self.spans: List[Tuple[int, int, str, str, float, float, float]] = []
        #: Open spans, innermost last: [span_id, layer, name, start, child_s].
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self.exp_s: Dict[str, float] = defaultdict(float)
        self._next_id = 1

    # -- spans -----------------------------------------------------------------

    def innermost_layer(self) -> Optional[str]:
        return self._stack[-1][1] if self._stack else None

    def open(self, layer: str, name: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        start = _perf_counter() if self.timed else 0.0
        self._stack.append([span_id, layer, name, start, 0.0])

    def close(self) -> None:
        span_id, layer, name, start, child_s = self._stack.pop()
        if not self.timed:
            return
        end = _perf_counter()
        duration = end - start
        own = duration - child_s
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[4] += duration
            parent_id = parent[0]
        self.self_s[layer] += own
        if layer == "eval.exp":
            self.exp_s[name] += duration
        self.spans.append((span_id, parent_id, layer, name, start, end, own))

    def add(self, key: str, value: float = 1.0) -> None:
        self.counters[key] += value

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value


def _wrap(
    recorder: Recorder,
    layer: str,
    name: str,
    func: Callable,
    after: Optional[Callable] = None,
    before: Optional[Callable] = None,
    materialize: bool = False,
) -> Callable:
    """A wrapper that spans ``func`` under ``layer`` and then counts.

    ``before(args, kwargs)`` snapshots state; ``after(state, args, kwargs,
    result, exc)`` updates the recorder once the call returned or raised.
    ``materialize`` drains a generator result inside the span, so the
    span covers the work rather than the generator's creation.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not recorder.active or recorder.innermost_layer() == layer:
            return func(*args, **kwargs)
        state = before(args, kwargs) if before is not None else None
        recorder.open(layer, name)
        result = None
        try:
            result = func(*args, **kwargs)
            if materialize:
                result = list(result)
        except BaseException as exc:
            recorder.close()
            if after is not None:
                after(state, args, kwargs, None, exc)
            raise
        recorder.close()
        if after is not None:
            after(state, args, kwargs, result, None)
        return iter(result) if materialize else result

    return wrapper


def _patch_method(cls: type, attr: str, wrapper_of: Callable[[Callable], Callable]) -> None:
    setattr(cls, attr, wrapper_of(cls.__dict__[attr]))


def _patch_function(module: Any, attr: str, wrapper_of: Callable[[Callable], Callable]) -> None:
    """Wrap a module-level function at its home and every ``repro`` use site.

    Callers that imported the function by name hold their own reference
    (``measure_sgx_metadata`` in ``repro.cpu.sgx``, ``attention_batch`` in
    ``repro.eval.scenarios``), so each such module attribute is replaced
    too. Modules must already be imported.
    """
    original = getattr(module, attr)
    wrapped = wrapper_of(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    """Argument ``name`` of a wrapped call, passed by position or keyword."""
    return args[position] if len(args) > position else kwargs[name]


def _n(position: int, name: str) -> Callable:
    """Line count of a batched call: the length of one sequence argument."""
    return lambda args, kwargs, result=None: len(_arg(args, kwargs, position, name))


def _one(args, kwargs, result=None) -> int:
    return 1


def _bound(func: Callable, args: tuple, kwargs: dict) -> Dict[str, Any]:
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# -- counter probes ------------------------------------------------------------


def _analyzer_snapshot(args, kwargs):
    analyzer = args[0]
    stats = analyzer.stats
    table = analyzer.table.stats
    return (
        stats["read_hit_in"],
        stats["read_hit_boundary"],
        stats["read_miss"],
        stats["write_violation"],
        table["merges"],
        table["evictions"],
    )


def _analyzer_counts(recorder: Recorder, accesses_of: Callable) -> Callable:
    def after(state, args, kwargs, result, exc):
        recorder.add("tenanalyzer.accesses", accesses_of(args, kwargs))
        now = _analyzer_snapshot(args, kwargs)
        hit_in, boundary, miss, violations, merges, evictions = (
            b - a for a, b in zip(state, now)
        )
        recorder.add("tenanalyzer.reads", hit_in + boundary + miss)
        recorder.add("tenanalyzer.read_hit_in", hit_in)
        recorder.add("tenanalyzer.read_hit_boundary", boundary)
        recorder.add("tenanalyzer.write_violations", violations)
        recorder.add("tenanalyzer.merges", merges)
        recorder.add("tenanalyzer.evictions", evictions)

    return after


def _loaded(name: str) -> Any:
    """An already-imported ``repro`` module, or None.

    Wrapping never imports: a workload is traced through the modules its
    own set-up loaded, so tracing adds no import cost or memory.
    """
    return sys.modules.get(name)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the workload's imported modules expose."""

    def span(layer, name, **hooks):
        return lambda func: _wrap(recorder, layer, name, func, **hooks)

    def count(key, lines_of):
        def after(state, args, kwargs, result, exc):
            recorder.add(key, lines_of(args, kwargs, result))

        return after

    def method(module, cls_name, attr, layer, **hooks):
        mod = _loaded(module)
        if mod is not None:
            _patch_method(getattr(mod, cls_name), attr, span(layer, attr, **hooks))

    def function(module, attr, layer, **hooks):
        mod = _loaded(module)
        if mod is not None:
            _patch_function(mod, attr, span(layer, attr, **hooks))

    # -- tenanalyzer ----------------------------------------------------------
    analyzer_entries = {
        "replay_window": _n(1, "vaddrs"),
        "on_read": _one,
        "on_write": _one,
        "install_from_transfer": lambda args, kwargs: 0,
        "prime_from_trace": _n(1, "vaddrs"),
    }
    for attr, accesses_of in analyzer_entries.items():
        method(
            "repro.cpu.tenanalyzer.analyzer",
            "TenAnalyzer",
            attr,
            "tenanalyzer",
            before=_analyzer_snapshot,
            after=_analyzer_counts(recorder, accesses_of),
        )

    # -- metadata -------------------------------------------------------------
    metadata_model = _loaded("repro.cpu.metadata_model")
    if metadata_model is not None:
        measure = metadata_model.measure_sgx_metadata

        def measured(state, args, kwargs, result, exc):
            if exc is not None:
                return
            params = _bound(measure, args, kwargs)
            streams = params["streams"]
            lines = max(1, params["sample_lines"] // streams) * streams
            recorder.add("metadata.calls")
            recorder.add("metadata.lines", lines)
            recorder.add("metadata.hit_lines", result.metadata_hit_rate * lines)

        function("repro.cpu.metadata_model", "measure_sgx_metadata", "metadata", after=measured)

    if _loaded("repro.eval.scenarios") is not None:
        from repro.eval.registry import REGISTRY

        geometry_spec = REGISTRY.get("mee_cache_geometry")
        geometry = geometry_spec.func

        def geometry_counts(state, args, kwargs, result, exc):
            if exc is not None:
                return
            params = _bound(geometry, args, kwargs)
            lines = params["tensors"] * params["lines_per_tensor"] * params["iterations"]
            recorder.add("metadata.calls")
            recorder.add("metadata.lines", lines)
            recorder.add("metadata.hit_lines", result.hit_rate * lines)

        # The registry holds its own reference to the experiment function,
        # and the batched metadata-cache loop inlines every LRU touch, so the
        # span goes around the experiment function itself.
        object.__setattr__(
            geometry_spec,
            "func",
            span("metadata", "mee_cache_geometry", after=geometry_counts)(geometry),
        )

    # -- mee ------------------------------------------------------------------
    mee_entries = {
        "write_line": _one,
        "read_line": _one,
        "line_mac_of": _one,
        "write_lines": _n(1, "vaddrs"),
        "read_lines": _n(1, "vaddrs"),
        "line_macs_of": _n(1, "vaddrs"),
    }
    for attr, lines_of in mee_entries.items():
        method("repro.mem.mee", "FunctionalMee", attr, "mee", after=count("mee.lines", lines_of))

    if not recorder.timed:
        return

    # -- tracegen -------------------------------------------------------------
    def batch_lines(state, args, kwargs, result, exc):
        if exc is None:
            recorder.add("tracegen.calls")
            recorder.add("tracegen.lines", len(result))

    for attr in ("adam_iteration_batch", "attention_batch", "gemm_batch"):
        function("repro.workloads.traces", attr, "tracegen", after=batch_lines)
    method(
        "repro.tensor.tensor",
        "TensorDesc",
        "line_addresses",
        "tracegen",
        after=batch_lines,
        materialize=True,
    )

    # -- cpu_adam: the run_iteration body outside its children is the VN
    # ground-truth check.
    method("repro.cpu.adam", "AdamExperiment", "run_iteration", "cpu_adam")

    # -- crypto ---------------------------------------------------------------
    crypto_entries = [
        ("repro.crypto.ctr", "CounterModeCipher", "encrypt_line", _one),
        ("repro.crypto.ctr", "CounterModeCipher", "decrypt_line", _one),
        ("repro.crypto.ctr", "CounterModeCipher", "encrypt_lines", _n(2, "pas")),
        ("repro.crypto.ctr", "CounterModeCipher", "decrypt_lines", _n(2, "pas")),
        ("repro.crypto.ctr", "CounterModeCipher", "keystream_lines", _n(1, "pas")),
        ("repro.crypto.mac", "MacEngine", "line_mac", _one),
        ("repro.crypto.mac", "MacEngine", "line_macs", _n(3, "pas")),
    ]
    for module, cls_name, attr, lines_of in crypto_entries:
        method(module, cls_name, attr, "crypto", after=count("crypto.lines", lines_of))
    for attr, key in (("update_leaf", "crypto.merkle_updates"), ("verify_leaf", "crypto.merkle_verifies")):
        method("repro.crypto.merkle", "BonsaiMerkleTree", attr, "crypto", after=count(key, _one))

    # -- npu ------------------------------------------------------------------
    errors = _loaded("repro.errors")
    integrity_errors = (errors.IntegrityError, errors.ReplayError)

    def engine_snapshot(args, kwargs):
        stats = args[0].stats
        return stats["verified_ok"] + stats["verified_failed"]

    def engine_counts(state, args, kwargs, result, exc):
        engine = args[0]
        recorder.add("npu.verifications", engine_snapshot((engine,), {}) - state)
        recorder.peak("npu.pending_max", engine.pending_count)

    for attr in (
        "write_tensor",
        "read_tensor_delayed",
        "read_code_line",
        "poll_verification",
        "propagate_poison",
        "verification_barrier",
    ):
        method(
            "repro.npu.delayed",
            "DelayedVerificationEngine",
            attr,
            "npu",
            before=engine_snapshot,
            after=engine_counts,
        )

    def device_read_snapshot(args, kwargs):
        return args[0].stats["received_reads"], engine_snapshot((args[0].engine,), {})

    def device_read_counts(state, args, kwargs, result, exc):
        device = args[0]
        received_before, verified_before = state
        received = device.stats["received_reads"] - received_before
        # A transferred tensor is verified inline at its first use; only
        # that path raises an integrity error here (the local path defers).
        failed = isinstance(exc, integrity_errors)
        recorder.add("npu.verifications", received + int(failed))
        engine_counts(verified_before, (device.engine,), {}, None, None)
        if failed:
            recorder.add("comm.integrity_failures")

    method(
        "repro.tee.device",
        "NpuSecureDevice",
        "read_tensor_delayed",
        "npu",
        before=device_read_snapshot,
        after=device_read_counts,
    )
    function("repro.npu.kernels", "iteration_time_s", "npu")
    method("repro.npu.mac", "MacScheme", "performance_overhead", "npu")

    # -- comm -----------------------------------------------------------------
    def transfer_counts(state, args, kwargs, result, exc):
        recorder.add("comm.transfers")
        if isinstance(exc, integrity_errors):
            recorder.add("comm.integrity_failures")

    for attr in ("cpu_to_npu", "npu_to_cpu"):
        method("repro.comm.direct", "DirectTransferProtocol", attr, "comm", after=transfer_counts)
    for attr in ("plain_transfer", "graviton_transfer", "direct_transfer"):
        function("repro.comm.scheduler", attr, "comm")

    # -- core -----------------------------------------------------------------
    method(
        "repro.core.system",
        "CollaborativeSystem",
        "iteration_breakdown",
        "core",
        after=count("core.calls", _one),
    )

    # -- eval: one span per experiment execution (sweep points included) ------
    registry = _loaded("repro.eval.registry")
    if registry is not None:
        spec_cls = registry.ExperimentSpec
        execute = spec_cls.__dict__["execute"]

        @functools.wraps(execute)
        def execute_span(self, **params):
            if not recorder.active:
                return execute(self, **params)
            recorder.open("eval.exp", self.name)
            try:
                return execute(self, **params)
            finally:
                recorder.close()
                if recorder.innermost_layer() == "eval.sweep":
                    recorder.add("eval.points")

        spec_cls.execute = execute_span


def layer_report(recorder: Recorder, exp_names: List[str]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (see BENCHMARK.json)."""
    c = recorder.counters
    s = recorder.self_s

    def per(total_s: float, n: float) -> float:
        return total_s * 1e9 / n if n else 0.0

    reads = c["tenanalyzer.reads"]
    transfers = c["comm.transfers"]
    crypto_lines = c["crypto.lines"]
    out = {
        "tracegen.self_s": s["tracegen"],
        "tracegen.calls": c["tracegen.calls"],
        "tracegen.lines": c["tracegen.lines"],
        "tracegen.ns_per_line": per(s["tracegen"], c["tracegen.lines"]),
        "tenanalyzer.self_s": s["tenanalyzer"],
        "tenanalyzer.accesses": c["tenanalyzer.accesses"],
        "tenanalyzer.ns_per_access": per(s["tenanalyzer"], c["tenanalyzer.accesses"]),
        "tenanalyzer.hit_all": (
            (c["tenanalyzer.read_hit_in"] + c["tenanalyzer.read_hit_boundary"]) / reads
            if reads
            else 0.0
        ),
        "tenanalyzer.hit_in": c["tenanalyzer.read_hit_in"] / reads if reads else 0.0,
        "tenanalyzer.write_violations": c["tenanalyzer.write_violations"],
        "tenanalyzer.merges": c["tenanalyzer.merges"],
        "tenanalyzer.evictions": c["tenanalyzer.evictions"],
        "cpu_adam.self_s": s["cpu_adam"],
        "metadata.self_s": s["metadata"],
        "metadata.calls": c["metadata.calls"],
        "metadata.lines": c["metadata.lines"],
        "metadata.ns_per_line": per(s["metadata"], c["metadata.lines"]),
        "metadata.hit_rate": (
            c["metadata.hit_lines"] / c["metadata.lines"] if c["metadata.lines"] else 0.0
        ),
        "crypto.self_s": s["crypto"],
        "crypto.lines": crypto_lines,
        "crypto.ns_per_line": per(s["crypto"], crypto_lines),
        "crypto.merkle_updates": c["crypto.merkle_updates"],
        "crypto.merkle_verifies": c["crypto.merkle_verifies"],
        "mee.self_s": s["mee"],
        "mee.lines": c["mee.lines"],
        "npu.self_s": s["npu"],
        "npu.verifications": c["npu.verifications"],
        "npu.pending_max": recorder.maxima["npu.pending_max"],
        "comm.self_s": s["comm"],
        "comm.transfers": transfers,
        "comm.integrity_failures": c["comm.integrity_failures"],
        "comm.verified_ratio": (
            (transfers - c["comm.integrity_failures"]) / transfers if transfers else 0.0
        ),
        "core.self_s": s["core"],
        "core.calls": c["core.calls"],
    }
    for name in exp_names:
        out[f"eval.exp.{name}.s"] = recorder.exp_s.get(name, 0.0)
    out["eval.sweep.overhead_s"] = s["eval.sweep"]
    out["eval.points"] = c["eval.points"]
    # Time inside the timed body but outside every layer: the body's own
    # glue, experiment code between layer calls, and rendering.
    out["trace.unattributed_s"] = s["run"] + s["eval.exp"]
    return out


def attributed_s(recorder: Recorder) -> float:
    """Self time of the layers and of the sweep engine."""
    return sum(recorder.self_s[layer] for layer in LAYERS) + recorder.self_s["eval.sweep"]


def sim_lines(recorder: Recorder) -> float:
    """Modelled cachelines through TenAnalyzer, the metadata model and the MEE."""
    c = recorder.counters
    return c["tenanalyzer.accesses"] + c["metadata.lines"] + c["mee.lines"]
