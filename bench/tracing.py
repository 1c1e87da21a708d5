"""Spans around the benchmark's calls into superlie, and per-layer metrics.

A traced round records one span per call the benchmark makes into a layer
(name, layer, start, end, parent span, operation id) and runs the same
calls under ``cProfile``.  From the profile it totals self time per source
module of ``src/superlie`` (plus the ``fractions`` backend), reads the
cumulative time of the hot entry points and counts calls of the functions
whose call counts the ROADMAP's optimisations should move.

Functions are looked up by attribute path at run time.  A metric whose
function or module a later version of the library removes or renames reads
None (null in the JSON), not 0, so that it cannot pass for a gain.
"""

from __future__ import annotations

import cProfile
import contextlib
import importlib
import os
import pstats
import statistics
import time

LAYERS = ("scalars", "fractions", "linalg", "abelian", "algebra", "osp12",
          "rootsys", "affinize", "matrixsuper", "documents", "reports", "cli")

# metric -> (module, attribute path): cumulative seconds inside the function
ENTRY_TIMES = {
    "osp12.scramble_s": ("osp12", "scramble"),
    "osp12.check_representation_s": ("osp12", "check_representation"),
    "osp12.decompose_s": ("osp12", "decompose"),
    "rootsys.check_axioms_s": ("rootsys", "check_axioms"),
    "affinize.verify_affinized_s": ("affinize", "verify_affinized"),
    "matrixsuper.verify_twisted_s": ("matrixsuper", "verify_twisted"),
    "matrixsuper.sharp_eigenspaces_s": ("matrixsuper", "sharp_eigenspaces"),
    "linalg.span_rank_s": ("linalg", "span_rank"),
}

# metric -> functions whose call counts add up to it
CALL_COUNTS = {
    "scalars.rat_new": [("fractions", "Fraction.__new__"),
                        ("fractions", "Fraction._from_coprime_ints")],
    "scalars.gaussian_ops": [("scalars", "GaussianRational.__mul__"),
                             ("scalars", "GaussianRational.__add__")],
    "linalg.echelon_adds": [("linalg", "Echelon.add")],
    "osp12.dense_echelon_adds": [("osp12", "DenseEchelon.add")],
    "osp12.dense_kernels": [("osp12", "dense_kernel_tagged")],
    "abelian.form_evals": [("abelian", "SymmetricGroupForm.eval")],
    "rootsys.cartan_int_calls": [("rootsys", "RootSupersystem.cartan_int")],
    "rootsys.string_scans": [("rootsys", "_string_scan")],
    "rootsys.reflect_calls": [("rootsys", "reflect")],
    "affinize.brackets": [("affinize", "AffinizedAlgebra.bracket")],
    "affinize.theta_calls": [("affinize", "CocycleTorus.theta")],
    "algebra.brackets": [("algebra", "LieSuperalgebra.bracket")],
    "matrixsuper.twisted_brackets": [("matrixsuper", "TwistedAlgebra.bracket")],
    "matrixsuper.tm_mul_calls": [("matrixsuper", "tm_mul")],
}

# Python 3.12 and later build arithmetic results through this constructor,
# which bypasses Fraction.__new__; older versions do not have it
OPTIONAL = {("fractions", "Fraction._from_coprime_ints")}

CLI_SUBCOMMANDS = ("verify", "roots", "decompose", "affinize", "twist")

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "s" for name in ENTRY_TIMES},
    "cli.import_s": "s",
    **{f"cli.{sub}_p50_s": "s" for sub in CLI_SUBCOMMANDS},
    **{name: "count" for name in CALL_COUNTS},
}


class NullTracer:
    """The plain run: no spans, no profiler."""

    profiling = False

    @contextlib.contextmanager
    def op(self, name: str):
        yield

    @contextlib.contextmanager
    def span(self, name: str):
        yield


class Tracer(NullTracer):
    """Spans in memory, plus a cProfile profile of every operation.

    ``op`` opens an operation (a root span with a fresh operation id) and
    profiles it; ``span`` records one call into a layer inside it.  Span
    names are "<layer>.<function>".
    """

    profiling = True

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        # C builtins are not profiled: their time goes to the calling Python
        # function, and the profiler costs about a quarter less
        self.profile = cProfile.Profile(builtins=False)
        self._stack: list[int] = []
        self._op_id = -1

    def _record(self, name: str, layer: str):
        span = {"id": len(self.spans), "op": self._op_id, "name": name,
                "layer": layer,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter() - self.origin, "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self.origin
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, name: str):
        self._op_id += 1
        span = self._record(name, "op")
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()
            self._close(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._record(name, name.split(".", 1)[0])
        try:
            yield
        finally:
            self._close(span)

    def self_seconds_by_layer(self) -> dict:
        """Span duration minus the time covered by its child spans, per layer."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
            out[s["layer"]] = out.get(s["layer"], 0.0) + own
        return out


def _code_key(module, path: str):
    """cProfile's key (file, first line, name) for module.path, or None."""
    if module is None:
        return None
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    code = getattr(obj, "__code__", None)
    if code is None:
        return None
    return (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)


def _layer_module(layer: str):
    """The module a layer's functions live in, or None if it is gone."""
    try:
        return importlib.import_module(layer if layer == "fractions" else f"superlie.{layer}")
    except ImportError:
        return None


def layer_metrics(stats: pstats.Stats, package_dir: str, import_times: list[float],
                  cli_times: dict) -> dict:
    """The per-layer metrics from a profile and the timings taken outside it.

    ``cli_times`` maps CLI subcommands to the wall times of their
    invocations.  Layers a workload never enters read 0; metrics of
    functions or modules that cannot be found read None.
    """
    modules = {layer: _layer_module(layer) for layer in LAYERS}
    files = {os.path.realpath(modules["fractions"].__file__): "fractions"}
    for layer in LAYERS:
        if layer != "fractions":
            files[os.path.join(os.path.realpath(package_dir), f"{layer}.py")] = layer
    raw = stats.stats
    by_key = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (filename, line, name), (_, ncalls, tt, ct, _) in raw.items():
        path = os.path.realpath(filename) if filename.endswith(".py") else filename
        by_key[(path, line, name)] = (ncalls, ct)
        layer = files.get(path)
        if layer is not None:
            self_s[layer] += tt

    def lookup(module_name, path):
        """(calls, cumulative s), or None if the function cannot be found."""
        key = _code_key(modules[module_name], path)
        return None if key is None else by_key.get(key, (0, 0.0))

    out = {f"{layer}.self_s": self_s[layer] if modules[layer] is not None else None
           for layer in LAYERS}
    for metric, (module_name, path) in ENTRY_TIMES.items():
        found = lookup(module_name, path)
        out[metric] = None if found is None else found[1]
    out["cli.import_s"] = statistics.median(import_times)
    for sub in CLI_SUBCOMMANDS:
        times = cli_times.get(sub, [])
        out[f"cli.{sub}_p50_s"] = statistics.median(times) if times else 0.0
    for metric, funcs in CALL_COUNTS.items():
        found = [(f, lookup(*f)) for f in funcs]
        if any(hit is None and f not in OPTIONAL for f, hit in found):
            out[metric] = None
        else:
            out[metric] = sum(hit[0] for _, hit in found if hit is not None)
    return out
