"""Spans and counters for the benchmark's traced run.

The tracer changes nothing in ``src/``: it replaces module attributes from the
outside.  Every public function of each ``gaussdiv`` module is wrapped at every
module that binds it (``lab`` and ``cli`` import names from ``gaussian`` into
their own namespaces, so patching only the defining module would miss those
calls), together with the two validating constructors and the numpy/scipy
factorization entry points.  A span records its name, start, end, parent span
and operation id; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "gaussian", "logdet", "operators", "lab", "bayes", "linalg")
LIBRARY_MODULES = ("gaussian", "logdet", "operators", "lab", "bayes")
LINALG_ENTRY_POINTS = (
    ("numpy.linalg", ("eigh", "eigvalsh", "solve", "inv", "qr")),
    ("scipy.linalg", ("eigvals", "cho_factor", "cho_solve")),
)
CONSTRUCTORS = (
    ("gaussian", "GaussianMeasure", "gaussian.measure_init"),
    ("bayes", "LinearGaussianModel", "bayes.model_init"),
)

# Operation id under which the traced set-up runs; per-operation metrics leave it out.
SETUP_OP = "setup"


def _dim(a) -> int:
    shape = getattr(a, "shape", None)
    return int(shape[-1]) if shape else 0


def _rhs_columns(b) -> int:
    shape = getattr(b, "shape", ())
    return int(shape[-1]) if len(shape) > 1 else 1


def _flops(name: str, args) -> float:
    """Textbook flop model of one LAPACK call from its argument shapes (computed, not counted)."""
    if name in ("cho_solve",):
        factor, b = args[0], args[1]
        n = _dim(factor[0])
        return 2.0 * n * n * _rhs_columns(b)
    a = args[0]
    n = _dim(a)
    if name == "eigvalsh":
        return 4.0 / 3.0 * n**3
    if name == "eigh":
        return 9.0 * n**3
    if name == "solve":
        return 2.0 / 3.0 * n**3 + 2.0 * n * n * _rhs_columns(args[1])
    if name == "inv":
        return 2.0 * n**3
    if name == "qr":
        m = int(a.shape[0])
        return 4.0 * m * n * n - 4.0 / 3.0 * n**3
    if name == "eigvals":
        return 10.0 * n**3
    if name == "cho_factor":
        return n**3 / 3.0
    return 0.0


def _linalg_counts(name):
    def counts(args, kwargs, result):
        return (("linalg.flops_computed", _flops(name, args)),)

    return counts


def _rows(args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    shape = getattr(points, "shape", (1,))
    return (("gaussian.log_rn_batch.rows", shape[0] if len(shape) > 1 else 1),)


def _normals(args, kwargs, result):
    return (("lab.normals_drawn", int(getattr(result, "size", 1))),)


def _logdet_path(args, kwargs, result):
    return ((f"logdet.path.{result.path.value}", 1),)


COUNTERS = {
    "gaussian.log_radon_nikodym_batch": _rows,
    "lab.standard_normal": _normals,
    "logdet.alpha_logdet": _logdet_path,
}


class Tracer:
    """In-memory span recorder.  Records only while an operation id is set."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, layer, start, end, self_s)
        self.counts: dict = defaultdict(lambda: defaultdict(float))  # op -> counter -> value
        self.op = None
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op) -> None:
        self.op = op

    def end_op(self) -> None:
        self.op = None

    def count(self, key: str, value: float) -> None:
        if self.op is not None:
            self.counts[self.op][key] += value

    def wrap(self, name: str, layer: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        if layer == "linalg":
            counter = _linalg_counts(name.split(".", 1)[1])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = len(tracer.spans) + len(stack)
            frame = [span_id, time.perf_counter(), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                tracer.spans.append(
                    (span_id, parent, tracer.op, name, layer, frame[1], end, duration - frame[2])
                )
            if counter is not None:
                for key, value in counter(args, kwargs, result):
                    tracer.count(key, value)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding; :meth:`uninstall` restores them."""
        import numpy.linalg
        import scipy.linalg

        import gaussdiv.cli

        targets = {}  # id(original) -> (original, wrapper)

        def target(fn, name, layer):
            targets[id(fn)] = (fn, self.wrap(name, layer, fn))

        for short in LIBRARY_MODULES:
            module = sys.modules[f"gaussdiv.{short}"]
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    target(value, f"{short}.{attr}", short)
        target(gaussdiv.cli.main, "cli.main", "cli")
        for module_name, names in LINALG_ENTRY_POINTS:
            module = sys.modules[module_name]
            for attr in names:
                target(getattr(module, attr), f"linalg.{attr}", "linalg")

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gaussdiv" or key.startswith("gaussdiv."))]
        modules += [numpy.linalg, scipy.linalg]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

        for short, cls_name, name in CONSTRUCTORS:
            cls = getattr(sys.modules[f"gaussdiv.{short}"], cls_name)
            self._patch(cls, "__init__", self.wrap(name, short, cls.__init__))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self, ops) -> dict:
        """Totals over the given operation ids.

        ``calls``/``seconds`` per span name count only outermost spans of that
        name's metric group, so nested calls inside one group (for example
        ``exact_hellinger`` calling ``exact_renyi``) are not counted twice.
        ``self`` is per layer: span duration minus the time its child spans cover.
        """
        ops = set(ops)
        by_id = {span[0]: span for span in self.spans}
        calls = defaultdict(int)
        seconds = defaultdict(float)
        self_s = defaultdict(float)
        for span in self.spans:
            _, parent, op, name, layer, start, end, own = span
            if op not in ops:
                continue
            self_s[layer] += own
            group = GROUP_OF.get(name)
            if group is None:
                continue
            ancestor = parent
            nested = False
            while ancestor is not None:
                above = by_id[ancestor]
                if GROUP_OF.get(above[3]) == group:
                    nested = True
                    break
                ancestor = above[1]
            if not nested:
                calls[group] += 1
                seconds[group] += end - start
        counters = defaultdict(float)
        for op in ops:
            for key, value in self.counts.get(op, {}).items():
                counters[key] += value
        return {"calls": dict(calls), "seconds": dict(seconds), "self": dict(self_s),
                "counters": dict(counters)}

    def per_op_counts(self) -> dict:
        """Per operation id: linalg call counts and every counter, for the determinism check."""
        out = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            if span[4] == "linalg":
                out[span[2]][span[3] + ".calls"] += 1
        for op, counters in self.counts.items():
            for key, value in counters.items():
                out[op][key] += value
        return {str(op): dict(values) for op, values in out.items()}


KINDS = ("kl", "renyi", "bhattacharyya", "hellinger")
METRIC_GROUPS = {
    "gaussian.measure_init": ("gaussian.measure_init",),
    "gaussian.equivalence_data": ("gaussian.equivalence_data",),
    "gaussian.exact": tuple(f"gaussian.exact_{k}" for k in KINDS),
    "gaussian.regularized": tuple(f"gaussian.regularized_{k}" for k in KINDS),
    "gaussian.log_rn_batch": ("gaussian.log_radon_nikodym_batch",),
    "logdet.alpha_logdet": ("logdet.alpha_logdet",),
    "operators.ext_fredholm_logdet": ("operators.ext_fredholm_logdet",),
    "operators.sym_eigen": ("operators.sym_eigen",),
    "operators.psd_sqrt": ("operators.psd_sqrt",),
    "lab.sample_gaussian": ("lab.sample_gaussian",),
    "lab.standard_normal": ("lab.standard_normal",),
    "lab.sweep_gamma": ("lab.sweep_gamma",),
    "lab.sweep_r": ("lab.sweep_r",),
    "lab.write_sweep_csv": ("lab.write_sweep_csv",),
    "lab.gen_measure": ("lab.gen_measure",),
    "bayes.model_init": ("bayes.model_init",),
    "bayes.posterior": ("bayes.posterior",),
    "bayes.kl_posterior_prior": ("bayes.kl_posterior_prior",),
}
LINALG_NAMES = tuple(name for _, names in LINALG_ENTRY_POINTS for name in names)
for _name in LINALG_NAMES:
    METRIC_GROUPS[f"linalg.{_name}"] = (f"linalg.{_name}",)
GROUP_OF = {name: group for group, names in METRIC_GROUPS.items() for name in names}

# No CLI path the workloads take reaches these at this commit (qr runs only in
# set-up), so their time would read 0 on every run; their call counters still
# watch for them.
LINALG_UNTIMED = ("inv", "qr", "eigvals")


def _spec():
    """(metric, unit, source kind, key) for every per-layer metric, in report order."""
    rows = [(f"{layer}.self_ms", "ms/op", "self", layer) for layer in LAYERS]
    rows.append(("cli.bytes_in", "B/op", "counter", "cli.bytes_in"))

    def timed(group, calls=True):
        if calls:
            rows.append((f"{group}.calls", "calls/op", "calls", group))
        rows.append((f"{group}.ms", "ms/op", "seconds", group))

    timed("gaussian.measure_init")
    timed("gaussian.equivalence_data")
    timed("gaussian.exact", calls=False)
    timed("gaussian.regularized")
    timed("gaussian.log_rn_batch", calls=False)
    rows.append(("gaussian.log_rn_batch.rows", "rows/op", "counter", "gaussian.log_rn_batch.rows"))
    timed("logdet.alpha_logdet")
    for path in ("general", "equal_shift", "limit_pos1", "limit_neg1"):
        rows.append((f"logdet.path.{path}", "calls/op", "counter", f"logdet.path.{path}"))
    timed("operators.ext_fredholm_logdet")
    timed("operators.sym_eigen")
    timed("operators.psd_sqrt")
    for group in ("lab.sample_gaussian", "lab.standard_normal"):
        timed(group, calls=False)
    rows.append(("lab.normals_drawn", "count/op", "counter", "lab.normals_drawn"))
    for group in ("lab.sweep_gamma", "lab.sweep_r", "lab.write_sweep_csv"):
        timed(group, calls=False)
    rows.append(("lab.gen_measure.ms", "ms", "setup_seconds", "lab.gen_measure"))
    for group in ("bayes.model_init", "bayes.posterior", "bayes.kl_posterior_prior"):
        timed(group, calls=False)
    for name in LINALG_NAMES:
        if name in LINALG_UNTIMED:
            rows.append((f"linalg.{name}.calls", "calls/op", "calls", f"linalg.{name}"))
        else:
            timed(f"linalg.{name}")
    rows.append(("linalg.flops_computed", "flop/op", "counter", "linalg.flops_computed"))
    rows.append(("trace.overhead_ratio", "ratio", "overhead", None))
    rows.append(("trace.ops", "count", "ops", None))
    return rows


PER_LAYER = _spec()


def per_layer_metrics(summary: dict, setup: dict, n_ops: int, overhead: float) -> dict:
    """Per-operation values of every per-layer metric from :meth:`Tracer.summary` totals."""
    metrics = {}
    for metric, unit, kind, key in PER_LAYER:
        if kind == "self":
            value = 1e3 * summary["self"].get(key, 0.0) / n_ops
        elif kind == "counter":
            value = summary["counters"].get(key, 0.0) / n_ops
        elif kind == "calls":
            value = summary["calls"].get(key, 0) / n_ops
        elif kind == "seconds":
            value = 1e3 * summary["seconds"].get(key, 0.0) / n_ops
        elif kind == "setup_seconds":
            value = 1e3 * setup["seconds"].get(key, 0.0)
        elif kind == "overhead":
            value = overhead
        else:
            value = n_ops
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
