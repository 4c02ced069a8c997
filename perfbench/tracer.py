"""Outside-in span tracing of poisgeo's layers, installed from the benchmark.

Nothing in poisgeo knows about this module.  ``install`` replaces every
public function and method of each layer module with a wrapper that records
a span (name, start, end, parent, op id) in flat in-memory arrays; spans are
aggregated and written out only when the run ends.  Functions are patched
in every ``poisgeo`` module that bound them, because ``from .kernel import
poly_mul`` copies the reference into ``scalar``, ``linalg`` and ``polyops``.
A module that imports inside a function body reads the defining module's
attribute at call time, which is patched too.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# layer name -> module; the kernel layer is the pure-Python kernel module
LAYERS = {
    "kernel": "poisgeo._kernel_py",
    "polyops": "poisgeo.polyops",
    "scalar": "poisgeo.scalar",
    "tensor": "poisgeo.tensor",
    "poisson": "poisgeo.poisson",
    "connection": "poisgeo.connection",
    "foliation": "poisgeo.foliation",
    "reconstruct": "poisgeo.reconstruct",
    "linalg": "poisgeo.linalg",
    "cohomology": "poisgeo.cohomology",
    "specfile": "poisgeo.specfile",
    "parser": "poisgeo.parser",
    "cli": "poisgeo.cli",
}

# Dunder methods that do arithmetic work, traced under their plain name
# (``__matmul__`` -> ``matmul``, ``__init__`` -> ``init``).
TRACED_DUNDERS = (
    "__init__", "__add__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__matmul__", "__eq__",
)

# Every name a per-layer metric is built from.  ``install`` fails loudly if
# one of them is gone, instead of silently reporting zero work.
REQUIRED = (
    "kernel.poly_mul", "kernel.int_row_echelon",
    "polyops.poly_gcd", "polyops.poly_div_exact",
    "scalar.ScalarField.init",
    "poisson.Bivector.d_pi",
    "connection.levi_civita", "connection.torsion_defect", "connection.metric_defect",
    "foliation.split_cotangent", "foliation.induced_tangent_metric",
    "foliation.invariance_report",
    "reconstruct.validate_input", "reconstruct.build_structure",
    "linalg.RationalMatrix.rank", "linalg.RationalMatrix.kernel_basis",
    "linalg.RationalMatrix.matmul", "linalg.FieldMatrix.matmul",
    "linalg.FieldMatrix.kernel_basis", "linalg.FieldMatrix.solve",
    "cohomology.assemble_dpi_matrix", "cohomology.truncated_betti",
    "specfile.load_spec_file", "parser.parse_scalar", "cli.run_check_pipeline",
)


class TracerError(RuntimeError):
    """A function the tracer expects is missing from poisgeo."""


class Tracer:
    """Span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("I")
        self.current_op = 0
        self.enabled = False
        self._stack = [-1]
        self._patched = []  # (owner, attribute, original)
        self.counters = {
            "kernel.poly_mul.term_products": 0,
            "kernel.int_row_echelon.max_entry_bits": 0,
            "polyops.poly_gcd.nontrivial": 0,
            "scalar.max_terms": 0,
            "cohomology.assemble_dpi_matrix.cols": 0,
            "cohomology.assemble_dpi_matrix.entries": 0,
            "cohomology.assemble_dpi_matrix.nonzeros": 0,
        }

    # -- spans ---------------------------------------------------------------

    def _intern(self, name):
        k = self._name_ids.get(name)
        if k is None:
            k = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return k

    def _wrap(self, fn, name, after=None):
        """Wrapper recording one span per call; ``after(args, result)`` counts."""
        nid = self._intern(name)
        clock = time.perf_counter
        stack = self._stack
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            # Skipping recursive re-entry counts only top-level calls of a
            # recursive function (poly_gcd recurses through _content_pp).
            if not tr.enabled or (top >= 0 and tr.name_id[top] == nid):
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(top)
            tr.op.append(tr.current_op)
            tr.end.append(0.0)
            stack.append(idx)
            tr.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _count_poly_mul(self, args, result):
        self.counters["kernel.poly_mul.term_products"] += len(args[0]) * len(args[1])

    def _count_echelon(self, args, result):
        bits = 0
        for row in result[2]:
            for e in row:
                b = e.bit_length()
                if b > bits:
                    bits = b
        c = self.counters
        if bits > c["kernel.int_row_echelon.max_entry_bits"]:
            c["kernel.int_row_echelon.max_entry_bits"] = bits

    def _count_gcd(self, args, result):
        if not (len(result) == 1 and not any(next(iter(result))) and
                abs(next(iter(result.values()))) == 1):
            self.counters["polyops.poly_gcd.nontrivial"] += 1

    def _count_scalar(self, args, result):
        field = args[0]  # the instance __init__ just filled; its canonical dicts
        terms = max(len(field._num), len(field._den))
        if terms > self.counters["scalar.max_terms"]:
            self.counters["scalar.max_terms"] = terms

    def _count_assembly(self, args, result):
        mat = result[0]
        c = self.counters
        c["cohomology.assemble_dpi_matrix.cols"] += mat.cols
        c["cohomology.assemble_dpi_matrix.entries"] += mat.rows * mat.cols
        c["cohomology.assemble_dpi_matrix.nonzeros"] += sum(
            1 for row in mat.entries for e in row if e
        )

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every layer's public functions and methods in place."""
        if self._patched:
            raise TracerError("tracer already installed")
        after = {
            "kernel.poly_mul": self._count_poly_mul,
            "kernel.int_row_echelon": self._count_echelon,
            "polyops.poly_gcd": self._count_gcd,
            "scalar.ScalarField.init": self._count_scalar,
            "cohomology.assemble_dpi_matrix": self._count_assembly,
        }
        for modname in LAYERS.values():
            __import__(modname)
        packages = [m for n, m in sys.modules.items() if n == "poisgeo" or n.startswith("poisgeo.")]
        wrapped_fns = {}
        for layer, modname in LAYERS.items():
            mod = sys.modules[modname]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped_fns[obj] = self._wrap(obj, name, after.get(name))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}", after)
        # rebind each wrapped function wherever a poisgeo module bound it
        for mod in packages:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped_fns:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapped_fns[obj])
        missing = [n for n in REQUIRED if n not in self._name_ids]
        if missing:
            self.uninstall()
            raise TracerError(f"poisgeo no longer defines: {', '.join(missing)}")

    def _wrap_class(self, cls, prefix, after):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            label = attr.strip("_") if attr in TRACED_DUNDERS else attr
            name = f"{prefix}.{label}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, name, after.get(name)))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, after.get(name))
            else:
                continue  # properties and data
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def span_arrays(self):
        """Spans as numpy arrays (copies), with each span's self time."""
        nid = np.array(self.name_id, dtype=np.uint32)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name_id": nid, "start": start, "end": end, "parent": parent,
            "op": np.array(self.op, dtype=np.uint32), "self": dur - child,
            "total": dur,
        }

    def table(self):
        """Per-function {calls, self_s, total_s} plus the boundary counters.

        A function's total_s counts only its outermost spans, so a function
        reached again below itself (through another function) is not counted
        twice.
        """
        spans = self.span_arrays()
        nid, parent = spans["name_id"], spans["parent"]
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=spans["self"], minlength=k)
        outer = np.ones(len(nid), dtype=bool)
        # a span is inner if an ancestor has the same name; walk ancestors
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            same = np.zeros(len(nid), dtype=bool)
            same[live] = nid[anc[live]] == nid[live]
            outer &= ~same
            anc[live] = parent[anc[live]]
        total_s = np.bincount(nid[outer], weights=spans["total"][outer], minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.total_s"] = float(total_s[i])
        out.update(self.counters)
        return out

    def save(self, path):
        spans = self.span_arrays()
        np.savez_compressed(
            path, names=np.array(self.names), **{k: v for k, v in spans.items()}
        )
