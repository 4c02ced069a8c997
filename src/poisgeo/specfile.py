"""On-disk manifold and foliation descriptions (JSON with expression leaves).

A manifold spec stores the upper triangle of the bivector and cometric as
expression strings; a foliation spec stores a leaf frame, tangent metric and
2-form the same way.  Loading is strict: missing keys, wrong shapes, or bad
indices raise SpecFileError (the CLI maps those to exit code 2), while parse
errors inside expressions surface as ExprSyntaxError with offsets.
"""

import json
from fractions import Fraction

try:
    # CPython's built-in SHA-256: the digest hashlib gives, without loading
    # OpenSSL, which adds about 3.5 MB to every process that reads a spec
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .chart import Chart
from .connection import CoMetric, levi_civita
from .errors import PoleAtPoint, SpecFileError
from .foliation import TangentMetric, split_cotangent
from .parser import parse_scalar
from .poisson import Bivector
from .reconstruct import FoliationInput
from .tensor import PForm, VectorField


class ManifoldSpec:
    """A named (chart, bivector, cometric, declared rank, samples) bundle.

    ``where`` names the file that holds the samples in a pole's message (the
    spec's name when None); it is not kept.
    """

    __slots__ = (
        "name", "chart", "pi", "cometric", "declared_rank", "samples", "_splitting",
        "_connection",
    )

    def __init__(self, name, chart, pi, cometric, declared_rank, samples, where=None):
        self.name = name
        self.chart = chart
        self.pi = pi
        self.cometric = cometric
        self.declared_rank = declared_rank
        self.samples = tuple(tuple(Fraction(c) for c in p) for p in samples)
        self._splitting = None
        self._connection = None
        if not self.samples:
            raise SpecFileError("manifold spec needs at least one sample")
        for p in self.samples:
            if len(p) != chart.dim:
                raise SpecFileError(f"sample {p} has wrong dimension")
        n = chart.dim
        _check_no_poles(
            where or name,
            [(f"pi entry ({i}, {j})", pi.entry(i, j)) for i in range(n) for j in range(i + 1, n)]
            + [(f"cometric entry ({i}, {j})", cometric.entry(i, j))
               for i in range(n) for j in range(i, n)],
            self.samples,
        )

    def with_samples(self, samples, where=None):
        """The same spec at other sample points, with no splitting kept; the
        kept connection, which depends on (pi, cometric) alone, is handed over."""
        spec = ManifoldSpec(
            self.name, self.chart, self.pi, self.cometric, self.declared_rank, samples, where
        )
        spec._connection = self._connection
        return spec

    def splitting(self):
        """The cotangent splitting of (pi, cometric, declared rank, samples),
        built on first use and kept once it succeeds; a build that raises
        (RankNotConstant, RankOdd, ...) keeps nothing and raises again on
        the next call."""
        if self._splitting is None:
            self._splitting = split_cotangent(
                self.pi, self.cometric, self.declared_rank, self.samples
            )
        return self._splitting

    def connection(self):
        """The Levi-Civita Christoffel table of (pi, cometric), built on first
        use and kept once it succeeds; a build that raises SingularMetric
        keeps nothing and raises again on the next call."""
        if self._connection is None:
            self._connection = levi_civita(self.pi, self.cometric)
        return self._connection

    def to_dict(self):
        n = self.chart.dim
        return {
            "name": self.name,
            "coordinates": list(self.chart.names),
            "pi": [
                [i, j, str(self.pi.entry(i, j))]
                for i in range(n)
                for j in range(i + 1, n)
                if not self.pi.entry(i, j).is_zero
            ],
            "cometric": [
                [i, j, str(self.cometric.entry(i, j))]
                for i in range(n)
                for j in range(i, n)
                if not self.cometric.entry(i, j).is_zero
            ],
            "declared_rank": self.declared_rank,
            "samples": [[_fraction_str(c) for c in p] for p in self.samples],
        }


class FoliationSpec:
    """A named (chart, leaf frame, tangent metric, 2-form, samples) bundle;
    ``where`` as for ManifoldSpec."""

    __slots__ = ("name", "chart", "frame", "tangent_metric", "omega", "samples")

    def __init__(self, name, chart, frame, tangent_metric, omega, samples, where=None):
        self.name = name
        self.chart = chart
        self.frame = tuple(frame)
        self.tangent_metric = tangent_metric
        self.omega = omega
        self.samples = tuple(tuple(Fraction(c) for c in p) for p in samples)
        if not self.samples:
            raise SpecFileError("foliation spec needs at least one sample")
        for p in self.samples:
            if len(p) != chart.dim:
                raise SpecFileError(f"sample {p} has wrong dimension")
        n = chart.dim
        _check_no_poles(
            where or name,
            [(f"frame entry ({a}, {i})", X.comps[i]) for a, X in enumerate(self.frame)
             for i in range(n)]
            + [(f"tangent_metric entry ({i}, {j})", tangent_metric.entry(i, j))
               for i in range(n) for j in range(i, n)]
            + [(f"omega entry {idx}", f) for idx, f in omega.comps.items()],
            self.samples,
        )

    def with_samples(self, samples, where=None):
        """The same spec at other sample points."""
        return FoliationSpec(
            self.name, self.chart, self.frame, self.tangent_metric, self.omega, samples, where
        )

    def foliation_input(self):
        return FoliationInput(
            self.chart, self.frame, self.tangent_metric, self.omega, self.samples
        )


def _check_no_poles(where, entries, samples):
    """SpecFileError, starting with ``where``, if a (label, ScalarField) entry
    has a pole at a sample."""
    for label, field in entries:
        if field.is_polynomial:
            continue
        for p in samples:
            try:
                field.parts_at(p)
            except PoleAtPoint:
                point = ", ".join(_fraction_str(c) for c in p)
                raise SpecFileError(f"{where}: {label} has a pole at sample ({point})") from None


def _fraction_str(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _require(mapping, key, kind, where):
    if key not in mapping:
        raise SpecFileError(f"{where}: missing required key {key!r}")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise SpecFileError(f"{where}: key {key!r} has the wrong type")
    return value


def _load_name(data, where):
    """The spec's name; SpecFileError unless it encodes as UTF-8, which a
    JSON escape of a lone surrogate (``"\\ud800"``) does not."""
    name = _require(data, "name", str, where)
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        raise SpecFileError(f"{where}: key 'name' does not encode as UTF-8") from None
    return name


def _load_chart(data, where):
    coords = _require(data, "coordinates", list, where)
    if not all(isinstance(c, str) for c in coords):
        raise SpecFileError(f"{where}: coordinates must be strings")
    try:
        return Chart(coords)
    except Exception as exc:
        raise SpecFileError(f"{where}: {exc}") from None


def _load_samples(data, chart, where):
    raw = _require(data, "samples", list, where)
    if not raw:
        raise SpecFileError(f"{where}: needs at least one sample")
    samples = []
    for p in raw:
        if not isinstance(p, list) or len(p) != chart.dim:
            raise SpecFileError(f"{where}: sample {p!r} has wrong shape")
        try:
            samples.append(tuple(Fraction(str(c)) for c in p))
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFileError(f"{where}: bad sample entry ({exc})") from None
    return samples


def _load_entries(raw, chart, where, symmetric):
    if not isinstance(raw, list):
        raise SpecFileError(f"{where}: expected a list of [i, j, expr] triples")
    out = {}
    n = chart.dim
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 3
            or not isinstance(item[0], int)
            or not isinstance(item[1], int)
            or not isinstance(item[2], str)
        ):
            raise SpecFileError(f"{where}: bad entry {item!r}, want [i, j, \"expr\"]")
        i, j, expr = item
        if not (0 <= i < n and 0 <= j < n and (i <= j if symmetric else i < j)):
            raise SpecFileError(f"{where}: index pair ({i}, {j}) out of range")
        if (i, j) in out:
            raise SpecFileError(f"{where}: duplicate entry ({i}, {j})")
        out[(i, j)] = parse_scalar(expr, chart)
    return out


def load_manifold_spec(data, where="manifold spec"):
    """Build a ManifoldSpec from a parsed JSON object."""
    if not isinstance(data, dict):
        raise SpecFileError(f"{where}: top level must be an object")
    name = _load_name(data, where)
    chart = _load_chart(data, where)
    pi_entries = _load_entries(_require(data, "pi", list, where), chart, where, False)
    g_entries = _load_entries(
        _require(data, "cometric", list, where), chart, where, True
    )
    declared_rank = _require(data, "declared_rank", int, where)
    if isinstance(declared_rank, bool) or not 0 <= declared_rank <= chart.dim:
        raise SpecFileError(f"{where}: declared_rank must be an integer in 0..{chart.dim}")
    samples = _load_samples(data, chart, where)
    pi = Bivector.from_upper(chart, pi_entries)
    cometric = CoMetric.from_upper(chart, g_entries)
    return ManifoldSpec(name, chart, pi, cometric, declared_rank, samples, where)


def load_foliation_spec(data, where="foliation spec"):
    """Build a FoliationSpec from a parsed JSON object."""
    if not isinstance(data, dict):
        raise SpecFileError(f"{where}: top level must be an object")
    name = _load_name(data, where)
    chart = _load_chart(data, where)
    raw_frame = _require(data, "frame", list, where)
    frame = []
    for row in raw_frame:
        if not isinstance(row, list) or len(row) != chart.dim:
            raise SpecFileError(f"{where}: frame row {row!r} has wrong shape")
        frame.append(
            VectorField(chart, [parse_scalar(str(e), chart) for e in row])
        )
    g_entries = _load_entries(
        _require(data, "tangent_metric", list, where), chart, where, True
    )
    tangent = TangentMetric.from_upper(chart, g_entries)
    omega_entries = _load_entries(_require(data, "omega", list, where), chart, where, False)
    omega = PForm(chart, 2, omega_entries)
    samples = _load_samples(data, chart, where)
    return FoliationSpec(name, chart, frame, tangent, omega, samples, where)


def classify_spec(data):
    """'manifold' if the object has a bivector, 'foliation' if it has a frame."""
    if isinstance(data, dict) and "pi" in data:
        return "manifold"
    if isinstance(data, dict) and "frame" in data:
        return "foliation"
    raise SpecFileError("spec object has neither 'pi' nor 'frame'")


def _decode_json(raw, where):
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON; too deep; huge ints
        raise SpecFileError(f"{where}: not valid JSON ({exc})") from None


def read_spec_bytes(path):
    """(raw bytes, sha256-hex) of a file; SpecFileError if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SpecFileError(str(exc)) from None
    return raw, sha256(raw).hexdigest()


def parse_spec_bytes(raw, where):
    """(kind, spec) built from a spec file's bytes; ``where`` names the file in errors."""
    data = _decode_json(raw, where)
    try:
        kind = classify_spec(data)
    except SpecFileError as exc:
        raise SpecFileError(f"{where}: {exc}") from None
    if kind == "manifold":
        return kind, load_manifold_spec(data, where=where)
    return kind, load_foliation_spec(data, where=where)


def load_spec_file(path):
    """Read a JSON spec file; returns (kind, spec, sha256-hex)."""
    raw, digest = read_spec_bytes(path)
    kind, spec = parse_spec_bytes(raw, str(path))
    return kind, spec, digest


def load_samples_file(path, chart):
    """Read an override sample list (JSON array of points)."""
    data = _decode_json(read_spec_bytes(path)[0], str(path))
    if not isinstance(data, list):
        raise SpecFileError(f"{path}: samples override must be a JSON array")
    return _load_samples({"samples": data}, chart, str(path))
