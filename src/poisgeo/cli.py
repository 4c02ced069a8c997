"""Command-line verifier.

Subcommands:

    check        full identity pipeline on a manifold spec
    christoffel  print the contravariant Christoffel table
    foliation    frames, leafwise symplectic form, invariance report
    construct    build (pi, cometric) from a foliation spec
    cohomology   truncated Betti numbers (polynomial bivectors only)
    report       machine-readable JSON combining check + foliation + table

Exit codes: 0 all requested verdicts pass, 1 at least one mathematical
verdict fails, 2 unreadable input (file, JSON schema, or expression error).
"""

import argparse
import json
import sys
import time
from itertools import combinations

from . import __version__
from .cohomology import thm31_cochain_report, truncated_betti
from .connection import (
    metric_defect_coordinate,
    riemann_poisson_defect,
    torsion_defect_coordinate,
)
from .errors import (
    ExprSyntaxError,
    Inconclusive,
    InvalidArgument,
    NonPolynomialBivector,
    NotPositiveDefiniteAt,
    PoisgeoError,
    RankNotConstant,
    RankOdd,
    SingularLeafwiseForm,
    SingularMetric,
    SpecFileError,
    WindowTooLarge,
)
from .foliation import (
    bundle_like_report,
    foliate_report,
    invariance_report,
    leaf_connection,
    leafwise_symplectic,
    parallel_omega_residuals,
)
from .linalg import FieldMatrix
from .reconstruct import build_structure, validate_input
from .specfile import (
    ManifoldSpec,
    _fraction_str,
    load_samples_file,
    parse_spec_bytes,
    read_spec_bytes,
)


class Check:
    """One verdict line of a report."""

    def __init__(self, name, status, witness=None, witness_nonzero_at=None, detail=None):
        self.name = name
        self.status = status
        self.witness = witness
        self.witness_nonzero_at = witness_nonzero_at
        self.detail = detail

    def as_dict(self):
        return {
            "name": self.name,
            "status": self.status,
            "witness": self.witness,
            "witness_nonzero_at": self.witness_nonzero_at,
            "detail": self.detail,
        }


def _witness_sample(field, samples):
    """A sample where the witness expression evaluates to a nonzero rational."""
    for p in samples:
        try:
            if field.parts_at(p)[0]:
                return [_fraction_str(c) for c in p]
        except PoisgeoError:
            continue
    return None


def _fail(name, witness_field, samples, detail=None):
    return Check(
        name,
        "fail",
        witness=str(witness_field) if witness_field is not None else None,
        witness_nonzero_at=_witness_sample(witness_field, samples)
        if witness_field is not None
        else None,
        detail=detail,
    )


# rank_constant and the verdicts that need the cotangent splitting it builds
_FOLIATION_CHECKS = (
    "rank_constant",
    "leafwise_symplectic_nondegenerate",
    "induced_metric_positive",
    "bracket_vs_lie_on_frames",
    "perp_invariance",
    "foliate_predicates",
    "bundle_like",
    "leaf_connection_parallel",
)


def run_check_pipeline(spec):
    """The full verdict list for a manifold spec, plus reusable context."""
    checks = []
    ctx = {}
    chart = spec.chart
    n = chart.dim
    pi, g, samples = spec.pi, spec.cometric, spec.samples

    checks.append(Check("cometric_symmetric", "pass"))
    try:
        g.validate(samples)
        checks.append(Check("cometric_positive_definite", "pass"))
        metric_ok = True
    except NotPositiveDefiniteAt as exc:
        minor = g.leading_minor(exc.minor_index + 1)
        checks.append(
            _fail("cometric_positive_definite", minor, samples, detail=str(exc))
        )
        metric_ok = False

    poisson = pi.is_poisson()
    if poisson:
        checks.append(Check("poisson_jacobi", "pass"))
    else:
        (i, j, k), val = pi.jacobi_witness()
        names = chart.names
        checks.append(
            _fail(
                "poisson_jacobi",
                val,
                samples,
                detail=f"jacobiator({names[i]},{names[j]},{names[k]}) is nonzero",
            )
        )

    split = None
    if metric_ok:
        try:
            split = spec.splitting()
            checks.append(Check("rank_constant", "pass"))
        except (RankNotConstant, RankOdd) as exc:
            witness = _rank_witness(pi, spec.declared_rank)
            checks.append(_fail("rank_constant", witness, samples, detail=str(exc)))
    else:
        checks.append(Check("rank_constant", "skip", detail="cometric invalid"))
    ctx["split"] = split

    D = None
    rp = False
    if metric_ok:
        D = spec.connection()
        # one pair or triple per orbit: the torsion defect is antisymmetric
        # in (i, j) and the metric defect symmetric in (j, k)
        torsion_ok = all(
            torsion_defect_coordinate(D, pi, i, j).is_zero
            for i in range(n)
            for j in range(i + 1, n)
        )
        metric_compat_ok = all(
            metric_defect_coordinate(D, g, pi, i, j, k).is_zero
            for i in range(n)
            for j in range(n)
            for k in range(j, n)
        )
        checks.append(Check("connection_torsion_free", "pass" if torsion_ok else "fail"))
        checks.append(Check("connection_metric", "pass" if metric_compat_ok else "fail"))
        defect = riemann_poisson_defect(pi, g, D)
        if poisson and defect is None:
            checks.append(Check("riemann_poisson", "pass"))
            rp = True
        elif defect is not None:
            (i, j, k), val = defect
            names = chart.names
            checks.append(
                _fail(
                    "riemann_poisson",
                    val,
                    samples,
                    detail=f"Dpi(d{names[i]},d{names[j]},d{names[k]}) is nonzero",
                )
            )
        else:
            # Dpi vanished but Jacobi failed (the cyclic identity makes this
            # unreachable); report the Jacobi witness for self-validation
            _, val = pi.jacobi_witness()
            checks.append(
                _fail("riemann_poisson", val, samples, detail="bivector is not Poisson")
            )
    else:
        checks.append(Check("connection_torsion_free", "skip", detail="cometric invalid"))
        checks.append(Check("connection_metric", "skip", detail="cometric invalid"))
        checks.append(Check("riemann_poisson", "skip", detail="cometric invalid"))
    ctx["connection"] = D

    if split is None:
        for name in _FOLIATION_CHECKS[1:]:
            checks.append(Check(name, "skip", detail="no cotangent splitting"))
        return checks, ctx

    try:
        omega = leafwise_symplectic(split)
        checks.append(Check("leafwise_symplectic_nondegenerate", "pass"))
        ctx["leafwise"] = omega
    except SingularLeafwiseForm as exc:
        checks.append(
            Check("leafwise_symplectic_nondegenerate", "fail", detail=str(exc))
        )
        omega = None

    try:
        split.tangent_metric().validate(samples)
        checks.append(Check("induced_metric_positive", "pass"))
    except NotPositiveDefiniteAt as exc:
        checks.append(Check("induced_metric_positive", "fail", detail=str(exc)))

    inv = invariance_report(split, rp)
    coord_note = (
        "coordinate-pair residuals vanish too"
        if inv["coordinate_bracket_ok"]
        else "coordinate-pair residuals are nonzero (expected off constant frames)"
    )
    if inv["bracket_vs_lie_ok"]:
        checks.append(Check("bracket_vs_lie_on_frames", "pass", detail=coord_note))
    else:
        witness = next(res for _, res in inv["bracket_vs_lie_residuals"] if not res.is_zero)
        checks.append(_fail("bracket_vs_lie_on_frames", witness, samples, detail=coord_note))
    if rp:
        if inv["perp_invariance_ok"]:
            checks.append(Check("perp_invariance", "pass"))
        else:
            witness = next(r for r in inv["perp_invariance_residuals"] if not r.is_zero)
            checks.append(_fail("perp_invariance", witness, samples))
    else:
        residual = next(
            (r for r in inv["perp_invariance_residuals"] if not r.is_zero), None
        )
        checks.append(
            Check(
                "perp_invariance",
                "skip",
                detail="asserted only on structures with vanishing Dpi"
                + (f"; observed residual {residual}" if residual is not None else ""),
            )
        )

    if rp:
        agree = True
        for kappa in split.kernel_frame:
            rep = foliate_report(split, kappa, D)
            if len(set(rep.values())) != 1 or not rep["basic"]:
                agree = False
        checks.append(Check("foliate_predicates", "pass" if agree else "fail"))
        try:
            bl = bundle_like_report(split)
            checks.append(Check("bundle_like", "pass" if bl["ok"] else "fail"))
        except Inconclusive as exc:
            checks.append(Check("bundle_like", "skip", detail=str(exc)))
        nabla = leaf_connection(D, split)
        residuals = parallel_omega_residuals(split, nabla, omega)
        parallel_ok = all(v.is_zero for v in residuals.values())
        checks.append(
            Check("leaf_connection_parallel", "pass" if parallel_ok else "fail")
        )
    else:
        note = "requires a Riemann-Poisson structure"
        checks.append(Check("foliate_predicates", "skip", detail=note))
        checks.append(Check("bundle_like", "skip", detail=note))
        checks.append(Check("leaf_connection_parallel", "skip", detail=note))
    return checks, ctx


def _rank_witness(pi, declared_rank):
    """A minor of the bivector matrix that is not identically zero."""
    n = pi.chart.dim
    for size in (declared_rank, 2, 1):
        if size < 1 or size > n:
            continue
        for rows in combinations(range(n), size):
            for cols in combinations(range(n), size):
                sub = [[pi.entry(i, j) for j in cols] for i in rows]
                det = FieldMatrix(pi.chart, sub).det()
                if not det.is_zero:
                    return det
    return None


def exit_code_from(checks):
    return 1 if any(c.status == "fail" for c in checks) else 0


def make_report(spec, checks, path, digest, started, extra=None):
    """The JSON report; ``checks`` None leaves the "checks" key out."""
    report = {
        "tool": "poisgeo",
        "version": __version__,
        "input": str(path),
        "input_sha256": digest,
        "spec_name": spec.name,
    }
    if checks is not None:
        report["checks"] = [c.as_dict() for c in checks]
    if extra:
        report.update(extra)
    report["timing_s"] = round(time.monotonic() - started, 6)
    return report


def _print_text_report(spec, checks, stream):
    print(f"spec: {spec.name}", file=stream)
    for c in checks or ():
        line = f"{c.name}: {c.status}"
        if c.status == "fail" and c.witness:
            line += f"  [witness {c.witness}"
            if c.witness_nonzero_at:
                line += f" != 0 at {c.witness_nonzero_at}"
            line += "]"
        if c.detail and c.status != "pass":
            line += f"  ({c.detail})"
        print(line, file=stream)


def _emit(args, spec, digest, started, checks, extra=None, lines=()):
    """The JSON report under --json; else the text report, then ``lines``."""
    if args.json:
        report = make_report(spec, checks, args.spec, digest, started, extra)
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _print_text_report(spec, checks, sys.stdout)
        for line in lines:
            print(line)


# Parsed specs kept: (kind, spec) by the sha256 of the file's bytes, least
# recently used first.  A generated 3-D spec with the caches its bivector
# fills during a check, its cotangent splitting and its connection holds
# 17-45 KB (tracemalloc, the first 16 check_generated specs of seed 8).
_SPECS_SIZE = 16
_specs = {}


def _load(path, samples_path, kind):
    """(spec, sha256) of a spec file of the given kind, samples overridden.

    The file is read and hashed on every call, so an edit is seen at once;
    it is parsed only when no earlier call in this process parsed the same
    bytes.  A spec comes back from ``_specs`` with the caches its bivector
    filled then and, for a manifold, the cotangent splitting and Levi-Civita
    connection a request kept, but every verdict is computed again by the
    caller.  A file that fails to load is never kept, so its error names the
    path given.  A ``--samples`` override is a new spec that builds its own
    splitting and shares the kept connection.
    """
    raw, digest = read_spec_bytes(path)
    kept = _specs.pop(digest, None)
    if kept is None:
        kept = parse_spec_bytes(raw, str(path))
        if len(_specs) >= _SPECS_SIZE:
            del _specs[next(iter(_specs))]
    _specs[digest] = kept
    found, spec = kept
    if found != kind:
        entry = "pi" if kind == "manifold" else "frame"
        raise SpecFileError(f"{path}: expected a {kind} spec (with a '{entry}' entry)")
    if samples_path:
        spec = spec.with_samples(load_samples_file(samples_path, spec.chart), samples_path)
    return spec, digest


def cmd_check(args):
    started = time.monotonic()
    spec, digest = _load(args.spec, args.samples, "manifold")
    checks, _ = run_check_pipeline(spec)
    _emit(args, spec, digest, started, checks)
    return exit_code_from(checks)


def _gamma_strings(spec, D):
    names = spec.chart.names
    return [
        {"along": f"d{a}", "of": f"d{b}", "value": repr(D.basis_derivative(i, j))}
        for i, a in enumerate(names)
        for j, b in enumerate(names)
    ]


def cmd_christoffel(args):
    started = time.monotonic()
    spec, digest = _load(args.spec, args.samples, "manifold")
    table = _gamma_strings(spec, spec.connection())
    lines = [f"D[{row['along']}][{row['of']}] = {row['value']}" for row in table]
    _emit(args, spec, digest, started, None, {"christoffel": table}, lines)
    return 0


def _foliation_details(spec, ctx):
    split = ctx.get("split")
    if split is None:
        return None
    omega = ctx.get("leafwise")
    dd = [f"dd_{name}" for name in spec.chart.names]
    details = {
        "rank": split.rank,
        "kernel_frame": [repr(k) for k in split.kernel_frame],
        "perp_frame": [repr(p) for p in split.perp_frame],
        "ts_frame": [t._display(dd) for t in split.ts_frame],
        "h_frame": [h._display(dd) for h in split.h_frame],
    }
    if omega is not None:
        details["leafwise_symplectic"] = {
            f"({i},{j})": str(omega.component((i, j)))
            for i, j in omega.comps
        }
    return details


def cmd_foliation(args):
    started = time.monotonic()
    spec, digest = _load(args.spec, args.samples, "manifold")
    checks, ctx = run_check_pipeline(spec)
    subset = [c for c in checks if c.name in _FOLIATION_CHECKS]
    details = _foliation_details(spec, ctx)
    lines = [f"{key}: {value}" for key, value in (details or {}).items()]
    _emit(args, spec, digest, started, subset, {"foliation": details}, lines)
    return exit_code_from(subset)


def cmd_construct(args):
    spec, _ = _load(args.spec, args.samples, "foliation")
    inp = spec.foliation_input()
    try:
        validate_input(inp)
    except PoisgeoError as exc:
        print(f"validation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    pi, cometric = build_structure(inp)
    manifold = ManifoldSpec(
        f"{spec.name}-constructed", spec.chart, pi, cometric, inp.rank, spec.samples
    )
    print(json.dumps(manifold.to_dict(), sort_keys=True, indent=2))
    if args.verify:
        checks, _ = run_check_pipeline(manifold)
        _print_text_report(manifold, checks, sys.stderr)
        return exit_code_from(checks)
    return 0


def cmd_cohomology(args):
    started = time.monotonic()
    spec, digest = _load(args.spec, args.samples, "manifold")
    dim = spec.chart.dim
    if not 0 <= args.p <= dim:
        raise InvalidArgument(f"--p {args.p} outside 0..{dim} for a {dim}-dimensional chart")
    if args.degree < 0:
        raise InvalidArgument(f"--degree {args.degree} must be >= 0")
    if not spec.pi.is_polynomial():
        raise NonPolynomialBivector(
            f"{args.spec}: cohomology windows need polynomial bivector entries"
        )
    result = truncated_betti(spec.pi, args.p, args.degree)
    extra = {"betti": result}
    lines = [
        f"b{args.p}(window d={args.degree}) = {result['betti']}  "
        f"[kernel {result['kernel_dim']}, image {result['image_rank']}, "
        f"preimage degree {result['preimage_degree']}]"
    ]
    if args.thm31:
        try:
            rep = thm31_cochain_report(spec.splitting(), args.p, args.degree)
        except _INPUT_ERRORS:
            raise
        except PoisgeoError as exc:
            if not args.json:
                raise
            # a splitting that fails is a verdict (exit 1), so the report still prints
            rep = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            lines.append(
                "degree-splitting report: "
                f"basic_forms_closed={rep['basic_forms_closed']} "
                f"pushforwards_closed={rep['pushforwards_closed']} "
                f"dimension_match={rep['dimension_match']}"
            )
        extra["thm31"] = rep
    _emit(args, spec, digest, started, None, extra, lines)
    if args.thm31:
        if "error" in rep:
            print(rep["error"], file=sys.stderr)
            return 1
        verdicts = (
            rep["basic_forms_closed"],
            rep["pushforwards_closed"],
            rep["dimension_match"] is not False,
        )
        if not all(verdicts):
            return 1
    return 0


def cmd_report(args):
    started = time.monotonic()
    spec, digest = _load(args.spec, args.samples, "manifold")
    checks, ctx = run_check_pipeline(spec)
    extra = {"foliation": _foliation_details(spec, ctx)}
    if ctx.get("connection") is not None:
        extra["christoffel"] = _gamma_strings(spec, ctx["connection"])
    report = make_report(spec, checks, args.spec, digest, started, extra=extra)
    print(json.dumps(report, sort_keys=True, indent=2))
    return exit_code_from(checks)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="poisgeo",
        description="Exact symbolic checks for Poisson bivectors with cotangent metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("spec", help="path to a JSON spec file")
        p.add_argument("--samples", help="path to a JSON sample-point override")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("check", help="run the full identity pipeline")
    add_common(p)

    p = sub.add_parser("christoffel", help="print the contravariant Christoffel table")
    add_common(p)

    p = sub.add_parser("foliation", help="frames, leafwise form, invariance checks")
    add_common(p)

    p = sub.add_parser("construct", help="build (pi, cometric) from a foliation spec")
    p.add_argument("spec", help="path to a foliation JSON spec")
    p.add_argument("--samples", help="path to a JSON sample-point override")
    p.add_argument("--verify", action="store_true", help="re-check the constructed output")

    p = sub.add_parser("cohomology", help="truncated Betti numbers")
    add_common(p)
    p.add_argument("--p", type=int, required=True, help="multivector degree")
    p.add_argument("--degree", type=int, required=True, help="coefficient degree window")
    p.add_argument("--thm31", action="store_true", help="also run the splitting report")

    p = sub.add_parser("report", help="full JSON report")
    p.add_argument("spec", help="path to a JSON spec file")
    p.add_argument("--samples", help="path to a JSON sample-point override")
    p.add_argument(
        "--json", action="store_true", help="accepted for symmetry; report is always JSON"
    )
    return parser


# bad input: exit 2 with one line and no report
_INPUT_ERRORS = (
    SpecFileError,
    ExprSyntaxError,
    NonPolynomialBivector,
    InvalidArgument,
    SingularMetric,
    WindowTooLarge,
)

_parser = None


def main(argv=None):
    """Run one command line; the parser is built on the first call and reused."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # read from the module on every call rather than stored in the parser, so
    # a later rebinding of a cmd_* function is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except PoisgeoError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
