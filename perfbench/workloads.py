"""The three closed-loop workloads.

Each workload is driven by one single-threaded client that sends its next
op only after the previous one returned.  Constructing a workload writes
its inputs (part of the measured set-up); ``batches`` yields the ops in the
order they are sent; ``payload`` reduces an op's output, and the op's
``verify`` judges that payload against the oracles after the timed loop.
An op is one CLI invocation, one spec check or one cohomology window.
"""

import contextlib
import io
import json
import os
import random
import re
from importlib import resources

from . import specgen

# ``oracles`` imports sympy, so the verify methods import it lazily: that
# happens after the timed loop and after peak RSS has been read.

MANIFOLDS = (
    "nonpoisson_jacobi", "r2_flat", "r3_flat", "r3_flat_zmetric",
    "r3_quadratic_nonparallel", "so3_star",
)
FOLIATIONS = ("foliation_flat_zmetric", "foliation_invariance_fails")
_TIMING = re.compile(r'"timing_s": [-0-9.e]+')
_TIMING_ZERO = '"timing_s": 0'
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_betti.json")


def load_expected():
    """Betti numbers from the sympy oracle; make_expected.py writes them."""
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


class Op:
    """One request: ``run()`` returns its output, ``verify(payload)`` judges it.

    The client reduces each output to a small hashable payload right after
    the op (outside its timing), so the harness's own memory does not grow
    with the number of ops and peak RSS stays the program's.
    """

    __slots__ = ("key", "run", "verify")

    def __init__(self, key, run, verify):
        self.key = key
        self.run = run
        self.verify = verify


def run_cli(argv):
    """``poisgeo.cli.main`` in-process with stdout and stderr captured."""
    from poisgeo.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def corpus_path(name):
    return str(resources.files("poisgeo") / "corpus" / f"{name}.json")


def _shuffled(items, seed, label):
    items = list(items)
    random.Random(f"{seed}:{label}").shuffle(items)
    return items


# -- cli_corpus ----------------------------------------------------------------


class CliCorpus:
    """Repeated passes of every documented subcommand over the bundled corpus."""

    name = "cli_corpus"
    min_ops = 100

    def __init__(self, seed, workdir):
        self.seed = seed
        self.betti = load_expected()["corpus_cohomology_p1_d2"]
        self._payloads = {}
        self.ops = []
        for spec in MANIFOLDS:
            path = corpus_path(spec)
            for command in ("check", "report", "foliation", "christoffel"):
                self.ops.append(self._json_op(command, spec, path))
            self.ops.append(Op(
                f"cohomology:{spec}",
                lambda path=path: run_cli(["cohomology", path, "--p", "1", "--degree", "2"]),
                lambda out, spec=spec: self._verify_cohomology(spec, out),
            ))
        for spec in FOLIATIONS:
            path = corpus_path(spec)
            self.ops.append(Op(
                f"construct:{spec}",
                lambda path=path: run_cli(["construct", path, "--verify"]),
                lambda out, spec=spec: self._verify_construct(spec, out),
            ))

    def _json_op(self, command, spec, path):
        return Op(
            f"{command}:{spec}",
            lambda: run_cli([command, path, "--json"]),
            lambda out: self._verify_json(command, spec, out),
        )

    def warmup(self):
        run_cli(["check", corpus_path("r3_flat"), "--json"])

    def batches(self):
        k = 0
        while True:
            yield _shuffled(self.ops, self.seed, f"pass{k}")
            k += 1

    def payload(self, out):
        """Outputs repeat every pass except ``timing_s``; keep one copy each."""
        rc, stdout, stderr = out
        p = (rc, _TIMING.sub(_TIMING_ZERO, stdout), stderr)
        return self._payloads.setdefault(p, p)

    def _verify_json(self, command, spec, out):
        from . import oracles

        rc, stdout, _ = out
        report = json.loads(stdout)
        coords = ["x", "y"] if spec == "r2_flat" else ["x", "y", "z"]
        if command == "christoffel":
            if rc != 0 or len(report["christoffel"]) != len(coords) ** 2:
                raise oracles.OracleFailure(f"christoffel {spec}: exit {rc}")
            return
        subset = oracles.FOLIATION_CHECKS if command == "foliation" else None
        oracles.check_report(report, rc, coords, oracles.CORPUS_FAILS[spec], subset)

    def _verify_cohomology(self, spec, out):
        from . import oracles

        rc, stdout, _ = out
        if rc != 0:
            raise oracles.OracleFailure(f"cohomology {spec}: exit {rc}")
        p, d, b = oracles.parse_betti_text(stdout)
        if (p, d, b) != (1, 2, self.betti[spec]):
            raise oracles.OracleFailure(f"cohomology {spec}: b{p}(d={d}) = {b}")

    def _verify_construct(self, spec, out):
        from . import oracles

        rc, _, stderr = out
        want_rc, fragment = oracles.CONSTRUCT_EXPECT[spec]
        if rc != want_rc or fragment not in stderr:
            raise oracles.OracleFailure(f"construct {spec}: exit {rc}: {stderr[:200]!r}")
        if rc == 0 and ": fail" in stderr:
            raise oracles.OracleFailure(f"construct {spec}: a verdict fails: {stderr[:200]!r}")


# -- check_generated -----------------------------------------------------------


class CheckGenerated:
    """``check --json`` on distinct seeded specs; no spec is sent twice."""

    name = "check_generated"
    min_ops = 100
    # Structures cycle in a fixed order, so block k holds the same
    # structures for every seed.
    batch = 24

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.first = self._write_batch(0)

    def _write_batch(self, k):
        ops = []
        for index in range(k * self.batch, (k + 1) * self.batch):
            spec, perturbed = specgen.generated_spec(self.seed, index)
            path = os.path.join(self.workdir, f"gen-{index}.json")
            with open(path, "wb") as fh:
                fh.write(specgen.spec_bytes(spec))
            ops.append(Op(
                f"check:gen-{index}",
                lambda path=path: run_cli(["check", path, "--json"]),
                lambda out, index=index: self._verify(index, out),
            ))
        return ops

    def warmup(self):
        run_cli(["check", corpus_path("r3_flat_zmetric"), "--json"])

    def batches(self):
        """The first batch is written in set-up, later ones between batches."""
        yield self.first
        k = 1
        while True:
            yield self._write_batch(k)
            k += 1

    @staticmethod
    def payload(out):
        """The exit code, stderr, and the checks of the report without details."""
        rc, stdout, stderr = out
        checks = None
        if stdout:
            checks = json.dumps([
                {k: c[k] for k in ("name", "status", "witness", "witness_nonzero_at")}
                for c in json.loads(stdout)["checks"]
            ])
        return rc, checks, stderr

    def _verify(self, index, out):
        """Judges one payload; the spec is generated again, not kept in memory."""
        from . import oracles

        spec, perturbed = specgen.generated_spec(self.seed, index)
        rc, checks, stderr = out
        if rc not in (0, 1) or not checks:
            raise oracles.OracleFailure(f"{spec['name']}: exit {rc}: {stderr[:200]!r}")
        report = {"checks": json.loads(checks)}
        fails = oracles.check_report(report, rc, spec["coordinates"])
        status = {c["name"]: c["status"] for c in report["checks"]}
        if status["cometric_positive_definite"] != "pass":
            raise oracles.OracleFailure(f"{spec['name']}: cometric rejected")
        if perturbed:
            if not oracles.jacobiator_nonzero(spec):
                raise oracles.OracleFailure(f"{spec['name']}: perturbation kept Jacobi")
            if "poisson_jacobi" not in fails:
                raise oracles.OracleFailure(f"{spec['name']}: non-Poisson pi passed Jacobi")
        elif status["poisson_jacobi"] != "pass":
            raise oracles.OracleFailure(f"{spec['name']}: Poisson pi failed Jacobi")


# -- betti_windows -------------------------------------------------------------

# (spec, p, d, kind): kind is "betti", "reps" (with representatives) or
# "dpi2" (the dense d_pi o d_pi product must vanish).
BETTI_WINDOWS = (
    [("so3_star", 1, 6, "betti")]
    + [(s, p, d, "betti") for s in ("so3_star", "r3_quadratic_nonparallel", "r3_flat")
       for d in (2, 4) for p in range(4)]
    + [("r3_flat", 1, 3, "betti"), ("so3_plus_line", 1, 3, "betti")]
    + [("so3_plus_line", p, 2, "betti") for p in range(5)]
    + [("r3_quadratic_nonparallel", 1, 3, "reps"), ("r3_quadratic_nonparallel", 1, 2, "dpi2")]
)


class BettiWindows:
    """Fixed truncated-cohomology windows, in a seeded order each pass."""

    name = "betti_windows"
    min_ops = 100

    def __init__(self, seed, workdir):
        from poisgeo import load_spec_file

        self.seed = seed
        self.expected = load_expected()["windows"]
        path = os.path.join(workdir, "so3_plus_line.json")
        with open(path, "wb") as fh:
            fh.write(specgen.spec_bytes(specgen.so3_plus_line_spec()))
        pis = {"so3_plus_line": load_spec_file(path)[1].pi}
        for name in {w[0] for w in BETTI_WINDOWS} - set(pis):
            pis[name] = load_spec_file(corpus_path(name))[1].pi
        self.ops = [self._op(pis[s], s, p, d, kind) for s, p, d, kind in BETTI_WINDOWS]
        self.warm_pi = pis["r3_flat"]

    def _op(self, pi, spec, p, d, kind):
        import poisgeo

        # looked up at call time, so a traced run calls the wrapped function
        if kind == "dpi2":
            run = lambda: poisgeo.dpi_squared_matrix(pi, p, d).is_zero()  # noqa: E731
        else:
            run = lambda: poisgeo.truncated_betti(pi, p, d, with_representatives=kind == "reps")  # noqa: E731
        return Op(f"{kind}:{spec}:p{p}:d{d}", run,
                  lambda out: self._verify(spec, p, d, kind, out))

    def warmup(self):
        from poisgeo import truncated_betti

        truncated_betti(self.warm_pi, 1, 1)

    def batches(self):
        k = 0
        while True:
            yield _shuffled(self.ops, self.seed, f"pass{k}")
            k += 1

    @staticmethod
    def payload(out):
        """(betti, number of representatives) of a window, or d_pi^2 == 0."""
        if isinstance(out, bool):
            return out
        return out["betti"], len(out.get("representatives", ()))

    def _verify(self, spec, p, d, kind, out):
        from . import oracles

        if kind == "dpi2":
            if out is not True:
                raise oracles.OracleFailure(f"d_pi^2 != 0 on Poisson {spec} (p={p}, d={d})")
            return
        want = self.expected[f"{spec}:{p}:{d}"]
        if spec == "so3_star" and want != oracles.so3_betti(p, d):
            raise oracles.OracleFailure(f"expected table disagrees with the so3 closed form at p={p} d={d}")
        betti, reps = out
        if betti != want:
            raise oracles.OracleFailure(f"{spec} b{p}(d={d}) = {betti}, expected {want}")
        if kind == "reps" and reps != want:
            raise oracles.OracleFailure(f"{spec} p={p} d={d}: {reps} representatives")


WORKLOADS = {w.name: w for w in (CliCorpus, CheckGenerated, BettiWindows)}
