"""The four workloads and the outputs each must produce.

Every workload has a set-up, which builds its inputs from the seed and
is not timed, and an iteration, which runs its operations through an
``Iteration`` ledger.  An operation calls lralg's public functions in
the order the command line does (``cli._cmd_constraints`` then
``cli._cmd_solve`` for the system pipelines), each call inside a span
named after the module it enters.  Its result is checked after the
clock stops; a wrong result, an exception or an exhausted budget counts
the operation as failed.

Only ``verify_sweep`` draws its inputs from the seed.  The other three
run fixed inputs, and their output records that the seed has no effect.
"""

import hashlib
import os
import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

from lralg import (
    FiliformSpec,
    buchberger_certify,
    catalog_entry,
    catalog_get,
    catalog_list,
    catalog_verify,
    counterexample_g13,
    filiform_lr,
    format_algebra,
    format_system,
    free3_dimension,
    free3_lr,
    generate_lr_system,
    invertible_generator_lift,
    lemma_suite,
    lie_n3,
    lie_n3_plus_line,
    lie_n4,
    lie_r2,
    lower_central_series,
    parse_algebra_text,
    parse_system_file,
    random_abelian_extension,
    structural_reduce,
    upper_central_series,
    verify_axioms,
)
from lralg.catalog import sample_params

from tracing import Tracer

# The command line's solve defaults.
SOLVE_BUDGET = {"max_basis_size": 2000, "max_degree": None, "time_budget": 600.0}

# sha256 of the files and bases the workloads must reproduce.  Each
# digest covers the exact bytes `lralg constraints` writes (header and
# body) or, for a Groebner basis, `format_system` of the reduced basis.
G13_REDUCED_SHA256 = "106c6f34918e42703cb62dbcabe2f4977c09216ea47b9984c2ef28a513f98316"
G13_RAW_SHA256 = "37e95d28d3e32b1a8e02cd890308a341fb2b1c064ba1fcc9556ea8ea213dd81b"
BASIS_SHA256 = {
    "r2_raw": "70102b382ce347b41cb508db39303e793008ca7cdcc88e24fafff167463c5dcb",
    "r2_red": "f1a032677b9dfeebd9ec5179715d7d16c6490f2595156bef2a25a6bf9c1f225b",
    "n3_raw": "27266d69bd9c62b5d6304ee440a4c42633dce88ed2b35de318f6a370547b6f7b",
    "n3_red": "7ad0cac803c8770dfca222fc15f4edacbb58af6f9c6d9adf4675a449448c17c2",
    "n4_raw": "bcb113ed263fc2c968b3255f2ab22e41bab3f7c63cf1679fae2fb958df535840",
    "n4_red": "52ac74bfb2c2d70c4e8cb074532aceba1611f0cae032434888199a095756ad22",
    "n3r_red": "957ca5cb8f0f831e71fe4d272efed88e6f81ca4d2477cd1c9fbbd07f98dce280",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Iteration:
    """Ledger of one pass over a workload: operation times, failures,
    counts and, when tracing is on, spans."""

    def __init__(self, traced: bool):
        self.tracer = Tracer(traced)
        self.intervals: list[tuple[float, float]] = []  # perf_counter per operation
        self.wall = 0.0
        self.cpu = 0.0
        self.ref = 0.0  # wall time at the reference speed, set by rescale
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.counts: dict[str, float] = {}

    def rescale(self, clock) -> None:
        """Convert the operation and span times to reference seconds with
        the refclock.Sampler that ran during the pass."""
        self.ref = sum(clock.ref_seconds(a, b) for a, b in self.intervals)
        for s in self.tracer.spans:
            s.start, s.end = clock.to_ref(s.start), clock.to_ref(s.end)

    def op(self, name: str, fn, check):
        """Time ``fn(tracer)`` as one operation, then check its result
        untimed; ``check`` returns a list of problems.  Returns the result,
        or None when the operation failed."""
        self.attempted += 1
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with self.tracer.operation(name):
                result = fn(self.tracer)
        except Exception:
            self.failures.append((name, traceback.format_exc()))
            return None
        finally:
            w1 = time.perf_counter()
            self.intervals.append((w0, w1))
            self.wall += w1 - w0
            self.cpu += time.process_time() - c0
        problems = check(result)
        if problems:
            self.failures.append((name, "; ".join(problems)))
            return None
        return result

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)


def expect(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def certify(tr: Tracer, polys):
    """buchberger_certify under a constraints span.  The engine's own
    elapsed time becomes a poly child span ending when the call returns,
    which is the only view into poly until the library traces itself."""
    with tr.span("constraints.buchberger_certify"):
        cert = buchberger_certify(polys, **SOLVE_BUDGET)
        end = time.perf_counter()
        tr.record("poly.groebner_basis", end - cert.groebner.stats["elapsed"], end)
    return cert


def count_groebner(it: Iteration, cert) -> None:
    stats = cert.groebner.stats
    it.add("poly.pairs", stats["pairs_processed"])
    it.add("poly.zero_reductions", stats["zero_reductions"])
    it.add("poly.basis_size", len(cert.groebner.basis))
    it.maximum("poly.max_degree", stats["max_degree_seen"])


def system_file_text(tr: Tracer, name: str, system, red=None) -> str:
    """The text `lralg constraints` writes, with or without --reduce."""
    header = [
        f"# product constraints for {name}",
        f"# {system.nvars} variables, {len(system.polys)} generated constraints",
    ]
    if red is not None:
        header.append(
            "# reduced: {} variables eliminated, {} residual constraints".format(
                red.eliminated_count, len(red.residual)
            )
        )
        if red.contradiction:
            header.append("# linear layer is contradictory")
    polys = system.polys if red is None else red.residual
    with tr.span("fileformat.format_system"):
        return "\n".join(header) + "\n" + format_system(system.g.dim, polys)


def write_text(tr: Tracer, path: str, text: str) -> None:
    with tr.span("io.write"):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


@dataclass
class Workload:
    name: str
    seeded: bool
    setup: object  # (seed, workdir) -> inputs
    iterate: object  # (inputs, Iteration) -> None


# -- g13_reduce ------------------------------------------------------------


@dataclass
class G13Inputs:
    g: object
    path: str


def g13_setup(seed: int, workdir: str) -> G13Inputs:
    return G13Inputs(counterexample_g13(), os.path.join(workdir, "g13_reduced.sys"))


def g13_iterate(inp: G13Inputs, it: Iteration) -> None:
    def pipeline(tr):
        alg = tr.call("fileformat.format_algebra", format_algebra, "g13", inp.g)
        parsed = tr.call("fileformat.parse_algebra_text", parse_algebra_text, alg)
        g = tr.call("fileformat.parse_algebra_text.to_lie", parsed.to_lie)
        system = tr.call("constraints.generate_lr_system", generate_lr_system, g)
        red = tr.call("constraints.structural_reduce", structural_reduce, system)
        text = system_file_text(tr, parsed.name, system, red)
        write_text(tr, inp.path, text)
        sf = tr.call("fileformat.parse_system_file", parse_system_file, inp.path)
        return g, system, red, sf, certify(tr, sf.polys)

    def check(out):
        g, system, red, sf, cert = out
        problems: list[str] = []
        expect(problems, "algebra round trip", g == inp.g, True)
        expect(problems, "variables", system.nvars, 2197)
        expect(problems, "polynomials", len(system.polys), 27378)
        expect(problems, "added rows", red.stats["added_rows"], 30721)
        expect(problems, "eliminated", red.eliminated_count, 2139)
        expect(problems, "rounds", red.stats["rounds"], 2)
        expect(problems, "contradiction", red.contradiction, True)
        with open(inp.path, "rb") as fh:
            expect(problems, "reduced file sha256", sha256(fh.read()), G13_REDUCED_SHA256)
        expect(problems, "parsed polynomials", sf.polys, red.residual)
        expect(problems, "status", cert.status, "inconsistent")
        return problems

    out = it.op("g13_reduce", pipeline, check)
    if out is not None:
        _, system, red, _, cert = out
        it.add("constraints.polys", len(system.polys))
        it.add("constraints.variables", system.nvars)
        it.add("constraints.added_rows", red.stats["added_rows"])
        it.add("constraints.eliminated", red.eliminated_count)
        it.add("constraints.rounds", red.stats["rounds"])
        it.add("constraints.residual", len(red.residual))
        it.add("fileformat.system_bytes", os.path.getsize(inp.path))
        count_groebner(it, cert)


# -- groebner_certify --------------------------------------------------------

# n3+line's raw system is left out: it alone takes about 26 s per pass,
# more than a run of the whole benchmark can afford; n4_raw and n3_raw
# keep raw inputs covered.
GROEBNER_ALGEBRAS = (
    ("r2", lie_r2, True),
    ("n3", lie_n3, True),
    ("n4", lie_n4, True),
    ("n3r", lie_n3_plus_line, False),
)


def groebner_setup(seed: int, workdir: str) -> list[tuple[str, int, list]]:
    systems = []
    for label, build, with_raw in GROEBNER_ALGEBRAS:
        g = build()
        system = generate_lr_system(g)
        if with_raw:
            systems.append((f"{label}_raw", g.dim, system.polys))
        systems.append((f"{label}_red", g.dim, structural_reduce(system).residual))
    return systems


def groebner_iterate(systems, it: Iteration) -> None:
    for label, dim, polys in systems:

        def check(cert, label=label, dim=dim):
            problems: list[str] = []
            expect(problems, "status", cert.status, "solutions_may_exist")
            basis = format_system(dim, cert.groebner.basis).encode()
            expect(problems, "basis sha256", sha256(basis), BASIS_SHA256[label])
            return problems

        cert = it.op(f"certify.{label}", lambda tr, p=polys: certify(tr, p), check)
        if cert is not None:
            count_groebner(it, cert)


# -- verify_sweep --------------------------------------------------------------

FILIFORM_DIMS = range(4, 10)
FILIFORM_PER_DIM = 10
LIFTS = 50


@dataclass
class SweepInputs:
    instances: list = field(default_factory=list)  # (key, params)
    filiform_rows: list = field(default_factory=list)  # (n, free row)
    extensions: list = field(default_factory=list)  # (datum, generator)


def sweep_setup(seed: int, workdir: str) -> SweepInputs:
    rng = random.Random(seed)
    inp = SweepInputs()
    for key in catalog_list():
        for params in sample_params(catalog_entry(key)):
            inp.instances.append((key, params))
    for n in FILIFORM_DIMS:
        for _ in range(FILIFORM_PER_DIM):
            row = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n - 4)]
            inp.filiform_rows.append((n, row))
    # Sizes cycle through every (kernel, base) pair from 1x1 to 4x4 so the
    # seed changes the entries and not how much work a run does.
    for i in range(LIFTS):
        inp.extensions.append(random_abelian_extension(rng, 1 + i % 4, 1 + (i // 4) % 4))
    return inp


def sweep_iterate(inp: SweepInputs, it: Iteration) -> None:
    def reports_ok(*reports):
        return [f"{name} has {len(r.violations)} violation(s)" for name, r in reports if not r.ok]

    def count_checks(*reports):
        for r in reports:
            it.add("lr.identity_checks", sum(r.counts.values()))

    def check_catalog(results):
        problems = [f"{k} failed" for k, r in results.items() if not r["ok"]]
        expect(problems, "instances", sum(r["instances"] for r in results.values()), 86)
        return problems

    results = it.op(
        "catalog.verify",
        lambda tr: tr.call("catalog.catalog_verify", catalog_verify),
        check_catalog,
    )
    if results is not None:
        it.add("catalog.instances", sum(r["instances"] for r in results.values()))

    for key, params in inp.instances:

        def lemmas(tr, key=key, params=params):
            a = tr.call("catalog.catalog_get", catalog_get, key, params)
            return tr.call("lr.lemma_suite", lemma_suite, a)

        rep = it.op(f"lemmas.{key}", lemmas, lambda r: reports_ok(("lemma_suite", r)))
        if rep is not None:
            count_checks(rep)

    for n in (3, 4):

        def free3(tr, n=n):
            a = tr.call("constructions.free3_lr", free3_lr, n)
            v = tr.call("lr.verify_axioms", verify_axioms, a)
            return a, v, tr.call("lr.lemma_suite", lemma_suite, a)

        def check_free3(out, n=n):
            a, v, lem = out
            problems = reports_ok(("verify_axioms", v), ("lemma_suite", lem))
            expect(problems, "dim", a.dim, free3_dimension(n))
            return problems

        out = it.op(f"free3.{n}", free3, check_free3)
        if out is not None:
            count_checks(out[1], out[2])

    for k, (n, row) in enumerate(inp.filiform_rows):

        def filiform(tr, n=n, row=row):
            with tr.span("constructions.filiform_lr"):
                a = filiform_lr(FiliformSpec.from_free_row(n, row))
            v = tr.call("lr.verify_axioms", verify_axioms, a)
            lower = tr.call("lie.lower_central_series", lower_central_series, a.g)
            upper = tr.call("lie.upper_central_series", upper_central_series, a.g)
            return v, lower, upper

        def check_filiform(out, n=n):
            v, lower, upper = out
            problems = reports_ok(("verify_axioms", v))
            expect(problems, "lower central dims", lower.dims(), (n, *range(n - 2, -1, -1)))
            expect(problems, "upper central dims", upper.dims(), (*range(1, n - 1), n))
            return problems

        out = it.op(f"filiform.{n}.{k}", filiform, check_filiform)
        if out is not None:
            count_checks(out[0])

    for k, (d, e) in enumerate(inp.extensions):

        def check_lift(a, d=d):
            problems = reports_ok(("verify_axioms", verify_axioms(a)))
            expect(problems, "dim", a.dim, d.a_dim + d.b.dim)
            return problems

        it.op(
            f"lift.{k}",
            lambda tr, d=d, e=e: tr.call(
                "extensions.invertible_generator_lift", invertible_generator_lift, d, e
            ),
            check_lift,
        )


# -- raw_system_io -------------------------------------------------------------


@dataclass
class RawInputs:
    system: object
    path: str


def raw_setup(seed: int, workdir: str) -> RawInputs:
    system = generate_lr_system(counterexample_g13())
    return RawInputs(system, os.path.join(workdir, "g13_raw.sys"))


def raw_iterate(inp: RawInputs, it: Iteration) -> None:
    def write(tr):
        write_text(tr, inp.path, system_file_text(tr, "g13", inp.system))
        return inp.path

    def check_file(path):
        with open(path, "rb") as fh:
            digest = sha256(fh.read())
        problems: list[str] = []
        expect(problems, "raw file sha256", digest, G13_RAW_SHA256)
        return problems

    def check_parsed(sf):
        problems: list[str] = []
        expect(problems, "dim", sf.dim, 13)
        expect(problems, "polynomial count", len(sf.polys), len(inp.system.polys))
        if sf.polys != inp.system.polys:
            problems.append("parsed polynomials differ from the generated ones")
        return problems

    if it.op("write", write, check_file) is not None:
        it.add("fileformat.system_bytes", os.path.getsize(inp.path))
    it.op(
        "read",
        lambda tr: tr.call("fileformat.parse_system_file", parse_system_file, inp.path),
        check_parsed,
    )
    it.add("constraints.polys", len(inp.system.polys))
    it.add("constraints.variables", inp.system.nvars)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("g13_reduce", False, g13_setup, g13_iterate),
        Workload("groebner_certify", False, groebner_setup, groebner_iterate),
        Workload("verify_sweep", True, sweep_setup, sweep_iterate),
        Workload("raw_system_io", False, raw_setup, raw_iterate),
    )
}
