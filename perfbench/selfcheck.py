"""Check the benchmark harness itself, in a few seconds.

    python3 perfbench/selfcheck.py

It checks that BENCHMARK.json names its metrics, workloads and units in
the allowed alphabet, that the harness emits exactly the named metrics,
that self times, layer totals and reference-speed times come out right
on hand-made spans and probes, that a wrong expected digest and an exception each count as a
failed operation, and that a run without lralg's sources fails without
printing a result.  Exits 1 if any check fails.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_times, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-12


def check_spec(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        bad_units = [m["unit"] for m in spec[group] if not UNIT.fullmatch(m["unit"])]
        check(not bad_units, f"{group} units use the allowed characters {bad_units}")
    bad = [n for n in names if not NAME.fullmatch(n)]
    check(not bad, f"names use letters, digits, '_', '.', '-' only {bad}")
    check(len(names) == len(set(names)), "every name is used once")
    check(set(names[: len(spec["workloads"])]) == set(workloads.WORKLOADS), "workloads match")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values()), "bounds lie in (0, 0.25]")
    check(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")


def check_emitted(spec: dict) -> None:
    it = workloads.Iteration(traced=True)
    values = metrics.per_layer([it], [workloads.Iteration(traced=False)])
    try:
        run.emit(spec["per_layer"], values)
        check(True, f"all {len(values)} per-layer metrics are emitted")
    except RuntimeError as exc:
        check(False, str(exc))
    try:
        run.emit(spec["end_to_end"], metrics.end_to_end([it], 1.0))
        check(True, "all end-to-end metrics are emitted")
    except RuntimeError as exc:
        check(False, str(exc))
    try:
        run.emit(spec["end_to_end"], {**metrics.end_to_end([it], 1.0), "stray": 0})
        check(False, "an unnamed metric is refused")
    except RuntimeError:
        check(True, "an unnamed metric is refused")


def check_self_times() -> None:
    # op [0, 10] holds lr [1, 4] and lr [5, 9].  The first lr span holds
    # another lr span [2, 3] and a poly span [3, 3.5]; the second holds
    # constraints [6, 8], which holds poly [7, 8].
    spans = [
        Span(0, None, 0, "op.x", 0.0, 10.0),
        Span(1, 0, 0, "lr.a", 1.0, 4.0),
        Span(2, 1, 0, "lr.b", 2.0, 3.0),
        Span(3, 1, 0, "poly.c", 3.0, 3.5),
        Span(4, 0, 0, "lr.d", 5.0, 9.0),
        Span(5, 4, 0, "constraints.e", 6.0, 8.0),
        Span(6, 5, 0, "poly.f", 7.0, 8.0),
    ]
    own = self_times(spans)
    want = {0: 3.0, 1: 1.5, 2: 1.0, 3: 0.5, 4: 2.0, 5: 1.0, 6: 1.0}
    check(all(close(own[k], v) for k, v in want.items()), f"self times {own}")
    layers = layer_times(spans)
    want_layers = {
        "op": (10.0, 3.0),
        "lr": (7.0, 4.5),  # lr.b sits inside lr.a, so it adds to self only
        "poly": (1.5, 1.5),
        "constraints": (2.0, 1.0),
    }
    check(
        all(close(layers[k][0], t) and close(layers[k][1], s) for k, (t, s) in want_layers.items()),
        f"layer totals and self times {layers}",
    )
    check(
        close(sum(s for _, s in layers.values()), spans[0].duration),
        "self times add up to the root span",
    )
    # Overlapping children are covered once, and a child is clipped to its parent.
    spans = [
        Span(0, None, 0, "op.y", 0.0, 10.0),
        Span(1, 0, 0, "lr.a", 1.0, 4.0),
        Span(2, 0, 0, "lr.b", 3.0, 6.0),
        Span(3, 0, 0, "lr.c", 9.0, 12.0),
    ]
    check(close(self_times(spans)[0], 4.0), "overlapping children are counted once")

    tr = Tracer(True)
    with tr.operation("z"):
        with tr.span("constraints.f"):
            tr.record("poly.g", 1.0, 2.0)
    with tr.operation("w"):
        tr.call("lr.h", lambda: None)
    got = [(s.name, s.parent, s.op) for s in tr.spans]
    want_tree = [
        ("op.z", None, 0),
        ("constraints.f", 0, 0),
        ("poly.g", 1, 0),
        ("op.w", None, 1),
        ("lr.h", 3, 1),
    ]
    check(got == want_tree, f"spans link to parent and operation {got}")
    check(Tracer(False).span("lr.x") is Tracer(False).span("lr.y"), "untraced spans are no-ops")


def check_reference_clock() -> None:
    # Probes of 1 s, then three of 2 s: the machine ran at half speed from
    # the second probe on.  With NOMINAL = 1 s, each 2 s stretch counts at
    # the median speed of the probes around it.
    nominal = refclock.NOMINAL
    refclock.NOMINAL = 1.0
    try:
        clock = refclock.Sampler()
        clock.probes = [(0.0, 1.0), (3.0, 5.0), (7.0, 9.0), (11.0, 13.0)]
        clock._build()
    finally:
        refclock.NOMINAL = nominal
    # stretch [1, 3] counts at 1/median(1, 2, 2) = 1/2, the others at 1/2
    want = {1.0: 0.0, 2.0: 0.5, 3.0: 1.0, 4.0: 1.0, 5.0: 1.0, 6.0: 1.5, 12.0: 3.0}
    got = {t: clock.to_ref(t) for t in want}
    check(all(close(got[t], v) for t, v in want.items()), f"reference clock readings {got}")
    check(close(clock.ref_seconds(2.0, 12.0), 2.5), "probe time is left out of reference time")

    clock = refclock.Sampler()
    with clock:
        pass
    check(len(clock.probes) == 2 and close(clock.ref_seconds(*clock.probes[0]), 0.0),
          "a sampler that ran briefly still maps its own span")


def check_failures_counted() -> None:
    systems = [s for s in workloads.groebner_setup(0, HERE) if s[0] == "r2_red"]
    it = workloads.Iteration(traced=False)
    workloads.groebner_iterate(systems, it)
    check(it.attempted == 1 and not it.failures, "r2_red certifies with the pinned digest")

    pinned = workloads.BASIS_SHA256["r2_red"]
    workloads.BASIS_SHA256["r2_red"] = "0" * 64
    try:
        it = workloads.Iteration(traced=False)
        workloads.groebner_iterate(systems, it)
    finally:
        workloads.BASIS_SHA256["r2_red"] = pinned
    check(
        len(it.failures) == 1 and "basis sha256" in it.failures[0][1],
        "a wrong expected digest counts as a failed operation",
    )

    it = workloads.Iteration(traced=True)
    workloads.groebner_iterate([("r2_red", 2, None)], it)
    check(
        it.attempted == 1 and len(it.failures) == 1 and not it.tracer._stack,
        "an exception counts as a failed operation and closes its spans",
    )


def check_bare_directory() -> None:
    bare = os.path.join(HERE, "out", f"selfcheck-{os.getpid()}")
    os.makedirs(os.path.join(bare, "perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(HERE):
            if name.endswith(".py"):
                shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "g13_reduce",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    check(
        done.returncode != 0 and '"correct"' not in done.stdout,
        f"without lralg's sources the run exits {done.returncode} and prints no result",
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    check_emitted(spec)
    check_self_times()
    check_reference_clock()
    check_failures_counted()
    check_bare_directory()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
