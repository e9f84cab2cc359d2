"""Run one lralg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload g13_reduce --seed 1 --seconds 15 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

    g13_reduce        algebra text round trip, generate, reduce, write,
                      parse and certify the g13 system
    groebner_certify  certify the raw and reduced systems of r2, n3, n4
                      and the reduced system of n3+line
    verify_sweep      catalog, free three-step and seeded filiform and
                      extension structures through the axiom and lemma checks
    raw_system_io     format, write, read and parse the raw g13 system

The run imports lralg from ``src/`` next to this directory, sets the
workload up three times (a fresh interpreter's import of lralg plus the
input generation) and reports the median set-up time.  It then repeats
the workload's operations while the next pass still fits in
``--seconds``, at least once, and reports medians over the passes.  All
of it runs in this one process on one thread, apart from the short-lived
interpreters that time the import.

Times in the metrics are reference seconds: wall time rescaled to a
fixed machine speed by the probes of ``refclock``, because plain wall
time on a shared machine spreads too far from run to run.  Plain wall
and CPU times are printed beside them.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` every pass runs twice, once untraced and once with
spans around each library call, and the metrics are the per-layer ones,
including the tracing overhead; the spans go to
``perfbench/out/trace-<workload>-seed<seed>.json``.

Lines before the last describe the run, including the share of failed
operations; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Failed
operations are described on standard error.  Without lralg's sources the
run exits with status 2 and prints no result.
``python3 perfbench/selfcheck.py`` checks the harness itself.
"""

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from refclock import Sampler
from tracing import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUPS = 3

# Prints the import's wall time and its time at the reference speed.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from refclock import Sampler
with Sampler() as clock:
    t0 = time.perf_counter()
    import lralg
    t1 = time.perf_counter()
print(t1 - t0, clock.ref_seconds(t0, t1))
"""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_seconds() -> tuple[float, float]:
    """Wall and reference seconds of `import lralg` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    wall, ref = map(float, done.stdout.split())
    return wall, ref


def set_up(workload, seed: int, workdir: str, times: int):
    """Set the workload up ``times`` times.  Returns the last inputs and
    the median set-up time in wall and in reference seconds."""
    walls, refs = [], []
    inputs = None
    for _ in range(times):
        inputs = None
        gc.collect()
        imp_wall, imp_ref = import_seconds()
        with Sampler() as clock:
            t0 = time.perf_counter()
            inputs = workload.setup(seed, workdir)
            t1 = time.perf_counter()
        walls.append(imp_wall + t1 - t0)
        refs.append(imp_ref + clock.ref_seconds(t0, t1))
    return inputs, statistics.median(walls), statistics.median(refs)


def measure(workload, inputs, seconds: float, trace: bool):
    """Run passes while the next one fits in ``seconds``, at least one.
    Returns (untraced iterations, traced iterations)."""
    from workloads import Iteration

    modes = (False, True) if trace else (False,)
    runs = {False: [], True: []}
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in modes:
            gc.collect()
            it = Iteration(traced)
            with Sampler() as clock:
                workload.iterate(inputs, it)
            it.rescale(clock)
            for name, reason in it.failures:
                print(f"FAILED {workload.name} {name}: {reason}", file=sys.stderr)
            runs[traced].append(it)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return runs[False], runs[True]


def write_trace(path: str, workload, seed: int, traced) -> None:
    """Span times are in reference seconds; each pass also keeps its wall time."""
    passes = []
    for it in traced:
        own = self_times(it.tracer.spans)
        passes.append(
            {
                "wall_s": it.wall,
                "ref_wall_s": it.ref,
                "operations": {str(k): v for k, v in it.tracer.op_names.items()},
                "spans": [
                    {
                        "id": s.id,
                        "parent": s.parent,
                        "op": s.op,
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        "self_s": own[s.id],
                    }
                    for s in it.tracer.spans
                ],
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": workload.name, "seed": seed, "seeded": workload.seeded, "passes": passes},
            fh,
        )


def emit(spec_metrics, values: dict) -> dict:
    """Pair each named metric with its unit; every name must have a value
    and no value may go unnamed."""
    names = [m["name"] for m in spec_metrics]
    if set(names) != set(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(f"metric set mismatch: missing {missing}, unnamed {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one lralg benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lralg", "__init__.py")):
        print(f"perfbench: lralg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from metrics import LAYERS, end_to_end, per_layer
    from workloads import WORKLOADS

    spec = load_spec()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # Set-up time is reported only untraced, so a traced run sets up once.
        inputs, setup_wall, setup_s = set_up(workload, args.seed, workdir, 1 if trace else SETUPS)
        untraced, traced = measure(workload, inputs, args.seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(it.attempted for it in passes)
    failed = sum(len(it.failures) for it in passes)
    seed_note = "seeded inputs" if workload.seeded else "fixed inputs: the seed does not affect them"
    print(f"workload {workload.name}, seed {args.seed} ({seed_note})")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced")
    print(f"attempted {attempted} operations, failed {failed}, failed_ratio {failed / attempted} ratio")
    print(f"set-up: {setup_wall} s wall (median)")
    print(f"timed part: {statistics.median(it.wall for it in untraced)} s wall, "
          f"{statistics.median(it.cpu for it in untraced)} s CPU (medians of untraced passes)")

    if trace:
        values = per_layer(traced, untraced)
        metrics = emit(spec["per_layer"], values)
        trace_path = os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.json")
        write_trace(trace_path, workload, args.seed, traced)
        print(f"{'layer':<14}{'total_s':>14}{'self_s':>14}")
        for layer in LAYERS:
            print(f"{layer:<14}{values[layer + '.total_s']:>14.6f}{values[layer + '.self_s']:>14.6f}")
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = emit(spec["end_to_end"], end_to_end(untraced, setup_s))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
