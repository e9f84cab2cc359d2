"""End-to-end metrics of the untraced passes, and per-layer metrics
derived from the traced ones.  Every time is in reference seconds (see
refclock).

The layers are lralg's modules.  ``linalg`` has no entry point the
workloads call, so its time shows inside the ``lr``, ``lie`` and
``constraints`` spans.  A metric that a workload does not exercise reads
0 on that workload.
"""

import resource
import statistics

from tracing import layer_times
from workloads import BASIS_SHA256

LAYERS = (
    "catalog",
    "constructions",
    "extensions",
    "lie",
    "lr",
    "constraints",
    "poly",
    "fileformat",
)

# metric -> the span names whose durations it sums
SPAN_SECONDS = {
    "constraints.generate_s": ("constraints.generate_lr_system",),
    "constraints.reduce_s": ("constraints.structural_reduce",),
    "constraints.certify_s": ("constraints.buchberger_certify",),
    "fileformat.format_system_s": ("fileformat.format_system",),
    "fileformat.parse_system_s": ("fileformat.parse_system_file",),
    "fileformat.format_algebra_s": ("fileformat.format_algebra",),
    "fileformat.parse_algebra_s": (
        "fileformat.parse_algebra_text",
        "fileformat.parse_algebra_text.to_lie",
    ),
    "lr.verify_axioms_s": ("lr.verify_axioms",),
    "lr.lemma_suite_s": ("lr.lemma_suite",),
    "lie.series_s": ("lie.lower_central_series", "lie.upper_central_series"),
    "constructions.build_s": ("constructions.free3_lr", "constructions.filiform_lr"),
    "extensions.lift_s": ("extensions.invertible_generator_lift",),
    "catalog.verify_s": ("catalog.catalog_verify",),
}

# metric -> the span name whose calls it counts
SPAN_CALLS = {
    "lr.verify_axioms_calls": "lr.verify_axioms",
    "lr.lemma_suite_calls": "lr.lemma_suite",
}

# counts the workloads take from the library's results
RESULT_COUNTS = (
    "constraints.polys",
    "constraints.variables",
    "constraints.added_rows",
    "constraints.eliminated",
    "constraints.rounds",
    "constraints.residual",
    "poly.pairs",
    "poly.zero_reductions",
    "poly.basis_size",
    "poly.max_degree",
    "fileformat.system_bytes",
    "lr.identity_checks",
    "catalog.instances",
)

MIB = 1 << 20


def iteration_metrics(spans, op_names, counts) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, for one
    traced iteration."""
    out: dict[str, float] = {}
    layers = layer_times(spans)
    for layer in LAYERS:
        total, own = layers.get(layer, (0.0, 0.0))
        out[f"{layer}.total_s"] = total
        out[f"{layer}.self_s"] = own
    for metric, names in SPAN_SECONDS.items():
        out[metric] = sum(s.duration for s in spans if s.name in names)
    for label in BASIS_SHA256:
        out[f"constraints.certify_s.{label}"] = sum(
            s.duration
            for s in spans
            if s.name == "constraints.buchberger_certify"
            and op_names[s.op] == f"certify.{label}"
        )
    for metric, name in SPAN_CALLS.items():
        out[metric] = sum(1 for s in spans if s.name == name)
    for name in RESULT_COUNTS:
        out[name] = counts.get(name, 0)
    pairs = out["poly.pairs"]
    out["poly.useful_pair_ratio"] = (
        1 - out["poly.zero_reductions"] / pairs if pairs else 0.0
    )
    for step in ("format", "parse"):
        secs = out[f"fileformat.{step}_system_s"]
        out[f"fileformat.{step}_mib_per_s"] = (
            out["fileformat.system_bytes"] / MIB / secs if secs else 0.0
        )
    out["trace.spans"] = len(spans)
    return out


def end_to_end(untraced, setup_s: float) -> dict[str, float]:
    """Median wall time of the untraced passes at the reference speed,
    the median set-up time at the reference speed, and the process's peak
    resident set so far."""
    return {
        "ref_wall_s": statistics.median(it.ref for it in untraced),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(traced, untraced) -> dict[str, float]:
    """Median of each metric over the traced iterations, plus the tracing
    overhead: median traced wall time minus median untraced wall time."""
    rows = [iteration_metrics(it.tracer.spans, it.tracer.op_names, it.counts) for it in traced]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["trace.overhead_s"] = statistics.median(it.ref for it in traced) - statistics.median(
        it.ref for it in untraced
    )
    return out
