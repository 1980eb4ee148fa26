"""Per-layer metrics of a traced run, named by specvm module.

Three sources: the probes (outside-in timings of one call), the spans of the
traced passes (time per call, self time, shares), and the exact counts of the
untraced digest pass (work done, which a speed-only change must not move).  A
layer that the workload never calls reads 0.
"""

from __future__ import annotations

from probes import ALLOC_COUNTS
from tracing import SPAN_NAMES

PROBE_UNITS = {
    "isa.parse_ms": "ms",
    "machine.decode_us_per_instr": "us",
    "machine.init_us": "us",
    "machine.arch_ns_per_step": "ns",
    **{f"machine.check_access_ns.n{n}": "ns" for n in ALLOC_COUNTS},
    **{f"machine.check_access_rz_ns.n{n}": "ns" for n in ALLOC_COUNTS},
    "engine.spec_ns_per_step": "ns",
    "engine.checkpoint_rollback_ns": "ns",
    "fuzzing.mutate_us": "us",
    "fuzzing.threads2_per_run_ratio": "ratio",
}
RETIRE_REASONS = ("fence", "halt", "fault", "window")


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(spans: dict, first: dict, first_infos: list[dict], first_counts: dict,
              tally: dict, probes: dict, traced_pass_s: float, untraced_pass_s: float,
              n_spans: int) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit)."""
    out = {name: (probes[name], unit) for name, unit in PROBE_UNITS.items()}

    def mean(name: str, scale: float) -> float:
        row = spans[name]
        return _div(scale * row["total_s"], row["calls"])

    def first_sum(key: str) -> int:
        return sum(info.get(key, 0) for info in first_infos)

    out["engine.arch_steps"] = (first["arch_steps"], "count")
    out["engine.spec_steps"] = (first["spec_steps"], "count")
    out["engine.spec_per_arch"] = (_div(first["spec_steps"], first["arch_steps"]), "ratio")
    out["engine.paths"] = (first["paths"], "count")
    for reason in RETIRE_REASONS:
        out[f"engine.retire.{reason}"] = (first["retired"].get(reason, 0), "count")

    out["detect.records_per_run"] = (
        _div(first_counts["records"], first_counts["runs"]), "count")
    out["detect.dedup_us"] = (mean("RunTrace.deduped", 1e6), "us")

    attempts, runs, corpus = (first_sum(k) for k in ("attempts", "runs", "corpus"))
    out["fuzzing.loop_self_share"] = (
        _div(spans["fuzz_loop"]["self_s"], spans["fuzz_loop"]["total_s"]), "ratio")
    out["fuzzing.distinct_ratio"] = (_div(runs, attempts), "ratio")
    out["fuzzing.keep_ratio"] = (_div(corpus, runs), "ratio")
    out["fuzzing.corpus"] = (corpus, "count")
    out["fuzzing.keys"] = (first_sum("keys"), "count")

    traces = [info["trace_bytes"] for info in first_infos if "trace_bytes" in info]
    out["artifacts.write_ms"] = (mean("write_artifacts", 1e3), "ms")
    out["artifacts.read_ms"] = (mean("read_lines", 1e3), "ms")
    out["artifacts.trace_kb"] = (_div(sum(traces), 1024 * len(traces)), "KiB")

    out["analyze.aggregate_krec_per_s"] = (
        _div(tally.get("read_back", 0), 1e3 * spans["aggregate"]["total_s"]), "krec/s")
    out["analyze.whitelist_ms"] = (mean("build_whitelist", 1e3), "ms")
    out["analyze.report_ms"] = (mean("render_report", 1e3), "ms")

    for mode, name in (("fence", "fence_pass"), ("slh", "slh_pass")):
        out[f"harden.{mode}_us_per_instr"] = (
            _div(1e6 * spans[name]["total_s"], tally.get(f"instrs.{mode}", 0)), "us")
    out["harden.verify_ms"] = (mean("verify_hardening", 1e3), "ms")
    for mode in ("fence", "slh"):
        out[f"harden.instr_growth.{mode}"] = (
            _div(first_sum(f"hardened_instrs.{mode}"), first_sum(f"instrs.{mode}")), "ratio")

    out["oracle.us_per_script"] = (
        _div(1e6 * spans["enumerate_paths"]["total_s"], tally.get("scripts", 0)), "us")
    out["oracle.scripts"] = (first_sum("scripts"), "count")

    out["trace.overhead_s"] = (traced_pass_s - untraced_pass_s, "s")
    out["trace.overhead_share"] = (_div(traced_pass_s - untraced_pass_s, untraced_pass_s), "ratio")
    out["trace.spans"] = (n_spans, "count")
    op_total = spans["op"]["total_s"]
    for name in SPAN_NAMES:
        out[f"self_share.{name}"] = (_div(spans[name]["self_s"], op_total), "ratio")
    return out
