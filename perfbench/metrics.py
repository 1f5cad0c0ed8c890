"""Metric catalog and the reductions that produce each metric.

End-to-end metrics come from the untraced closed loop; per-layer metrics
come from the spans of the traced loop (see tracer.py).  A per-op figure
is divided by the number of traced ops; a per-call figure by the number
of calls and is 0 when the workload makes none.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS, ROOT, self_times

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span name it aggregates (with the span detail, if any)
_SELF_PER_OP = {"symplectic.select_tau_balanced": "symplectic.select_tau_balanced"}
_CALLS_PER_OP = {
    "symplectic.pre_iwasawa": "symplectic.pre_iwasawa",
    "gaussian.apply_word": "gaussian.apply_word",
    "gaussian.partial_stft_log_modulus": "gaussian.partial_stft_log_modulus",
    "certify.verify_identity": "certify.verify_identity",
}
_MS_PER_CALL = {
    "grid.partial_stft_slice.k1": ("grid.partial_stft_slice", "k1"),
    "grid.partial_stft_slice.k2": ("grid.partial_stft_slice", "k2"),
    "grid.mass_outside": ("grid.mass_outside", None),
    "certify.certify": ("certify.certify", None),
    "certify.counterexample_alt1": ("certify.counterexample_alt1", None),
    "checks.beurling_sweep": ("checks.beurling_sweep", None),
    "checks.gelfand_shilov_sweep": ("checks.gelfand_shilov_sweep", None),
    "checks.hardy_fit_field": ("checks.hardy_fit_field", None),
    "checks.nazarov_bound": ("checks.nazarov_bound", None),
    "serialize.canonical_json": ("serialize.canonical_json", None),
    "serialize.read_field": ("serialize.read_field", None),
    "cli.factor": ("cli.cmd_factor", None),
    "cli.classify": ("cli.cmd_classify", None),
    "cli.verify": ("cli.cmd_verify", None),
    "cli.check": ("cli.cmd_check", None),
    "cli.counterexample": ("cli.cmd_counterexample", None),
}
_LETTERS = ("dilation", "fourier", "chirp")
# gate headroom: per-layer metric -> key an op reports its accuracy under
GATE_MAXIMA = {
    "certify.identity_err_max": "identity_err",
    "grid.oracle_err_max": "oracle_err",
    "grid.mass_outside_max": "mass_outside",
}
_BYTE_SPANS = ("serialize.canonical_json", "serialize.write_field")


def per_layer_catalog():
    """Every per-layer metric name with its unit, in report order."""
    cat = {}
    for layer in LAYERS:
        cat[f"{layer}.self_ms_per_op"] = "ms"
    for name in _SELF_PER_OP:
        cat[f"{name}.self_ms_per_op"] = "ms"
    for name in _CALLS_PER_OP:
        cat[f"{name}.calls_per_op"] = "count"
    for kind in _LETTERS:
        cat[f"grid.{kind}.ns_per_sample"] = "ns"
    for name in _MS_PER_CALL:
        cat[f"{name}.ms_per_call"] = "ms"
    cat["serialize.bytes_written_per_op"] = "B"
    for layer in LAYERS:
        cat[f"{layer}.errors"] = "count"
    for name in GATE_MAXIMA:
        cat[name] = "1"
    cat["harness.self_ms_per_op"] = "ms"
    cat["op.ms_per_op"] = "ms"
    cat["trace.overhead_ratio"] = "1"
    return cat


def quantile(values, q):
    """Inclusive-method quantile, q in (0, 1)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def layer_metrics(spans, gate_maxima, overhead_ratio):
    """Reduce traced spans to the per-layer metrics of `per_layer_catalog`."""
    own = self_times(spans)
    n_ops = sum(1 for s in spans if s[0] == ROOT)
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    errors = defaultdict(int)
    letter_self = defaultdict(float)
    letter_elems = defaultdict(int)
    out_bytes = 0
    for (name, start, end, _, _, detail), self_t in zip(spans, own):
        layer = name.split(".", 1)[0]
        calls[name] += 1
        incl[name] += end - start
        self_by_name[name] += self_t
        self_by_layer[layer] += self_t
        if detail == "error":
            errors[layer] += 1
        elif name == "grid.apply_letter_grid":
            letter_self[detail[0]] += self_t
            letter_elems[detail[0]] += detail[1]
        elif name == "grid.partial_stft_slice":
            calls[(name, detail)] += 1
            incl[(name, detail)] += end - start
        elif name in _BYTE_SPANS:
            out_bytes += detail

    per_op = 1.0 / max(n_ops, 1)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_op"] = 1e3 * self_by_layer[layer] * per_op
    for metric, span in _SELF_PER_OP.items():
        m[f"{metric}.self_ms_per_op"] = 1e3 * self_by_name[span] * per_op
    for metric, span in _CALLS_PER_OP.items():
        m[f"{metric}.calls_per_op"] = calls[span] * per_op
    for kind in _LETTERS:
        elems = letter_elems[kind]
        m[f"grid.{kind}.ns_per_sample"] = 1e9 * letter_self[kind] / elems if elems else 0.0
    for metric, (span, detail) in _MS_PER_CALL.items():
        key = span if detail is None else (span, detail)
        n = calls[key]
        m[f"{metric}.ms_per_call"] = 1e3 * incl[key] / n if n else 0.0
    m["serialize.bytes_written_per_op"] = out_bytes * per_op
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]
    for metric, key in GATE_MAXIMA.items():
        m[metric] = gate_maxima.get(key, 0.0)
    m["harness.self_ms_per_op"] = 1e3 * self_by_layer[ROOT] * per_op
    m["op.ms_per_op"] = 1e3 * incl[ROOT] * per_op
    m["trace.overhead_ratio"] = overhead_ratio
    return m
