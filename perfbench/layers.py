"""Per-layer metrics of the traced run, computed from its spans.

Every metric is reported on every workload (0 where the workload does not
reach that code). The last field of each PER_LAYER entry names the
workloads on which the metric must be non-zero; the self-check asserts it.
Counts marked "computed" in RATIONALE.md are derived from array shapes, not
measured, and repeat exactly between runs.
"""

from __future__ import annotations

from tracer import CHECK_NAMES, EXACT_NAMES, Spans

TRAIN = ("train-linear", "train-categorical")
EVAL = ("eval-nll",)
ORACLE = ("oracle",)
ALL = TRAIN + EVAL + ORACLE
MODELS = ("sample_q", "log_joint", "log_q", "grad_log_joint", "grad_log_q")
PHASES = {
    "propose": ("models.sample_q",),
    "score": ("models.log_joint", "models.log_q"),
    "gradient": ("models.grad_log_joint", "models.grad_log_q"),
    "cache": ("jsa.cache.get", "jsa.cache.put"),
}
SIGMOID = ("ndnet.Sigmoid.forward", "ndnet.clamped_sigmoid", "ndnet.sigmoid")

# (name, unit, better, workloads on which it must be non-zero)
PER_LAYER = [
    ("ndnet.sigmoid.s", "s", "lower", ALL),
    ("ndnet.adam.s", "s", "lower", TRAIN),
    ("ndnet.adam.calls", "count", "lower", TRAIN),
    ("ndnet.adam.mbytes", "MB", "lower", TRAIN),
    ("ndnet.adam.mbytes_per_update", "MB", "lower", TRAIN),
    ("ndnet.linear.fwd_s", "s", "lower", ALL),
    ("ndnet.linear.bwd_s", "s", "lower", TRAIN + ORACLE),
    ("ndnet.linear.fwd_gflop", "GFLOP", "lower", ALL),
    ("ndnet.linear.bwd_gflop", "GFLOP", "lower", TRAIN + ORACLE),
    ("ndnet.linear.fwd_gflop_per_update", "GFLOP", "lower", TRAIN),
    ("ndnet.linear.bwd_gflop_per_update", "GFLOP", "lower", TRAIN),
    ("ndnet.linear.fwd_gflop_per_eval_row", "GFLOP", "lower", EVAL),
    ("ndnet.group_softmax.s", "s", "lower", ("train-categorical", "oracle")),
    ("ndnet.leaky_relu.s", "s", "lower", ("train-categorical", "oracle")),
    ("ndnet.net.fwd_calls", "count", "lower", ALL),
    ("ndnet.net.fwd_rows", "count", "lower", ALL),
    ("ndnet.net.bwd_calls", "count", "lower", TRAIN + ORACLE),
    *[(f"models.{f}.s", "s", "lower",
       ALL if f in ("sample_q", "log_joint") else TRAIN + ORACLE)
      for f in MODELS],
    *[(f"models.{f}.rows", "count", "lower",
       ALL if f in ("sample_q", "log_joint") else TRAIN + ORACLE)
      for f in MODELS],
    *[(f"models.{f}.rows_per_update", "count", "lower", TRAIN)
      for f in MODELS],
    ("models.sample_q.rows_per_eval_row", "count", "lower", EVAL),
    ("models.log_joint.rows_per_eval_row", "count", "lower", EVAL),
    ("models.check_domain.s", "s", "lower", ALL),
    ("models.check_domain.calls", "count", "lower", ALL),
    ("models.log_mass.s", "s", "lower", ALL),
    ("models.sample.s", "s", "lower", ALL),
    ("jsa.update.s", "s", "lower", TRAIN),
    ("jsa.update.self_s", "s", "lower", TRAIN),
    ("jsa.update.calls", "count", "lower", TRAIN),
    *[(f"jsa.phase.{p}_ms", "ms", "lower", TRAIN)
      for p in ("propose", "score", "accept", "gradient", "adam", "cache")],
    ("jsa.phase.other_ms", "ms", "lower", ()),
    ("jsa.train.self_s", "s", "lower", TRAIN),
    ("jsa.stage1.rows_per_s", "1/s", "higher", TRAIN),
    ("jsa.stage2.rows_per_s", "1/s", "higher", TRAIN),
    ("jsa.stage1.accept_rate", "ratio", "higher", TRAIN),
    ("jsa.stage2.accept_rate", "ratio", "higher", TRAIN),
    ("jsa.stage1.proposals", "count", "higher", TRAIN),
    ("jsa.stage2.proposals", "count", "higher", TRAIN),
    ("jsa.cache.hit_ratio", "ratio", "higher", TRAIN),
    ("jsa.cache.starts", "count", "higher", TRAIN),
    ("jsa.cache.get_s", "s", "lower", TRAIN),
    ("jsa.cache.put_s", "s", "lower", TRAIN),
    ("jsa.mis_chain.s", "s", "lower", ORACLE),
    ("jsa.mis_chain.steps", "count", "lower", ORACLE),
    ("jsa.mis_chain.ns_per_step", "ns", "lower", ORACLE),
    ("jsa.ckpt.save_s", "s", "lower", EVAL),
    ("jsa.ckpt.load_s", "s", "lower", EVAL),
    ("jsa.ckpt.bytes", "bytes", "lower", EVAL),
    ("evaluation.dataset_nll.s", "s", "lower", EVAL),
    ("evaluation.dataset_nll.self_s", "s", "lower", EVAL),
    ("evaluation.dataset_nll.rows", "count", "lower", EVAL),
    ("evaluation.enumerate.s", "s", "lower", ORACLE),
    ("evaluation.exact.s", "s", "lower", ORACLE),
    *[(f"checks.{c}.s", "s", "lower", ORACLE) for c in CHECK_NAMES],
    ("data.surrogate.s", "s", "lower", TRAIN + EVAL),
    ("trace.spans", "count", "lower", ALL),
    ("trace.overhead_s", "s", "lower", ()),
    ("trace.overhead_share", "ratio", "lower", ()),
]

UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def _per(total, base):
    return total / base if base else 0.0


def compute(sp: Spans, extras: dict, overhead_s: float,
            untraced_s: float) -> dict:
    """All PER_LAYER values from the spans of one traced pass.

    Per-update figures divide by the number of jsa.update spans; per eval
    row figures by the datapoints dataset_nll scored inside measured eval
    blocks. Figures "in an operation" count only spans inside a measured
    update, eval block or oracle battery (not set-up or output checks).
    """
    v = {}
    updates = sp.count("jsa.update")
    eval_rows = sp.rows_sum("evaluation.dataset_nll", in_op=True)

    v["ndnet.sigmoid.s"] = sp.total(*SIGMOID, outermost=True)
    v["ndnet.adam.s"] = sp.total("ndnet.adam_step")
    v["ndnet.adam.calls"] = sp.count("ndnet.adam_step")
    v["ndnet.adam.mbytes"] = sp.work_sum("ndnet.adam_step") / 1e6
    v["ndnet.adam.mbytes_per_update"] = _per(
        sp.work_sum("ndnet.adam_step", in_op=True) / 1e6, updates)
    for key, span in (("fwd", "ndnet.Linear.forward"),
                      ("bwd", "ndnet.Linear.backward")):
        v[f"ndnet.linear.{key}_s"] = sp.total(span)
        v[f"ndnet.linear.{key}_gflop"] = sp.work_sum(span) / 1e9
        v[f"ndnet.linear.{key}_gflop_per_update"] = _per(
            sp.work_sum(span, in_op=True) / 1e9, updates)
    v["ndnet.linear.fwd_gflop_per_eval_row"] = _per(
        sp.work_sum("ndnet.Linear.forward", in_op=True) / 1e9, eval_rows)
    v["ndnet.group_softmax.s"] = sp.total(
        "ndnet.group_softmax", "ndnet.group_softmax_vjp", outermost=True)
    v["ndnet.leaky_relu.s"] = sp.total("ndnet.LeakyReLU.forward",
                                       "ndnet.LeakyReLU.backward")
    v["ndnet.net.fwd_calls"] = sp.count("ndnet.LayeredNet.forward")
    v["ndnet.net.fwd_rows"] = sp.rows_sum("ndnet.LayeredNet.forward")
    v["ndnet.net.bwd_calls"] = sp.count("ndnet.LayeredNet.backward")

    for f in MODELS:
        span = f"models.{f}"
        v[f"{span}.s"] = sp.total(span)
        v[f"{span}.rows"] = sp.rows_sum(span)
        v[f"{span}.rows_per_update"] = _per(sp.rows_sum(span, in_op=True),
                                            updates)
    for f in ("sample_q", "log_joint"):
        v[f"models.{f}.rows_per_eval_row"] = _per(
            sp.rows_sum(f"models.{f}", in_op=True), eval_rows)
    v["models.check_domain.s"] = sp.total("models.check_domain")
    v["models.check_domain.calls"] = sp.count("models.check_domain")
    v["models.log_mass.s"] = sp.total("models.log_mass")
    v["models.sample.s"] = sp.total("models.sample")

    v["jsa.update.s"] = sp.total("jsa.update")
    v["jsa.update.self_s"] = sp.self_total("jsa.update")
    v["jsa.update.calls"] = updates
    children = sp.children_of("jsa.update")
    named = set()
    for phase, spans in PHASES.items():
        v[f"jsa.phase.{phase}_ms"] = _per(
            sum(children.get(s, 0.0) for s in spans) * 1e3, updates)
        named.update(spans)
    v["jsa.phase.accept_ms"] = _per(v["jsa.update.self_s"] * 1e3, updates)
    v["jsa.phase.adam_ms"] = _per(
        sp.total("ndnet.adam_step", in_op=True) * 1e3, updates)
    v["jsa.phase.other_ms"] = _per(
        sum(t for s, t in children.items() if s not in named) * 1e3, updates)
    v["jsa.train.self_s"] = sp.self_total("jsa.train")
    for key in ("jsa.stage1.rows_per_s", "jsa.stage2.rows_per_s",
                "jsa.stage1.accept_rate", "jsa.stage2.accept_rate",
                "jsa.stage1.proposals", "jsa.stage2.proposals"):
        v[key] = extras.get(key, 0.0)
    cache_updates = sp.mask("jsa.update") & (sp.work > 0)
    starts = float(sp.rows[cache_updates].sum())
    v["jsa.cache.starts"] = starts
    v["jsa.cache.hit_ratio"] = _per(sp.count("jsa.cache.get"), starts)
    v["jsa.cache.get_s"] = sp.total("jsa.cache.get")
    v["jsa.cache.put_s"] = sp.total("jsa.cache.put")

    v["jsa.mis_chain.s"] = sp.total("jsa.mis_chain")
    v["jsa.mis_chain.steps"] = sp.work_sum("jsa.mis_chain")
    v["jsa.mis_chain.ns_per_step"] = _per(v["jsa.mis_chain.s"] * 1e9,
                                          v["jsa.mis_chain.steps"])
    v["jsa.ckpt.save_s"] = sp.total("jsa.ckpt.save")
    v["jsa.ckpt.load_s"] = sp.total("jsa.ckpt.load")
    v["jsa.ckpt.bytes"] = _per(sp.work_sum("jsa.ckpt.load"),
                               sp.count("jsa.ckpt.load"))

    v["evaluation.dataset_nll.s"] = sp.total("evaluation.dataset_nll")
    v["evaluation.dataset_nll.self_s"] = sp.self_total("evaluation.dataset_nll")
    v["evaluation.dataset_nll.rows"] = sp.rows_sum("evaluation.dataset_nll")
    v["evaluation.enumerate.s"] = sp.total("evaluation.enumerate")
    v["evaluation.exact.s"] = sp.total(
        *[f"evaluation.{n}" for n in EXACT_NAMES], outermost=True)
    check_spans = [f"checks.{c}" for c in CHECK_NAMES]
    for c in CHECK_NAMES:
        sel = sp.mask(f"checks.{c}") & ~sp.mask(
            f"checks.{c}", parent=check_spans)
        v[f"checks.{c}.s"] = float(sp.dur[sel].sum())
    v["data.surrogate.s"] = sp.total("data.surrogate")

    v["trace.spans"] = len(sp)
    v["trace.overhead_s"] = overhead_s
    v["trace.overhead_share"] = _per(overhead_s, untraced_s)
    return {name: float(v[name]) for name, _, _, _ in PER_LAYER}


def coverage_gaps(workload: str, values: dict) -> list:
    """Metrics that must be non-zero on this workload but are not."""
    return [name for name, _, _, exercised in PER_LAYER
            if workload in exercised and not values.get(name)]
