"""Outside-in instrumentation of the braidalg modules for the traced run.

The tracer wraps the public entry points of each module from outside the
package and installs each wrapper wherever the name is looked up: on the
class for methods, and in every braidalg module namespace that bound the
function at import time (``uqf`` imports ``verify_identity`` and
``apply_state_leg1`` by name, so patching only their home module would miss
every suite call).  Nothing under ``src/`` is changed.

Every wrapped call opens a frame.  A frame's self time is its duration minus
the time covered by the wrapped calls made inside it, so time spent in
helpers that are not wrapped counts toward the nearest wrapped caller.
Coarse entry points also record a span ``(name, start, end, parent span,
request id)``; hot calls such as the ``Scalar`` operations are aggregated
as call counts and time only.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from time import perf_counter

SPAN, COUNT = True, False

# (module, class or None, attribute, record a span?)
_TARGETS = [
    ("scalars", "Scalar", "__add__", COUNT),
    ("scalars", "Scalar", "__radd__", COUNT),
    ("scalars", "Scalar", "__sub__", COUNT),
    ("scalars", "Scalar", "__rsub__", COUNT),
    ("scalars", "Scalar", "__neg__", COUNT),
    ("scalars", "Scalar", "__mul__", COUNT),
    ("scalars", "Scalar", "__rmul__", COUNT),
    ("scalars", "Scalar", "__truediv__", COUNT),
    ("scalars", "Scalar", "__pow__", COUNT),
    ("scalars", "Scalar", "__eq__", COUNT),
    ("scalars", "Scalar", "star", COUNT),
    ("scalars", "Scalar", "specialize", COUNT),
    ("scalars", None, "parse_scalar", COUNT),
    ("algebra", "GradedPoly", "__add__", COUNT),
    ("algebra", "GradedPoly", "__sub__", COUNT),
    ("algebra", "GradedPoly", "__rsub__", COUNT),
    ("algebra", "GradedPoly", "__mul__", COUNT),
    ("algebra", "GradedPoly", "__rmul__", COUNT),
    ("algebra", "GradedPoly", "star", COUNT),
    ("algebra", "GradedPoly", "specialize", COUNT),
    ("algebra", "Presentation", "dump", SPAN),
    ("algebra", None, "poly_star", COUNT),
    ("algebra", None, "degree_of", COUNT),
    ("algebra", None, "mat_identity", SPAN),
    ("algebra", None, "mat_mul", SPAN),
    ("algebra", None, "conjugate_matrix", SPAN),
    ("algebra", None, "scalar_mat_mul", SPAN),
    ("algebra", None, "scalar_mat_inverse", SPAN),
    ("algebra", None, "parse_poly", SPAN),
    ("braided", "LeggedPoly", "__add__", COUNT),
    ("braided", "LeggedPoly", "__sub__", COUNT),
    ("braided", "LeggedPoly", "__neg__", COUNT),
    ("braided", "LeggedPoly", "__mul__", COUNT),
    ("braided", "LeggedPoly", "__rmul__", COUNT),
    ("braided", "LeggedPoly", "star", COUNT),
    ("braided", "LeggedPoly", "specialize", COUNT),
    ("braided", "TensorPoly", "__add__", COUNT),
    ("braided", "TensorPoly", "__sub__", COUNT),
    ("braided", "TensorPoly", "__mul__", COUNT),
    ("braided", "TensorPoly", "__rmul__", COUNT),
    ("braided", "TensorPoly", "tensor", COUNT),
    ("braided", None, "embed", COUNT),
    ("braided", None, "braided_mul", COUNT),
    ("braided", None, "degree_of_legged", COUNT),
    ("braided", None, "lift_legs", COUNT),
    ("braided", None, "to_graded", COUNT),
    ("braided", None, "from_graded", COUNT),
    ("braided", None, "apply_state_leg1", SPAN),
    ("braided", None, "psi_flatten", SPAN),
    ("braided", None, "parse_legged", SPAN),
    ("simplify", "RelationSet", "__init__", SPAN),
    ("simplify", None, "reduce_poly", SPAN),
    ("simplify", None, "verify_identity", SPAN),
    ("simplify", None, "cuntz_reduce", SPAN),
    ("simplify", None, "contract_sums", SPAN),
    ("graphalg", None, "cuntz_graph", SPAN),
    ("graphalg", None, "cycle_graph", SPAN),
    ("graphalg", None, "vertex_matrix", SPAN),
    ("graphalg", None, "check_dagger", SPAN),
    ("graphalg", None, "kms_eval", SPAN),
    ("graphalg", None, "check_gauge_equivariance", SPAN),
    ("graphalg", None, "normalized_ftilde", SPAN),
    ("graphalg", None, "edge_normalizers", SPAN),
    ("graphalg", None, "edge_letters", SPAN),
    ("graphalg", None, "kms_state", SPAN),
    ("graphalg", None, "parse_graph", SPAN),
    ("graphalg", None, "kms_table", SPAN),
    ("uqf", None, "check_admissible", SPAN),
    ("uqf", None, "solve_admissible", SPAN),
    ("uqf", None, "make_datum", SPAN),
    ("uqf", None, "u_letters", SPAN),
    ("uqf", None, "u_matrix", SPAN),
    ("uqf", None, "z_word", COUNT),
    ("uqf", None, "scalar_times_poly_matrix", SPAN),
    ("uqf", None, "poly_matrix_times_scalar", SPAN),
    ("uqf", None, "conjugated_unitary", SPAN),
    ("uqf", None, "build_uqf", SPAN),
    ("uqf", None, "verify_coproduct", SPAN),
    ("uqf", None, "build_bosonization", SPAN),
    ("uqf", None, "derive_boso_coproduct", SPAN),
    ("uqf", None, "verify_fundamental_rep", SPAN),
    ("uqf", None, "cuntz_letters", SPAN),
    ("uqf", None, "cuntz_action", SPAN),
    ("uqf", None, "verify_kms_preservation", SPAN),
    ("uqf", None, "derive_action_constraints", SPAN),
    ("uqf", None, "verify_quotient_identities", SPAN),
    ("uqf", None, "graph_universal_presentation", SPAN),
    ("fusion", None, "fuse", COUNT),
    ("fusion", None, "fuse_results", COUNT),
    ("fusion", None, "conjugate_irrep", COUNT),
    ("fusion", None, "word_bar", COUNT),
    ("fusion", None, "dimension", COUNT),
    ("fusion", None, "all_words", COUNT),
    ("fusion", None, "parse_irrep", COUNT),
    ("fusion", None, "check_fusion_ring", SPAN),
    ("cli", None, "build_parser", SPAN),
    ("cli", None, "run", SPAN),
]

LAYERS = ("scalars", "algebra", "braided", "simplify", "graphalg", "uqf", "fusion", "cli")

# rendered `--trace` lines: "  step k: [check] ... rule <kind> ..."
_STEP = re.compile(r"^  step \d+: (?:\[.*\] )?rule (local|swap|contract) ", re.M)


class Tracer:
    """Frames, spans and counters for traced passes; install, run, uninstall."""

    def __init__(self, package):
        self._package = package
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_time: Counter = Counter()
        self.incl_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.request_id = 0
        # unwrapped, so that checking a residual is not counted as the program's work
        self._specialize = vars(package.scalars.Scalar)["specialize"]

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers keep working)."""
        for store in (self.spans, self.calls, self.self_time, self.incl_time, self.counts):
            store.clear()

    # -- frames ---------------------------------------------------------------

    def instrument(self, name: str, fn, span: bool):
        """Return ``fn`` wrapped in a frame named ``name``."""
        stack, spans = self._stack, self.spans
        calls, self_time, incl_time = self.calls, self.self_time, self.incl_time

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if span:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                self_time[name] += dur - frame[0]
                incl_time[name] += dur
                if span:
                    spans[sid] = (name, start, end, parent, self.request_id)

        return wrapper

    # -- adapters that count work at the call boundary ----------------------------

    def _products(self, mul):
        counts = self.counts

        def counted(a, b):
            out = mul(a, b)
            if type(a) is type(b):
                counts["products_formed"] += len(a) * len(b)
                counts["product_terms"] += len(out)
            return out

        return counted

    def _state_application(self, apply):
        counts = self.counts

        def applied(p, state, *args, **kwargs):
            def counted(word):
                value = state(word)
                counts["state_evaluated"] += 1
                if value:
                    counts["state_kept"] += 1
                return value

            return apply(p, counted, *args, **kwargs)

        return applied

    def _kms_state(self, make):
        def made(*args, **kwargs):
            return self.instrument("graphalg.state", make(*args, **kwargs), COUNT)

        return made

    def _reduction(self, reduce_poly):
        counts = self.counts

        def reduced(p, *args, **kwargs):
            counts["terms_in"] += len(p)
            return reduce_poly(p, *args, **kwargs)

        return reduced

    def _identity(self, verify_identity):
        counts, specialize = self.counts, self._specialize
        formal = self._package.scalars.FORMAL

        def verified(*args, **kwargs):
            report = verify_identity(*args, **kwargs)
            spec = args[3] if len(args) > 3 else kwargs.get("spec", formal)
            if report.residual is not None:
                counts["residual_terms"] += sum(
                    1 for _, c in report.residual.items() if not specialize(c, spec).is_zero()
                )
            return report

        return verified

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; a target a later version removed is skipped."""
        pkg = self._package
        adapters = {
            "LeggedPoly.__mul__": self._products,
            "TensorPoly.__mul__": self._products,
            "TensorPoly.__rmul__": self._products,
            "apply_state_leg1": self._state_application,
            "kms_state": self._kms_state,
            "reduce_poly": self._reduction,
            "verify_identity": self._identity,
        }
        modules = [pkg] + [getattr(pkg, m) for m in LAYERS]
        for module_name, cls_name, attr, span in _TARGETS:
            module = getattr(pkg, module_name)
            owner = getattr(module, cls_name, None) if cls_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                continue
            qual = f"{cls_name}.{attr}" if cls_name else attr
            fn = adapters[qual](original) if qual in adapters else original
            wrapper = self.instrument(f"{module_name}.{qual}", fn, span)
            if cls_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return float(sum(t for name, t in self.self_time.items() if name.split(".", 1)[0] == layer))

    def metrics(self, rendered_traces: list[str], out_bytes: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass (counts exact, times in seconds)."""
        c, calls, own = self.counts, self.calls, self.self_time
        firings = Counter(m.group(1) for text in rendered_traces for m in _STEP.finditer(text))
        products = c["products_formed"]
        evaluated = c["state_evaluated"]
        return {
            "scalars.mul_calls": calls["scalars.Scalar.__mul__"] + calls["scalars.Scalar.__rmul__"],
            "scalars.add_calls": calls["scalars.Scalar.__add__"] + calls["scalars.Scalar.__radd__"],
            "scalars.div_calls": calls["scalars.Scalar.__truediv__"],
            "scalars.specialize_calls": calls["scalars.Scalar.specialize"],
            "scalars.time_s": self.layer_self("scalars"),
            "algebra.self_s": self.layer_self("algebra"),
            "braided.mul_calls": sum(calls[f"braided.{k}"] for k in (
                "LeggedPoly.__mul__", "TensorPoly.__mul__", "TensorPoly.__rmul__")),
            "braided.products_formed": products,
            "braided.merge_ratio": c["product_terms"] / products if products else 0.0,
            "braided.mul_self_s": float(sum(own[f"braided.{k}"] for k in (
                "LeggedPoly.__mul__", "LeggedPoly.__rmul__", "TensorPoly.__mul__", "TensorPoly.__rmul__"))),
            "braided.state_keep_ratio": c["state_kept"] / evaluated if evaluated else 0.0,
            "braided.state_self_s": float(own["braided.apply_state_leg1"]),
            "braided.self_s": self.layer_self("braided"),
            "simplify.identities": calls["simplify.verify_identity"],
            "simplify.terms_in": c["terms_in"],
            "simplify.residual_terms": c["residual_terms"],
            "simplify.fire_local": firings["local"],
            "simplify.fire_swap": firings["swap"],
            "simplify.fire_contract": firings["contract"],
            "simplify.reduce_self_s": float(own["simplify.reduce_poly"]),
            "simplify.relset_s": float(self.incl_time["simplify.RelationSet.__init__"]),
            "simplify.self_s": self.layer_self("simplify"),
            "graphalg.state_calls": calls["graphalg.state"],
            "graphalg.state_self_s": float(own["graphalg.state"]),
            "graphalg.self_s": self.layer_self("graphalg"),
            "uqf.self_s": self.layer_self("uqf"),
            "fusion.fuse_calls": calls["fusion.fuse"],
            "fusion.fuse_results_calls": calls["fusion.fuse_results"],
            "fusion.self_s": self.layer_self("fusion"),
            "cli.self_s": self.layer_self("cli"),
            "cli.out_bytes": out_bytes,
        }


def write_spans(spans, path) -> None:
    """One JSON object per span: name, start, end, parent span index, request id."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, rid in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "request": rid}) + "\n")
