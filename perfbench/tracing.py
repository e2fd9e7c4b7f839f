"""Layer tracing installed from outside the package.

`Tracer.install()` rebinds the public entry points listed in `LAYERS` to
timing wrappers: module functions are replaced in every loaded
`hopfcross` module that bound them (the defining module, `cli`,
`bimodules`, ...), methods and constructors are replaced on their class.
It also wraps the pair oracle of every `AlgebraHandle` created while it
is installed, which is the call that fills a handle's pair table.

Coarse layers record a span (id, parent id, name, start, end).  Hot
layers, called up to millions of times per job, are only aggregated as
call count, total time and self time, which keeps the overhead bounded.
Self time is a layer's time minus the time of the traced calls nested
inside it.  `uninstall()` restores every original.
"""

import sys
import time

# (metric name, defining module, attribute path, hot)
LAYERS = (
    ("crossed.StandardTriple", "hopfcross.crossed", "StandardTriple.__init__", False),
    ("crossed.check_handle_axioms", "hopfcross.crossed", "check_handle_axioms", False),
    ("crossed.materialize", "hopfcross.crossed", "materialize", False),
    ("crossed.product_dense", "hopfcross.crossed", "AlgebraHandle.product_dense", False),
    ("crossed.product", "hopfcross.crossed", "AlgebraHandle.product", True),
    ("isos.build_iso", "hopfcross.isos", "build_iso", False),
    ("isos.verify_algebra_morphism", "hopfcross.isos", "verify_algebra_morphism", False),
    ("isos.verify_mutually_inverse", "hopfcross.isos", "verify_mutually_inverse", False),
    ("isos.composition_identity", "hopfcross.isos", "composition_identity", False),
    ("linalg.LinearMap.compose", "hopfcross.linalg", "LinearMap.compose", False),
    ("linalg.LinearMap.apply_sv", "hopfcross.linalg", "LinearMap.apply_sv", True),
    ("linalg.LinearMap.apply_dense", "hopfcross.linalg", "LinearMap.apply_dense", True),
    ("algebra.check_hopf_axioms", "hopfcross.algebra", "check_hopf_axioms", False),
    ("algebra.trace_form_radical", "hopfcross.algebra", "trace_form_radical", False),
    ("actions.ActionData.act_sv", "hopfcross.actions", "ActionData.act_sv", True),
    ("bimodules.derived_action", "hopfcross.bimodules", "derived_action", False),
    ("bimodules.check_module_over_handle", "hopfcross.bimodules", "check_module_over_handle", False),
    ("bimodules.verify_action_correspondence", "hopfcross.bimodules", "verify_action_correspondence", False),
    ("bimodules.triple_module_roundtrip", "hopfcross.bimodules", "triple_module_roundtrip", False),
    ("bimodules.diagonal_module_condition", "hopfcross.bimodules", "diagonal_module_condition", False),
    ("hopf_json.load_document", "hopfcross.hopf_json", "load_document", False),
)

PAIR_FILL = "crossed.pair_fill"


class Tracer:
    """Call counts, times and spans of the layers in LAYERS."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {name: [0, 0.0, 0.0] for name, *_ in LAYERS}
        self.stats[PAIR_FILL] = [0, 0.0, 0.0]   # calls, total s, self s
        self.pair_nonzero = 0
        self.spans = []                          # (id, parent, name, start, end)
        self._open = []                          # ids of the open spans
        self._nested = 0.0                       # time of finished traced calls
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name, fn, span):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            if span:
                span_id = len(tracer.spans)
                parent = tracer._open[-1] if tracer._open else None
                tracer.spans.append(None)
                tracer._open.append(span_id)
            outer = tracer._nested
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - (tracer._nested - outer)
                tracer._nested = outer + dur
                if span:
                    tracer._open.pop()
                    tracer.spans[span_id] = (span_id, parent, name, start, end)

        return traced

    def span(self, name, fn, *args):
        """Run fn(*args) as a span of its own (a job or a benchmark phase)."""
        return self.wrap(name, fn, span=True)(*args)

    def _pair_oracle(self, pair_fn):
        def counted(i, j):
            sv = pair_fn(i, j)
            if sv:
                self.pair_nonzero += 1
            return sv
        return self.wrap(PAIR_FILL, counted, span=False)

    # -- install / uninstall ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        crossed = sys.modules["hopfcross.crossed"]
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "hopfcross" or name.startswith("hopfcross.")]
        for name, module_name, path, hot in LAYERS:
            owner = sys.modules[module_name]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, span=not hot)
            if classes:
                self._set(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)

        handle_cls = crossed.AlgebraHandle
        init = handle_cls.__init__
        tracer = self

        def handle_init(handle, *args, **kwargs):
            init(handle, *args, **kwargs)
            handle._pair_fn = tracer._pair_oracle(handle._pair_fn)

        self._set(handle_cls, "__init__", handle_init)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def metrics(self):
        """Per-layer time, self time and call count, plus the pair-fill ratio."""
        out = {}
        for name, (calls, total, own) in self.stats.items():
            if name.startswith("job.") or name.startswith("bench."):
                continue
            out[f"{name}.s"] = (total, "s")
            out[f"{name}.self_s"] = (own, "s")
            out[f"{name}.calls"] = (calls, "count")
        fills = self.stats[PAIR_FILL][0]
        out[f"{PAIR_FILL}.nonzero_ratio"] = (
            self.pair_nonzero / fills if fills else 0.0, "ratio")
        return out

    def counts(self):
        return {name: stat[0] for name, stat in self.stats.items()}
