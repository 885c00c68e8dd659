"""Per-layer tracing, installed from outside the program.

The tracer wraps public functions and methods of each braceflows module
(one module is one layer) and keeps everything in memory until ``write``:

* ``count`` targets only count calls.  They are the hottest leaves, and
  their time is charged to the caller's self time.
* ``hot`` targets are timed and counted but aggregated per function, not
  recorded one span per call.
* ``span`` targets are recorded as spans (name, start, end, parent), where
  the parent is the nearest enclosing recorded span.

Self time of a call is its duration minus the time covered by the wrapped
calls it makes; a layer's self time is the sum over its functions.  A
``reuse_ratio`` is 1 - distinct argument keys / calls, computed from the
arguments seen by the wrapper, never from the program's caches.

Two things must hold for the counts to be complete.  Functions imported by
name into other modules (``from .braces import verify_brace``) are replaced
in every braceflows namespace, and the tracer must be installed before any
object is built, because constructors capture bound methods (for example
``Brace.from_callable(group, ctx.circ)``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

COUNT, HOT, SPAN = "count", "hot", "span"


def _kernel_cost(name: str, args: tuple) -> tuple[int, int]:
    """(tuples examined, bytes of int64 gathers) of one exhaustive kernel
    call, computed from the table shapes.  Assumes the kernel visits every
    tuple; a failing check stops early and does less."""
    table = args[-1]
    n = int(table.shape[0])
    rank = args[0].group.rank if len(args) > 1 else 0
    if name == "check_identity":
        return n, 8 * 2 * n
    if name == "check_solvability":
        return n * n, 8 * n * n
    if name == "check_associativity":
        return n ** 3, 8 * 2 * n ** 3
    if name == "check_left_brace_law":
        return n ** 3, 8 * (1 + rank) * n ** 3
    if name == "check_prelie_symmetry":
        return n ** 3, 8 * (2 + 2 * rank) * n ** 3
    if name == "check_additivity_steps":
        gens = len(args[0].group.generators())
        return 2 * gens * n * n, 8 * 2 * gens * (1 + rank) * n * n
    raise KeyError(name)


KERNELS = ("check_identity", "check_associativity", "check_solvability",
           "check_left_brace_law", "check_prelie_symmetry",
           "check_additivity_steps")


def _obj_key(alive: dict, args: tuple) -> tuple:
    """Argument key (receiver identity, arguments).  Receivers are kept
    alive for the traced pass so their ids are never reused."""
    obj = args[0]
    alive[id(obj)] = obj
    return (id(obj),) + args[1:]


# (module, attribute, mode, keyed)
TARGETS = [
    ("groups", "PGroup.add", COUNT, False),
    ("groups", "PGroup.smul", COUNT, False),
    ("groups", "PGroup.encode", COUNT, False),
    ("groups", "additive_span", SPAN, False),
    ("prelie", "PreLieRing.dot", HOT, False),
    ("prelie", "PreLieRing.from_structure_constants", SPAN, False),
    ("prelie", "PreLieRing.index_table", SPAN, False),
    ("prelie", "ring_left_chain", SPAN, False),
    ("prelie", "verify_prelie", SPAN, False),
    ("prelie", "scalar_twist", SPAN, False),
    ("flows", "FlowContext.__init__", SPAN, False),
    ("flows", "FlowContext.exp_map", HOT, False),
    ("flows", "FlowContext.log_map", HOT, True),
    ("flows", "FlowContext.apply_exp", HOT, False),
    ("flows", "FlowContext.star", HOT, False),
    ("flows", "FlowContext.circ", HOT, False),
    ("flows", "flows_brace", SPAN, False),
    ("braces", "Brace.circ", HOT, True),
    ("braces", "Brace.star", HOT, False),
    ("braces", "Brace.lambda_map", HOT, False),
    ("braces", "Brace.circ_pow", HOT, False),
    ("braces", "Brace.circ_order", HOT, False),
    ("braces", "Brace.circ_inverse", HOT, False),
    ("braces", "Brace.from_callable", SPAN, False),
    ("braces", "Brace.from_table", SPAN, False),
    ("braces", "Brace.index_table", SPAN, False),
    ("braces", "verify_brace", SPAN, False),
    ("braces", "factor_brace", SPAN, False),
    ("braces", "ideal_quotient", SPAN, False),
    ("braces", "left_chain", SPAN, False),
    ("braces", "quoted_identity_report", SPAN, False),
    ("_tables", "IndexContext.__init__", SPAN, False),
    ("_tables", "build_table", SPAN, False),
    *(("_tables", k, SPAN, False) for k in KERNELS),
    ("correspondence", "derive", SPAN, False),
    ("correspondence", "DerivedPreLie.transported_star", HOT, False),
    ("correspondence", "DerivedPreLie.prelie_product", HOT, False),
    ("correspondence", "DerivedPreLie.build_tables", SPAN, False),
    ("correspondence", "DerivedPreLie.ring", SPAN, False),
    ("correspondence", "verify_derived_ring", SPAN, False),
    ("correspondence", "reconstruct_brace", SPAN, False),
    ("correspondence", "reconstruction_report", SPAN, False),
    ("formats", "parse", SPAN, False),
    ("formats", "parse_file", SPAN, False),
    ("formats", "build", SPAN, False),
    ("formats", "serialize", SPAN, False),
    ("formats", "document_from", SPAN, False),
    ("formats", "serialize_document", SPAN, False),
    ("cli", "run_command", SPAN, False),
]


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.alive: dict[int, object] = {}
        self.spans: list = []
        self.stack: list[list] = [[0.0, -1]]  # frames: [child seconds, span id]
        self.cells = 0
        self.bytes = 0
        self.t0 = time.perf_counter()

    # -- wrappers ---------------------------------------------------------------
    def _wrap(self, name: str, fn, mode: str, keyed: bool):
        calls, self_s, stack, spans = self.calls, self.self_s, self.stack, self.spans
        clock = time.perf_counter
        if mode == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)
            return counted

        keys = self.keys[name] if keyed else None
        alive = self.alive
        record = mode == SPAN
        kernel = name.rsplit(".", 1)[-1] if name.startswith("_tables.check_") else None

        @functools.wraps(fn)
        def timed(*args, **kw):
            calls[name] += 1
            if keys is not None:
                keys.add(_obj_key(alive, args))
            if kernel is not None:
                cells, nbytes = _kernel_cost(kernel, args)
                self.cells += cells
                self.bytes += nbytes
            parent = stack[-1]
            if record:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                d = end - start
                self_s[name] += d - frame[0]
                parent[0] += d
                if record:
                    spans[sid] = (name, start, end, parent[1])
        return timed

    def install(self) -> None:
        """Wrap every target.  Call before the traced pass builds anything."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "braceflows" or n.startswith("braceflows.")]
        for mod_name, attr, mode, keyed in TARGETS:
            module = sys.modules[f"braceflows.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__, mode, keyed)))
                else:
                    setattr(cls, meth, self._wrap(name, raw, mode, keyed))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, mode, keyed)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    # -- results ----------------------------------------------------------------
    def inclusive_s(self, *names: str) -> float:
        """Summed duration of recorded spans named in `names` that have no
        enclosing span of the same group, so nested calls count once."""
        group = set(names)
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in group:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in group:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum((v for k, v in self.self_s.items() if k.startswith(prefix)), 0.0)

    def reuse_ratio(self, name: str) -> float:
        calls = self.calls[name]
        return 1.0 - len(self.keys[name]) / calls if calls else 0.0

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).  The private module
        _tables reports under the name "tables"."""
        c, inc = self.calls, self.inclusive_s
        kernel_names = [f"_tables.{k}" for k in KERNELS]
        return {
            "groups.add.calls": (c["groups.PGroup.add"], "count"),
            "groups.smul.calls": (c["groups.PGroup.smul"], "count"),
            "groups.encode.calls": (c["groups.PGroup.encode"], "count"),
            "groups.span_s": (inc("groups.additive_span"), "s"),
            "prelie.dot.calls": (c["prelie.PreLieRing.dot"], "count"),
            "prelie.dot.self_s": (self.self_s["prelie.PreLieRing.dot"], "s"),
            "prelie.chain_s": (inc("prelie.ring_left_chain"), "s"),
            "prelie.verify_s": (inc("prelie.verify_prelie"), "s"),
            "flows.exp_map.calls": (c["flows.FlowContext.exp_map"], "count"),
            "flows.log_map.calls": (c["flows.FlowContext.log_map"], "count"),
            "flows.log_map.reuse_ratio": (self.reuse_ratio("flows.FlowContext.log_map"), "ratio"),
            "flows.apply_exp.calls": (c["flows.FlowContext.apply_exp"], "count"),
            "flows.circ.calls": (c["flows.FlowContext.circ"], "count"),
            "flows.self_s": (self.layer_self_s("flows"), "s"),
            "braces.circ.calls": (c["braces.Brace.circ"], "count"),
            "braces.circ.reuse_ratio": (self.reuse_ratio("braces.Brace.circ"), "ratio"),
            "braces.materialize_s": (inc("braces.Brace.from_callable", "braces.Brace.from_table",
                                         "braces.Brace.index_table"), "s"),
            "braces.verify_s": (inc("braces.verify_brace"), "s"),
            "braces.factor_s": (inc("braces.factor_brace", "braces.ideal_quotient"), "s"),
            "braces.self_s": (self.layer_self_s("braces"), "s"),
            "tables.build_table_s": (inc("_tables.build_table"), "s"),
            "tables.kernel_s": (inc(*kernel_names), "s"),
            "tables.kernel.calls": (sum(c[k] for k in kernel_names), "count"),
            "tables.cells_computed": (self.cells, "count"),
            "tables.bytes_computed": (self.bytes, "B"),
            "correspondence.derive_tables_s": (inc("correspondence.DerivedPreLie.build_tables"), "s"),
            "correspondence.transported_star.calls": (c["correspondence.DerivedPreLie.transported_star"], "count"),
            "correspondence.prelie_product.calls": (c["correspondence.DerivedPreLie.prelie_product"], "count"),
            "correspondence.verify_derived_s": (inc("correspondence.verify_derived_ring"), "s"),
            "correspondence.reconstruct_s": (inc("correspondence.reconstruct_brace"), "s"),
            "correspondence.self_s": (self.layer_self_s("correspondence"), "s"),
            "formats.parse_s": (inc("formats.parse", "formats.parse_file"), "s"),
            "formats.build_s": (inc("formats.build"), "s"),
            "formats.serialize_s": (inc("formats.serialize", "formats.document_from",
                                        "formats.serialize_document"), "s"),
            "cli.self_s": (self.layer_self_s("cli"), "s"),
        }

    def write(self, path: Path) -> None:
        """Write spans (times relative to tracer creation) and per-function
        aggregates as one JSON document."""
        t0 = self.t0
        data = {
            "spans": [{"id": i, "name": n, "start": s - t0, "end": e - t0, "parent": p}
                      for i, (n, s, e, p) in enumerate(self.spans)],
            "functions": {n: {"calls": self.calls[n], "self_s": self.self_s.get(n, 0.0)}
                          for n in sorted(self.calls)},
        }
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
