"""Per-layer tracing from outside the package, by rebinding module attributes.

Each traced function is replaced by a wrapper that records a span: its
duration, and the part of it spent in traced children, so that self time is
the span minus its children.  Spans are folded into per-function totals as
they close, so memory stays flat however many calls an op makes.

A name is rebound wherever the original object is bound in a ``freeq``
module, which covers ``from .words import mul, inverse`` style imports in
``stallings``, ``homs`` and ``constructions``.  ``tower._mul_level`` and the
dataclass ``__hash__`` methods are deliberately not traced: they run tens of
millions of times on ``vn list --n 3``, which cProfile slows from 15 s to 66 s.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

LAYERS = ("cli", "qcompletion", "tower", "words", "stallings", "homs", "constructions")

# metric prefix -> (module, attribute, class or None)
TARGETS = {
    "cli.run": ("cli", "run", None),
    "qcompletion.parse_qword": ("qcompletion", "parse_qword", None),
    "qcompletion.QSession.normalize": ("qcompletion", "normalize", "QSession"),
    "qcompletion.QSession.q_conjugate": ("qcompletion", "q_conjugate", "QSession"),
    "qcompletion.enumerate_Vn": ("qcompletion", "enumerate_Vn", None),
    **{
        f"tower.{name}": ("tower", name, None)
        for name in (
            "mul", "pow_elem", "inv", "canonical_form", "coset_rep", "class_rep",
            "conjugate_in_tower", "cyclic_decompose", "extract_root_elem", "serialize", "sort_key",
        )
    },
    "tower.extend_centralizer": ("tower", "extend_centralizer", "Tower"),
    **{
        f"words.{name}": ("words", name, None)
        for name in ("free_reduce", "cyclic_reduce", "power", "extract_root", "conjugacy_witness", "dehn_area")
    },
    **{
        f"stallings.{name}": ("stallings", name, None)
        for name in (
            "build_core", "fiber_product", "is_conjugate_separated", "conjugate_intersections_finite",
            "contains", "express", "quasiconvexity_constant",
        )
    },
    "homs.hnn_reduce": ("homs", "hnn_reduce", None),
    "homs.amalgam_reduce": ("homs", "amalgam_reduce", None),
    "constructions.verify_iso": ("constructions", "verify_iso", None),
    "constructions.check_separated_hnn": ("constructions", "check_separated_hnn", None),
    "constructions.check_amalgam": ("constructions", "check_amalgam", None),
}

# qcompletion's per-layer metrics (its other spans are summed in self_share)
QCOMPLETION_METRICS = (
    "qcompletion.parse_qword.self_s",
    "qcompletion.QSession.normalize.calls",
    "qcompletion.QSession.normalize.self_s",
    "qcompletion.QSession.q_conjugate.self_s",
    "qcompletion.enumerate_Vn.self_s",
)


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TARGETS}  # calls, total s, self s
        self.edges = {}  # (parent span, child span) -> direct calls
        self.counters = {"conjugate_in_tower.absent": 0, "letters_in": 0, "pairs_visited": 0,
                         "pair_slots": 0, "pair_edges": 0, "core_vertices_max": 0}
        self.per_op = []  # (cache entries, tower level, "rep" cache keys) per op
        self._stack = []
        self._saved = []
        self._op_caches = {}
        self._op_level = 0

    # -- hooks: read-only looks at arguments and results

    def _see_caches(self, args, out):
        caches = args[0]._caches
        self._op_caches[id(caches)] = caches

    def _see_tower(self, args, out):
        self._op_caches[id(out._caches)] = out._caches
        self._op_level = max(self._op_level, out.level)

    def _see_conj(self, args, out):
        self._see_caches(args, out)
        if out[0] == "absent-within-bound":
            self.counters["conjugate_in_tower.absent"] += 1

    def _see_letters(self, args, out):
        self.counters["letters_in"] += sum(len(a) for a in args if isinstance(a, tuple))

    def _see_fiber(self, args, out):
        g1, g2 = args
        pairs = g1.num_vertices * g2.num_vertices
        self.counters["pairs_visited"] += pairs
        self.counters["pair_slots"] += pairs * g1.alphabet.size
        self.counters["pair_edges"] += sum(len(c.edges) for c in out)

    def _see_core(self, args, out):
        self.counters["core_vertices_max"] = max(self.counters["core_vertices_max"], out.num_vertices)

    def _hook(self, name):
        if name in ("tower.coset_rep", "tower.class_rep", "tower.canonical_form", "tower.serialize"):
            return self._see_caches
        if name == "tower.extend_centralizer":
            return self._see_tower
        if name == "tower.conjugate_in_tower":
            return self._see_conj
        if name.startswith("words.") and name != "words.free_reduce":
            return self._see_letters
        if name == "stallings.fiber_product":
            return self._see_fiber
        if name == "stallings.build_core":
            return self._see_core
        return None

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        edges = self.edges
        hook = self._hook(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None:
                key = (parent[0], name)
                edges[key] = edges.get(key, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
            if hook is not None:
                hook(args, out)
            return out

        return traced

    # -- install / uninstall

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "freeq" or n.startswith("freeq.")]
        for name, (mod, attr, cls) in TARGETS.items():
            module = sys.modules[f"freeq.{mod}"]
            if cls is not None:
                owner = getattr(module, cls)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- per-op bookkeeping

    def begin_op(self):
        self._op_caches = {}
        self._op_level = 0

    def end_op(self):
        entries = reps = 0
        for caches in self._op_caches.values():
            entries += sum(len(d) for d in caches.values())
            reps += sum(1 for k in caches.get("ops", ()) if k[0] == "rep")
        self.per_op.append((entries, self._op_level, reps))
        self._op_caches = {}

    # -- results

    def snapshot(self) -> dict:
        return {
            "stats": self.stats,
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "counters": self.counters,
            "per_op": self.per_op,
        }

    def merge(self, snap: dict):
        for name, (calls, total, self_s) in snap["stats"].items():
            s = self.stats[name]
            s[0] += calls
            s[1] += total
            s[2] += self_s
        for p, c, n in snap["edges"]:
            self.edges[(p, c)] = self.edges.get((p, c), 0) + n
        for key, value in snap["counters"].items():
            if key == "core_vertices_max":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        self.per_op.extend(tuple(x) for x in snap["per_op"])

    def metrics(self, traced_wall_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        st = self.stats
        out = {}
        ops = max(1, len(self.per_op))
        out["cli.run.calls"] = (st["cli.run"][0], "count")
        out["cli.run.self_ms_per_op"] = (st["cli.run"][2] * 1000 / ops, "ms")
        for key in QCOMPLETION_METRICS:
            name, field = key.rsplit(".", 1)
            out[key] = (st[name][0], "count") if field == "calls" else (st[name][2], "s")
        out["qcompletion.tower_levels_per_op"] = (statistics.fmean(p[1] for p in self.per_op) if self.per_op else 0.0, "levels")
        for name in TARGETS:
            if name.split(".")[0] in ("tower", "words", "stallings", "homs", "constructions"):
                out[f"{name}.calls"] = (st[name][0], "count")
                out[f"{name}.self_s"] = (st[name][2], "s")

        def per(num, den):
            return num / den if den else 0.0

        edge = lambda p, c: self.edges.get((p, c), 0)  # noqa: E731
        misses = sum(p[2] for p in self.per_op)
        out["tower.coset_rep.candidates_per_call"] = (per(edge("tower.coset_rep", "tower.pow_elem"), misses), "count/call")
        out["tower.coset_rep.hit_ratio"] = (per(st["tower.coset_rep"][0] - misses, st["tower.coset_rep"][0]), "ratio")
        out["tower.class_rep.candidates_per_call"] = (
            per(edge("tower.class_rep", "tower.pow_elem"), st["tower.class_rep"][0]), "count/call")
        out["tower.conjugate_in_tower.twists_per_call"] = (
            per(edge("tower.conjugate_in_tower", "tower.pow_elem"), st["tower.conjugate_in_tower"][0]), "count/call")
        out["tower.conjugate_in_tower.absent"] = (self.counters["conjugate_in_tower.absent"], "count")
        entries = [p[0] for p in self.per_op] or [0]
        out["tower.cache_entries_per_op.p50"] = (statistics.median(entries), "count")
        out["tower.cache_entries_per_op.max"] = (max(entries), "count")
        out["words.letters_in"] = (self.counters["letters_in"], "letters")
        out["stallings.fiber_product.pairs_visited"] = (self.counters["pairs_visited"], "count")
        out["stallings.fiber_product.pair_yield"] = (per(self.counters["pair_edges"], self.counters["pair_slots"]), "ratio")
        out["stallings.core_vertices.max"] = (self.counters["core_vertices_max"], "count")
        for layer in LAYERS:
            own = sum(s[2] for name, s in st.items() if name.split(".")[0] == layer)
            out[f"{layer}.self_share"] = (per(own, traced_wall_s), "ratio")
        return out


def child_main(snapshot_path: str):
    """Run one CLI op traced in this (fresh) interpreter; write the spans to
    snapshot_path and exit with the op's code.  Invoked as
    ``python -c "import sys; sys.path.insert(0, BENCH); import tracer;
    tracer.child_main(PATH)" --json vn list ...``."""
    import freeq.cli

    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    try:
        code = freeq.cli.run()
    finally:
        tracer.end_op()
        tracer.uninstall()
        with open(snapshot_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    sys.exit(code)
