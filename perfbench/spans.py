"""In-memory spans around the public functions of each dfv layer.

The tracer replaces a function at the name its caller looks it up by
(a module attribute such as ``dfv.complexity.strip``, or a class
attribute such as ``WeightLattice.character``) with a wrapper that
records one span per call: name, start, end, parent span and item id.
Spans stay in memory until the run ends; ``write`` dumps them.  The
program itself is not edited: undoing the wrappers restores it.

A span's layer is the dfv module that defines the wrapped function, so
``dfv.classifier.canonical_pair`` belongs to ``parabolic``.  Self time
is a span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import gzip
import time
from array import array
from importlib import import_module

# Public functions wrapped during the timed pass, as (module, attribute).
# The module is the one whose global the caller reads, so integer_rank
# appears twice: once as strip's callee, once as the matrix oracle's.
PASS_HOOKS = (
    ("dfv.classifier", "verify_tables"),
    ("dfv.classifier", "classify"),
    ("dfv.classifier", "enumerate_pairs"),
    ("dfv.classifier", "expected_table"),
    ("dfv.classifier", "diff_report"),
    ("dfv.classifier", "survey_rows"),
    ("dfv.classifier", "canonical_pair"),
    ("dfv.classifier", "complexity"),
    ("dfv.classifier", "dimension_lower_bound"),
    ("dfv.complexity", "complexity"),
    ("dfv.complexity", "pair_complexity"),
    ("dfv.complexity", "as_subset"),
    ("dfv.complexity", "intersection_weight_sets"),
    ("dfv.complexity", "strip"),
    ("dfv.complexity", "integer_rank"),
    ("dfv.blockmodel", "generic_orbit_complexity"),
    ("dfv.blockmodel", "nilradical_intersection_basis"),
    ("dfv.blockmodel", "borel_levi_basis"),
    ("dfv.blockmodel", "integer_rank"),
    ("dfv.weights", "WeightLattice.character"),
    ("dfv.weights", "WeightLattice.weyl_dim"),
    ("dfv.oracle", "tensor_product"),
    ("dfv.oracle", "tensor_product_reflection"),
    ("dfv.oracle", "lr_tensor"),
    ("dfv.oracle", "dimension_check"),
    ("dfv.sections", "decompose_example1"),
    ("dfv.sections", "decompose_example2_engine"),
    ("dfv.sections", "example1_closed_form"),
    ("dfv.sections", "decompose_example2"),
    ("dfv.sections", "section_multiplicity"),
    ("dfv.sections", "eps_to_fundamental"),
    ("dfv.sections", "integer_points"),
    ("dfv.polyhedra", "fm_prefix_projections"),
)

# Wrapped only while the workload is set up (RootSystem.indexed is
# called by every strip, so it is unwrapped before the pass).
SETUP_HOOKS = (
    ("dfv.rootsys", "build_root_system"),
    ("dfv.rootsys", "RootSystem.indexed"),
    ("dfv.weights", "weight_lattice"),
)


def _fm_constraints(proj) -> int:
    return sum(len(p) for p in proj[1:]) if proj else 0


# Counts taken from return values: name -> function of the result.
MEASURES = {
    "dfv.classifier.classify": len,
    "dfv.complexity.strip": lambda r: len(r.mus),
    "dfv.blockmodel.nilradical_intersection_basis": len,
    "WeightLattice.character": len,
    "dfv.sections.decompose_example1": len,
    "dfv.sections.decompose_example2_engine": len,
    "dfv.sections.integer_points": len,
    "dfv.polyhedra.fm_prefix_projections": _fm_constraints,
}

LAYERS = ("parabolic", "classifier", "complexity", "blockmodel", "weights",
          "oracle", "sections", "polyhedra")


def _resolve(module: str, attr: str):
    owner = import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        return getattr(owner, cls), attr, f"{cls}.{attr}"
    return owner, attr, f"{module}.{attr}"


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.names: list[str] = []
        self.layers: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.nid = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.errors: dict[int, str] = {}
        self.measured: dict[str, int] = {}
        self.stack: list[int] = []
        self.item_id = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self, hooks) -> None:
        for module, attr in hooks:
            owner, key, name = _resolve(module, attr)
            orig = getattr(owner, key)
            setattr(owner, key, self._wrap(orig, name))
            self._installed.append((owner, key, orig))

    def uninstall(self) -> None:
        while self._installed:
            owner, key, orig = self._installed.pop()
            setattr(owner, key, orig)

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(fn.__module__.rsplit(".", 1)[-1])
        measure = MEASURES.get(name)
        if measure is not None:
            self.measured[name] = 0
        clock, stack = self.clock, self.stack
        start, end, child = self.start, self.end, self.child
        nids, parent, item = self.nid, self.parent, self.item
        tracer = self

        def close(idx: int) -> None:
            t = clock()
            end[idx] = t
            stack.pop()
            p = parent[idx]
            if p >= 0:
                child[p] += t - start[idx]

        def wrapper(*args, **kwargs):
            idx = len(start)
            nids.append(nid)
            parent.append(stack[-1] if stack else -1)
            item.append(tracer.item_id)
            child.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(idx)
                tracer.errors[idx] = type(exc).__name__
                raise
            close(idx)
            if measure is not None:
                tracer.measured[name] += measure(result)
            return result

        return wrapper

    # -- reading ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def durations(self, first: int = 0, last: int | None = None) -> dict:
        """Per name over spans [first, last): calls, total and self seconds."""
        last = len(self.start) if last is None else last
        out: dict[str, list] = {}
        names, start, end, child, nid = self.names, self.start, self.end, self.child, self.nid
        for i in range(first, last):
            name = names[nid[i]]
            rec = out.get(name)
            if rec is None:
                rec = out[name] = [0, 0.0, 0.0]
            d = end[i] - start[i]
            rec[0] += 1
            rec[1] += d
            rec[2] += d - child[i]
        return out

    def write(self, path) -> None:
        """Spans as gzip TSV, times in seconds since the tracer started."""
        o = self.origin
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\titem\terror\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.nid[i]]}\t{self.start[i] - o:.9f}\t"
                    f"{self.end[i] - o:.9f}\t{self.parent[i]}\t{self.item[i]}\t"
                    f"{self.errors.get(i, '')}\n"
                )


def layer_metrics(tr: Tracer, setup_end: int, wall: float) -> dict[str, float]:
    """Per-layer metrics from the setup spans [0, setup_end) and the pass spans after."""
    setup = tr.durations(0, setup_end)
    pas = tr.durations(setup_end)

    def calls(*names):
        return sum(pas[n][0] for n in names if n in pas)

    def self_s(*names):
        return sum(pas[n][2] for n in names if n in pas)

    names, nid, parent = tr.names, tr.nid, tr.parent
    n = tr.span_count()

    def under(child: str, caller: str) -> tuple[int, float]:
        k, s = 0, 0.0
        for i in range(setup_end, n):
            p = parent[i]
            if names[nid[i]] == child and p >= 0 and names[nid[p]] == caller:
                k += 1
                s += tr.end[i] - tr.start[i] - tr.child[i]
        return k, s

    def refused(name: str) -> tuple[int, float]:
        k, s = 0, 0.0
        for i, err in tr.errors.items():
            if i >= setup_end and names[nid[i]] == name and err == "CapExceeded":
                k += 1
                s += tr.end[i] - tr.start[i]
        return k, s

    m = tr.measured.get
    evaluated, _ = under("dfv.classifier.complexity", "dfv.classifier.classify")
    rank_strip = under("dfv.complexity.integer_rank", "dfv.complexity.strip")
    rank_bm = (calls("dfv.blockmodel.integer_rank"), self_s("dfv.blockmodel.integer_rank"))
    peel_refused = refused("dfv.oracle.tensor_product")
    refl_refused = refused("dfv.oracle.tensor_product_reflection")
    peel_calls = calls("dfv.oracle.tensor_product")
    engine = ("dfv.sections.decompose_example1", "dfv.sections.decompose_example2_engine")
    closed = ("dfv.sections.example1_closed_form", "dfv.sections.decompose_example2")
    covered = sum(
        tr.end[i] - tr.start[i] for i in range(setup_end, n) if parent[i] < 0
    )
    out = {
        "rootsys.build_s": setup.get("dfv.rootsys.build_root_system", [0, 0.0])[1],
        "rootsys.indexed_s": setup.get("RootSystem.indexed", [0, 0.0])[1],
        "parabolic.canonical_calls": calls("dfv.classifier.canonical_pair"),
        "parabolic.canonical_self_s": self_s("dfv.classifier.canonical_pair"),
        "classifier.enumerate_self_s": self_s("dfv.classifier.enumerate_pairs"),
        "classifier.pairs_evaluated": evaluated,
        "classifier.kept_ratio": m("dfv.classifier.classify", 0) / evaluated if evaluated else 0.0,
        "classifier.expected_self_s": self_s("dfv.classifier.expected_table"),
        "classifier.diff_self_s": self_s("dfv.classifier.diff_report"),
        "complexity.calls": calls("dfv.classifier.complexity", "dfv.complexity.complexity"),
        "complexity.weight_sets_self_s": self_s("dfv.complexity.intersection_weight_sets"),
        "complexity.strip_self_s": self_s("dfv.complexity.strip"),
        "complexity.strip_rounds": m("dfv.complexity.strip", 0),
        "complexity.rank_calls": calls("dfv.complexity.integer_rank", "dfv.blockmodel.integer_rank"),
        "complexity.rank_self_s": self_s("dfv.complexity.integer_rank", "dfv.blockmodel.integer_rank"),
        "complexity.rank_strip_calls": rank_strip[0],
        "complexity.rank_strip_self_s": rank_strip[1],
        "complexity.rank_blockmodel_calls": rank_bm[0],
        "complexity.rank_blockmodel_self_s": rank_bm[1],
        "blockmodel.orbit_calls": calls("dfv.blockmodel.generic_orbit_complexity"),
        "blockmodel.orbit_self_s": self_s("dfv.blockmodel.generic_orbit_complexity"),
        "blockmodel.basis_self_s": self_s(
            "dfv.blockmodel.nilradical_intersection_basis", "dfv.blockmodel.borel_levi_basis"
        ),
        "blockmodel.module_dim_sum": m("dfv.blockmodel.nilradical_intersection_basis", 0),
        "weights.character_calls": calls("WeightLattice.character"),
        "weights.character_self_s": self_s("WeightLattice.character"),
        "weights.character_points": m("WeightLattice.character", 0),
        "weights.weyl_dim_self_s": self_s("WeightLattice.weyl_dim"),
        "oracle.peel_self_s": self_s("dfv.oracle.tensor_product"),
        "oracle.reflection_self_s": self_s("dfv.oracle.tensor_product_reflection"),
        "oracle.lr_self_s": self_s("dfv.oracle.lr_tensor"),
        "oracle.refusals": peel_refused[0] + refl_refused[0],
        "oracle.refusal_s": peel_refused[1] + refl_refused[1],
        "oracle.peel_completed_ratio": (
            (peel_calls - peel_refused[0]) / peel_calls if peel_calls else 0.0
        ),
        "sections.engine_self_s": self_s(*engine),
        "sections.closed_form_self_s": self_s(*closed),
        "sections.points_kept": sum(m(e, 0) for e in engine),
        "sections.multiplicity_calls": calls("dfv.sections.section_multiplicity"),
        "polyhedra.fm_self_s": self_s("dfv.polyhedra.fm_prefix_projections"),
        "polyhedra.fm_constraints": m("dfv.polyhedra.fm_prefix_projections", 0),
        "polyhedra.scan_self_s": self_s("dfv.sections.integer_points"),
        "polyhedra.points_scanned": m("dfv.sections.integer_points", 0),
        "trace.coverage_ratio": covered / wall,
    }
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, s) in pas.items():
        layer = tr.layers[tr.names.index(name)]
        if layer in by_layer:
            by_layer[layer] += s
    for layer, s in by_layer.items():
        out[f"{layer}.self_s"] = s
    return out
