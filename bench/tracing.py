"""Span tracing of cfglmm from outside the package.

``Tracer.install`` finds every public function defined in the traced modules
by reading module attributes, and rebinds each name that refers to it (in any
traced module and in the package namespace) to a wrapper that records a span.
Calls made through those names, including calls between cfglmm modules, are
then timed without editing the package source. ``uninstall`` restores the
original functions.

A span records its name, start, end, parent span, the scale index it ran in
and a computed work count (from argument shapes, see ``WORK``). Scale indices
come from ``fit_cf``'s ``progress=`` callback: pass ``Tracer.progress`` to it.
Scale 0 is the set-up before the first scale (split and baseline GLM).
Spans stay in memory; ``to_json`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED_MODULES = (
    "geometry",
    "experts",
    "families",
    "learner",
    "prediction",
    "simulate",
    "model_io",
    "evaluate",
)

FIT = "learner.fit_cf"
SCALE = "learner.scale"
PREDICT_ROOTS = ("prediction.predict", "prediction.decompose")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Computed work per call, from argument shapes alone.
WORK = {
    # kernel / distance matrix entries
    "geometry.pairwise_distances": lambda a, k: len(_arg(a, k, 0, "a")) * len(_arg(a, k, 1, "b")),
    "experts.fit_layer": lambda a, k: len(_arg(a, k, 3, "centers")) * len(_arg(a, k, 2, "sites")),
    "experts.evaluate_layer": lambda a, k: len(_arg(a, k, 1, "sites")) * _arg(a, k, 0, "layer").n_active,
    # centers requested
    "geometry.place_centers": lambda a, k: int(_arg(a, k, 1, "n_centers")),
}

# Query sites per call.
SITES = {
    "experts.evaluate_layer": lambda a, k: len(_arg(a, k, 1, "sites")),
    "prediction.predict": lambda a, k: len(_arg(a, k, 1, "sites")),
    "prediction.decompose": lambda a, k: len(_arg(a, k, 1, "sites")),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "scale", "work", "sites", "info")

    def __init__(self, name, start, parent, scale, work, sites=0):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.scale = scale
        self.work = work
        self.sites = sites
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._scale = -1  # -1: outside fit_cf
        self._scale_start = 0.0
        self._fit_span = -1
        self.wrapped: list[str] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules."""
        pkg = sys.modules["cfglmm"]
        modules = [sys.modules[f"cfglmm.{m}"] for m in TRACED_MODULES]
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{mod.__name__.rsplit('.', 1)[1]}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(obj, name))
        for mod in [pkg, *modules]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        self.wrapped = sorted(w.__qualname__ for _, w in wrappers.values())

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, name: str):
        work_of = WORK.get(name)
        sites_of = SITES.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = work_of(args, kwargs) if work_of is not None else 0
            sites = sites_of(args, kwargs) if sites_of is not None else 0
            span = Span(name, clock(), stack[-1] if stack else -1, self._scale, work, sites)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            if name == FIT:
                self._fit_span = idx
                self._scale = 0
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if name == FIT:
                    self._scale = -1
                elif name == "families.fit_glm" and span.parent == self._fit_span and self._scale == 0:
                    # the baseline GLM closes the set-up; scale 1 starts here
                    self._scale = 1
                    self._scale_start = span.end

        traced.__qualname__ = name
        return traced

    # -- scale attribution ---------------------------------------------------

    def progress(self, record) -> None:
        """``fit_cf`` progress callback: closes the span of one attempted scale."""
        now = time.perf_counter()
        span = Span(SCALE, self._scale_start, self._fit_span, record.scale, record.n_centers)
        span.end = now
        span.info = {"bandwidth": record.bandwidth, "accepted": record.accepted}
        self.spans.append(span)
        self._scale = record.scale + 1
        self._scale_start = now

    # -- output ----------------------------------------------------------------

    def to_json(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        out = []
        for i, s in enumerate(self.spans):
            rec = {
                "id": i,
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "parent": s.parent,
                "scale": s.scale,
                "work": s.work,
                "sites": s.sites,
            }
            if s.info:
                rec.update(s.info)
            out.append(rec)
        return out


def _scopes(spans: list[Span]) -> list[str]:
    """``"fit"`` for spans inside ``fit_cf``, ``"predict"`` inside predict or
    decompose, ``""`` elsewhere."""
    out = []
    for s in spans:
        if s.name == FIT:
            out.append("fit")
        elif s.name in PREDICT_ROOTS:
            out.append("predict")
        elif s.parent >= 0:
            out.append(out[s.parent])
        else:
            out.append("")
    return out


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time covered by its direct child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0 and s.name != SCALE:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _is_irls(spans: list[Span], s: Span) -> bool:
    # outermost families.* call, so nested IRLS helpers are not counted twice
    nested = s.parent >= 0 and spans[s.parent].name.startswith("families.")
    return s.name.startswith("families.") and not nested


def scale_table(spans: list[Span], n_uniq_train: int) -> list[dict]:
    """One row per attempted scale: regime, outcome and per-stage seconds."""
    rows = {}
    for s in spans:
        if s.name == SCALE:
            rows[s.scale] = {
                "scale": s.scale,
                "bandwidth": s.info["bandwidth"],
                "n_centers": s.work,
                "regime": "capped" if s.work >= n_uniq_train else "kmeans",
                "accepted": s.info["accepted"],
                "seconds": s.duration,
                "place_centers_s": 0.0,
                "fit_layer_s": 0.0,
                "evaluate_layer_s": 0.0,
                "dist_cache_s": 0.0,
                "irls_s": 0.0,
            }
    for s in spans:
        row = rows.get(s.scale) if s.name != SCALE else None
        if row is None:
            continue
        parent = spans[s.parent].name if s.parent >= 0 else ""
        if s.name == "geometry.place_centers":
            row["place_centers_s"] += s.duration
        elif s.name == "experts.fit_layer":
            row["fit_layer_s"] += s.duration
        elif s.name == "experts.evaluate_layer" and parent == FIT:
            row["evaluate_layer_s"] += s.duration
        elif s.name == "geometry.pairwise_distances" and parent == FIT:
            row["dist_cache_s"] += s.duration
        elif parent == FIT and _is_irls(spans, s):
            row["irls_s"] += s.duration
    return [rows[k] for k in sorted(rows)]


def layer_metrics(spans: list[Span], n_uniq_train: int) -> dict[str, float]:
    """Per-layer metrics of one traced fit plus its prediction calls.

    ``n_uniq_train`` (distinct training sites) splits scales into the k-means
    regime and the capped regime. Every query site is predicted once, so
    ``layer_evals_per_layer`` is the number of layer evaluations per accepted
    layer per query site, over predict and decompose together. Entry counts
    and the cache size are computed from argument shapes, not measured.
    """
    scope = _scopes(spans)
    selfs = self_times(spans)

    def pick(name, where=None):
        return [i for i, s in enumerate(spans) if s.name == name and (where is None or scope[i] == where)]

    def secs(name, where=None):
        return sum(spans[i].duration for i in pick(name, where))

    def work(name, where=None):
        return sum(spans[i].work for i in pick(name, where))

    (fit_idx,) = pick(FIT)
    scales = scale_table(spans, n_uniq_train)
    n_layers = sum(r["accepted"] for r in scales)
    cache_entries = sum(
        spans[i].work for i in pick("geometry.pairwise_distances", "fit") if spans[i].parent == fit_idx
    )
    eval_sites_pred = sum(spans[i].sites for i in pick("experts.evaluate_layer", "predict"))
    query_sites = sum(spans[i].sites for i in pick("prediction.predict"))
    return {
        "geometry.place_centers_s": secs("geometry.place_centers", "fit"),
        "geometry.place_centers_calls": len(pick("geometry.place_centers", "fit")),
        "geometry.centers_placed": work("geometry.place_centers", "fit"),
        "geometry.pairwise_distances_s": secs("geometry.pairwise_distances", "fit"),
        "geometry.dist_cache_mb": cache_entries * 8 / 2**20,
        "experts.fit_layer_s": sum(selfs[i] for i in pick("experts.fit_layer", "fit")),
        "experts.evaluate_layer_fit_s": secs("experts.evaluate_layer", "fit"),
        "experts.fit_kernel_entries": work("experts.fit_layer", "fit"),
        "experts.eval_kernel_entries": work("experts.evaluate_layer", "fit"),
        "experts.evaluate_layer_predict_s": secs("experts.evaluate_layer", "predict"),
        "prediction.predict_s": secs("prediction.predict"),
        "prediction.decompose_s": secs("prediction.decompose"),
        "prediction.layer_evals_per_layer": eval_sites_pred / max(1, n_layers * query_sites),
        "learner.self_s": selfs[fit_idx],
        "learner.scales_attempted": len(scales),
        "learner.accepted_scales": n_layers,
        "learner.accept_ratio": n_layers / max(1, len(scales)),
        "learner.capped_scales": sum(r["regime"] == "capped" for r in scales),
        "learner.kmeans_regime_s": sum(r["seconds"] for r in scales if r["regime"] == "kmeans"),
        "learner.capped_regime_s": sum(r["seconds"] for r in scales if r["regime"] == "capped"),
        "learner.evals_per_accepted_layer": len(pick("experts.evaluate_layer", "fit")) / max(1, n_layers),
        # no accepted layer: the first (coarsest) attempted bandwidth
        "learner.finest_bandwidth": min(
            (r["bandwidth"] for r in scales if r["accepted"]), default=scales[0]["bandwidth"]
        ),
        "families.irls_s": sum(
            s.duration for i, s in enumerate(spans) if scope[i] == "fit" and _is_irls(spans, s)
        ),
        "simulate.generate_s": secs("simulate.gen_poisson"),
        "model_io.save_s": secs("model_io.save_model"),
        "model_io.load_s": secs("model_io.load_model"),
    }
