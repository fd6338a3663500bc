"""Span recorder that times netspread's layers from outside the program.

Each wrapper replaces a public function at the place its caller looks it
up (a module attribute or a class attribute), so no program code changes.
A span records its name, start, end, parent span and a small payload taken
from the call's arguments or result.  Spans stay in memory and are written
out with the run's result; `layer_metrics` turns them into per-layer
numbers.  A span's self time is its duration minus the time covered by its
child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

RESCORE_PER_CALL = 64  # pairs sampled from each predict_pairs call for rescoring


def resolve(target: str):
    """'pkg.module:attr' or 'pkg.module:Class.attr' -> (owner, attribute name)."""
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class SetupDone(BaseException):
    """Ends a set-up-only run at its first unit of work.

    A BaseException, so the CLI's catch-all for Exception lets it through.
    """


class Tracer:
    def __init__(self, seed: int, rescore: bool):
        self.spans: list[dict] = []
        self._open: list[int] = []  # indices of open spans, innermost last
        self.first_work: float | None = None
        self.steps = 0
        self.fresh_mask: np.ndarray | None = None
        self._prev_informed: set[int] = set()
        self.rescore = rescore
        self.seed = seed
        self.samples: list[tuple] = []  # (model, X, labels) for rescoring
        self.stub_runs: list[tuple] = []  # (graph, iterations, result) of always-positive runs

    def mark_first_work(self, target: str, stop: bool = False) -> None:
        """Record the monotonic time of the first call to `target`.

        With `stop`, raise SetupDone there instead of doing the work.
        """
        owner, attr = resolve(target)
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.first_work is None:
                self.first_work = time.monotonic()
                if stop:
                    raise SetupDone
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def wrap(self, target: str, name: str, payload=None) -> None:
        """Record a span around every call of `target`.

        `payload(arguments, result)` returns values stored on the span; it
        runs after the span closes, so its cost is not charged to the layer.
        """
        owner, attr = resolve(target)
        fn = getattr(owner, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter(), "end": None, "data": {}}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span["end"] = time.perf_counter()
            if payload is not None:
                span["data"].update(payload(sig.bind(*args, **kwargs).arguments, result))
            return result

        setattr(owner, attr, wrapper)

    def _innermost(self, names) -> dict | None:
        for i in reversed(self._open):
            if self.spans[i]["name"] in names:
                return self.spans[i]
        return None

    def install(self) -> None:
        """Wrap every layer boundary the workloads cross."""
        w = self.wrap
        edges = lambda a, g: {"edges": g.edge_count}  # noqa: E731
        for target in ("netspread.experiments:generate_graph",
                       "netspread.graph:gen_small_world", "netspread.graph:gen_erdos_renyi"):
            w(target, "graph.generate", edges)
        for target in ("clustering_coefficient", "mean_geodesic", "connected_components"):
            w(f"netspread.graph:{target}", "graph.metrics")
        rows = lambda a, t: {"rows": len(t)}  # noqa: E731
        w("netspread.experiments:sample_population", "population.sample", rows)
        w("netspread.population:sample_population", "population.sample", rows)
        w("netspread.completion:build_training_set", "completion.build",
          lambda a, pairs: {"pairs": len(pairs)})
        w("netspread.experiments:cross_validate", "classifier.fit")
        w("netspread.experiments:fit_pair_classifier", "classifier.fit", lambda a, m: {
            "support_vectors": int(len(m.coefs)), "converged": int(bool(m.converged)),
            "kkt_violation": float(m.kkt_violation)})
        w("netspread.classifier:train_svm", "classifier.smo")
        for cls in ("SvmModel", "ConstantModel"):
            w(f"netspread.classifier:{cls}.predict_pairs", "classifier.score", self._scored)
        self._count_kernel_entries()
        self._hook_diffusion_step()
        w("netspread.experiments:run_diffusion", "diffusion.run", self._diffused)
        w("netspread.diffusion:run_diffusion", "diffusion.run", self._diffused)
        w("netspread.analysis:main_component_clustering", "analysis.cluster",
          lambda a, r: {"component_size": len(r[1]), "clusters": r[0].n_clusters})
        w("netspread.analysis:modularity", "analysis.cluster",
          lambda a, q: {"modularity": float(q)})
        for target in ("propagation_graph", "inter_cluster_fraction", "cluster_graph",
                       "extend_cluster"):
            w(f"netspread.analysis:{target}", "analysis.cluster")
        w("netspread.analysis:wave_distribution", "analysis.wave")
        for target in ("experiments:write_log_csv", "experiments:write_summary_json",
                       "experiments:_write_sweep_csv", "diffusion:write_log_csv",
                       "diffusion:write_summary_json", "classifier:SvmModel.save"):
            w(f"netspread.{target}", "experiments.io", functools.partial(_written, target))

    def _scored(self, args, labels) -> dict:
        labels = np.asarray(labels)
        senders = np.asarray(args["senders"], dtype=int)
        data = {"pairs": int(len(labels)), "positives": int(np.count_nonzero(labels > 0))}
        if self.fresh_mask is not None:
            data["fresh"] = int(np.count_nonzero(self.fresh_mask[senders]))
        model = args["self"]
        if self.rescore and hasattr(model, "support_vectors") and len(labels):
            rng = np.random.default_rng([self.seed, len(self.samples)])
            pick = np.sort(rng.choice(len(labels), size=min(RESCORE_PER_CALL, len(labels)),
                                      replace=False))
            enc = args["table"].encoded()
            receivers = np.asarray(args["receivers"], dtype=int)
            X = np.hstack([enc[senders[pick]], enc[receivers[pick]]])
            self.samples.append((model, X, labels[pick]))
        return data

    def _diffused(self, args, result) -> dict:
        if getattr(args["model"], "label", None) == 1:  # the always-positive stub
            self.stub_runs.append((args["graph"], args["config"].iterations, result))
        return {"transmissions": len(result.log)}

    def _count_kernel_entries(self) -> None:
        """Count kernel entries per fit or scoring span without a span per call."""
        owner, attr = resolve("netspread.classifier:kernel_matrix")
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            K = fn(*args, **kwargs)
            span = self._innermost(("classifier.fit", "classifier.score"))
            if span is not None:
                span["data"]["kernel_evals"] = span["data"].get("kernel_evals", 0) + K.size
            return K

        setattr(owner, attr, wrapper)

    def _hook_diffusion_step(self) -> None:
        """Count steps and mark the senders informed in the previous step."""
        owner, attr = resolve("netspread.diffusion:diffusion_step")
        fn = getattr(owner, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = sig.bind(*args, **kwargs).arguments
            informed = a["informed"]
            fresh = informed if a["iteration"] == 1 else informed - self._prev_informed
            self._prev_informed = set(informed)
            self.fresh_mask = np.zeros(a["graph"].n, dtype=bool)
            self.fresh_mask[list(fresh)] = True
            self.steps += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.fresh_mask = None

        setattr(owner, attr, wrapper)


def _written(target: str, args, result) -> dict:
    data = {"bytes": os.path.getsize(args["path"])}
    if target.endswith("write_summary_json"):
        data["runs"] = 1
    return data


def _outermost(spans: list[dict], name: str) -> list[int]:
    """Indices of spans of `name` with no ancestor of the same name."""
    out = []
    for i, span in enumerate(spans):
        if span["name"] != name:
            continue
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent is None:
            out.append(i)
    return out


def self_time(spans: list[dict], index: int) -> float:
    span = spans[index]
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] == index)
    return span["end"] - span["start"] - covered


def layer_metrics(spans: list[dict], steps: int) -> dict[str, float]:
    """Per-layer numbers from one traced run's spans."""

    def total(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in _outermost(spans, name))

    def data(name, key, outer=True):
        chosen = (_outermost(spans, name) if outer
                  else [i for i, s in enumerate(spans) if s["name"] == name])
        return sum(spans[i]["data"].get(key, 0) for i in chosen)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    m["graph.generate_s"] = total("graph.generate")
    m["graph.edges"] = data("graph.generate", "edges")
    m["graph.edges_per_s"] = rate(m["graph.edges"], m["graph.generate_s"])
    m["graph.metrics_s"] = total("graph.metrics")
    m["population.sample_s"] = total("population.sample")
    m["population.rows_per_s"] = rate(data("population.sample", "rows"),
                                      m["population.sample_s"])
    m["completion.build_s"] = total("completion.build")
    m["completion.pairs"] = data("completion.build", "pairs")
    m["completion.pairs_per_s"] = rate(m["completion.pairs"], m["completion.build_s"])

    m["classifier.fit_s"] = total("classifier.fit")
    m["classifier.fits"] = len([s for s in spans if s["name"] == "classifier.smo"])
    m["classifier.fit_kernel_evals"] = data("classifier.fit", "kernel_evals", outer=False)
    final_fits = [s["data"] for s in spans
                  if s["name"] == "classifier.fit" and "support_vectors" in s["data"]]
    last = final_fits[-1] if final_fits else {}
    m["classifier.support_vectors"] = last.get("support_vectors", 0)
    m["classifier.converged"] = last.get("converged", 0)
    m["classifier.kkt_violation"] = last.get("kkt_violation", 0.0)

    m["classifier.score_s"] = total("classifier.score")
    m["classifier.pairs_scored"] = data("classifier.score", "pairs")
    m["classifier.score_kernel_evals"] = data("classifier.score", "kernel_evals", outer=False)
    m["classifier.pairs_per_s"] = rate(m["classifier.pairs_scored"], m["classifier.score_s"])
    m["classifier.positive_share"] = (
        data("classifier.score", "positives") / m["classifier.pairs_scored"]
        if m["classifier.pairs_scored"] else 0.0)

    m["diffusion.self_s"] = sum(self_time(spans, i) for i in _outermost(spans, "diffusion.run"))
    m["diffusion.fresh_sender_share"] = (
        data("classifier.score", "fresh") / m["classifier.pairs_scored"]
        if m["classifier.pairs_scored"] else 0.0)
    m["diffusion.steps"] = steps
    m["diffusion.transmissions"] = data("diffusion.run", "transmissions")

    m["analysis.cluster_s"] = total("analysis.cluster")
    m["analysis.wave_s"] = total("analysis.wave")
    m["analysis.component_size"] = data("analysis.cluster", "component_size", outer=False)
    m["analysis.clusters"] = data("analysis.cluster", "clusters", outer=False)
    m["analysis.modularity"] = data("analysis.cluster", "modularity", outer=False)

    m["experiments.io_s"] = total("experiments.io")
    m["experiments.bytes_written"] = data("experiments.io", "bytes")
    m["experiments.runs"] = data("experiments.io", "runs")
    return m
