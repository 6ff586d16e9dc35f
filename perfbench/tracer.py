"""Span tracer that wraps mthorder's public functions from the outside.

`Tracer.install` replaces every public function of the traced modules,
the `LogConcaveFunction.eval`/`eval_many` methods, and every by-name
import of those functions in other modules, with a wrapper that records
a span (name, start, end, parent, thread) and a few work counters.
`Tracer.uninstall` puts every original back.  Spans live in per-thread
typed arrays while the program runs and are written out at the end.

`self_times` and `layer_metrics` turn a span table into the per-layer
metrics; they need only numpy, not mthorder.
"""
from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import EQUALITY

MODULES = ("numerics", "convexcore", "lcfun", "covariogram", "projection",
           "starbodies", "mellin", "inequalities", "harness")
JOB = "harness.job"          # one span per job the pool runs
ROOT = "config"              # one span per config, opened by the worker


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows(X) -> int:
    return 1 if np.ndim(X) < 2 else len(X)


# Counters recorded after a call returns: (counts, args, kwargs, result,
# frame, parent frame or None) -> None.  A frame is [span id, facet rows
# seen by its children].
def _facets(counts, args, kwargs, result, frame, parent):
    counts["convexcore.facets.rows"] += len(result)
    if parent is not None:
        parent[1] += len(result)


def _ppb_many(counts, args, kwargs, result, frame, parent):
    m = _arg(args, kwargs, 1, "m")
    directions = len(result)
    counts["projection.ppb_gauge_body_many.directions"] += directions
    counts["projection.ppb_gauge_body_many.facet_dir_products"] += (
        directions * frame[1] * m)


def _count(key, of):
    def hook(counts, args, kwargs, result, frame, parent):
        counts[key] += of(args, kwargs, result)
    return hook


def _write_report_bytes(counts, args, kwargs, result, frame, parent):
    counts["harness.write_report.bytes"] += sum(
        p.stat().st_size for p in Path(result).rglob("*") if p.is_file())


def _near_boundary(counts, args, kwargs, v, frame, parent):
    if v.status != EQUALITY and abs(v.margin) < 5.0 * v.sigma_combined:
        counts["inequalities.make_verdict.near_boundary"] += 1


HOOKS = {
    "convexcore.facets": _facets,
    "projection.ppb_gauge_body_many": _ppb_many,
    "numerics.sphere_sample": _count(
        "numerics.sphere_sample.points",
        lambda a, k, r: len(r)),
    "inequalities.int_convolution": _count(
        "inequalities.int_convolution.draws",
        lambda a, k, r: r.samples_or_nodes),
    "lcfun.eval_many": _count(
        "lcfun.eval_many.rows", lambda a, k, r: _rows(_arg(a, k, 1, "X"))),
    "convexcore.gauge_many": _count(
        "convexcore.gauge_many.rows", lambda a, k, r: _rows(_arg(a, k, 1, "X"))),
    "covariogram.covariogram_body_many": _count(
        "covariogram.covariogram_body_many.rows",
        lambda a, k, r: len(_arg(a, k, 1, "xbars"))),
    "numerics.lp_feasible_interior": _count(
        "numerics.lp_feasible_interior.infeasible",
        lambda a, k, r: int(not r[0])),
    "convexcore.intersect_translates": _count(
        "convexcore.intersect_translates.empty", lambda a, k, r: int(r is None)),
    "numerics.integrate_1d": _count(
        "numerics.integrate_1d.evals", lambda a, k, r: r.samples_or_nodes),
    "inequalities.make_verdict": _near_boundary,
    "harness.write_report": _write_report_bytes,
}


class _Buffer:
    """Spans and counters of one thread; only that thread appends."""

    def __init__(self, index: int):
        self.index = index
        self.ids = array("q")
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[list] = []
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, parent: int | None = None):
        """`fn` wrapped to record one span per call.  `parent` names the
        causing span when the call runs on another thread than its cause."""
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        raised = name + ".raised"
        perf = time.perf_counter
        ids = self._ids
        tracer = self

        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            outer = stack[-1] if stack else None
            if outer is not None:
                pid = outer[0]
            else:
                pid = -1 if parent is None else parent
            frame = [next(ids), 0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                buf.counts[raised] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                buf.ids.append(frame[0])
                buf.names.append(nid)
                buf.parents.append(pid)
                buf.starts.append(t0)
                buf.ends.append(t1)
            if hook is not None:
                hook(buf.counts, args, kwargs, result, frame, outer)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def current_span(self) -> int:
        stack = self._buffer().stack
        return stack[-1][0] if stack else -1

    # -- installing ----------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the traced modules of `package` (the imported mthorder)."""
        mods = {name: getattr(package, name) for name in MODULES}
        wrapped: dict[int, object] = {}
        for mname, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if attr == "run_jobs":
                    new = self._run_jobs(fn)
                else:
                    new = self.span(f"{mname}.{attr}", fn)
                wrapped[id(fn)] = new
                self._patch(mod, attr, new)
        # names imported directly into other modules (from .x import f)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                new = wrapped.get(id(value))
                if new is not None and getattr(mod, attr) is not new:
                    self._patch(mod, attr, new)
        cls = mods["lcfun"].LogConcaveFunction
        eval_ = self.span("lcfun.eval", cls.eval)
        self._patch(cls, "eval", eval_)
        self._patch(cls, "__call__", eval_)
        self._patch(cls, "eval_many", self.span("lcfun.eval_many",
                                                cls.eval_many))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _run_jobs(self, run_jobs):
        """run_jobs wrapped so that each job records a span on its worker
        thread, parented to the run_jobs call that queued it."""
        tracer = self

        def body(jobs, *args, **kwargs):
            pid = tracer.current_span()
            jobs = [tracer.span(JOB, job, parent=pid) for job in jobs]
            return run_jobs(jobs, *args, **kwargs)

        return self.span("inequalities.run_jobs", body)

    # -- output --------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as numpy columns, plus the names and counters."""
        bufs = self._buffers

        def column(attr, dtype):
            return np.concatenate([np.zeros(0, dtype)] + [
                np.frombuffer(getattr(b, attr), dtype=dtype) for b in bufs])

        counts = Counter()
        for b in bufs:
            counts.update(b.counts)
        np.savez(path, id=column("ids", np.int64),
                 name=column("names", np.int64),
                 parent=column("parents", np.int64),
                 start=column("starts", np.float64),
                 end=column("ends", np.float64),
                 thread=np.concatenate([np.zeros(0, np.int64)] + [
                     np.full(len(b.ids), b.index, np.int64) for b in bufs]),
                 meta=np.array(json.dumps({"names": self._names,
                                           "counts": counts})))


def load(path) -> dict:
    with np.load(path) as z:
        t = {k: z[k] for k in ("id", "name", "parent", "start", "end",
                               "thread")}
        meta = json.loads(str(z["meta"]))
    t.update(meta)
    return t


# ---------------------------------------------------------------------------
# analysis


def self_times(ids, parents, starts, ends, threads) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children on the parent's thread nest and never overlap, so their
    durations add up.  Children on other threads (pool jobs) may overlap
    one another; their intervals are merged first.
    """
    ids = np.asarray(ids)
    starts = np.asarray(starts, float)
    ends = np.asarray(ends, float)
    threads = np.asarray(threads)
    own = ends - starts
    parents = np.asarray(parents, dtype=np.int64)
    pos = np.full(int(max(ids.max(initial=-1), parents.max(initial=-1))) + 2,
                  -1, dtype=np.int64)
    pos[ids] = np.arange(len(ids))
    pidx = pos[parents]          # a parent of -1 reads the final slot, -1
    has = pidx >= 0
    child = np.nonzero(has)[0]
    par = pidx[child]
    lo = np.maximum(starts[child], starts[par])
    hi = np.minimum(ends[child], ends[par])
    clipped = np.maximum(hi - lo, 0.0)
    cross = threads[child] != threads[par]
    merge = np.zeros(len(ids), bool)
    merge[par[cross]] = True
    simple = ~merge[par]
    covered = np.bincount(par[simple], weights=clipped[simple],
                          minlength=len(ids))
    groups: dict[int, list] = {}
    for c, p, a, b in zip(child[~simple], par[~simple], lo[~simple],
                          hi[~simple]):
        if b > a:
            groups.setdefault(int(p), []).append((a, b))
    for p, spans in groups.items():
        spans.sort()
        total, cur_a, cur_b = 0.0, spans[0][0], spans[0][1]
        for a, b in spans[1:]:
            if a > cur_b:
                total += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        covered[p] += total + (cur_b - cur_a)
    return own - covered


# (metric, unit, better, the end-to-end metric and workload it should move)
_PETTY_PROJ = "wall_s, wall_1t_s and peak_rss_mb on petty"
_RS_WALL = "wall_s and wall_1t_s on rogers-shephard"
_RS_SIGMA = "wall_s, wall_1t_s and rel_sigma_mean on rogers-shephard"
_SHARED = "wall_s on rogers-shephard (membership) and radial (volumes)"
_RADIAL = "wall_s and wall_1t_s on radial"
_POOL = "the gap between wall_s and wall_1t_s on petty and radial"
_HARNESS = "setup_s and wall_s on rogers-shephard"


def _fn(name, stats, moves):
    units = {"calls": "count", "self_s": "s", "rows": "count",
             "draws": "count", "evals": "count", "failures": "count",
             "directions": "count", "facet_dir_products": "count",
             "points": "count", "infeasible": "count", "bytes": "B",
             "exact_ratio": "ratio", "empty_ratio": "ratio",
             "near_boundary": "count", "jobs": "count", "busy_s": "s",
             "wait_s": "s", "straggler_s": "s"}
    better = {"exact_ratio": "higher"}
    return [(f"{name}.{s}", units[s], better.get(s, "lower"), moves)
            for s in stats]


PER_LAYER = (
    _fn("projection.ppb_gauge_body_many",
        ("calls", "self_s", "directions", "facet_dir_products"), _PETTY_PROJ)
    + _fn("projection.ppb_volume", ("calls", "self_s"), _PETTY_PROJ)
    + _fn("projection.ppb_body_polytope", ("calls", "self_s"), _PETTY_PROJ)
    + _fn("convexcore.facets", ("calls", "self_s", "rows"), _PETTY_PROJ)
    + _fn("numerics.sphere_sample", ("points",), _PETTY_PROJ)
    + _fn("projection.ppb_gauge_body", ("calls", "self_s"), "wall_s on radial")
    + _fn("inequalities.int_convolution", ("calls", "self_s", "draws"),
          _RS_WALL)
    + _fn("inequalities.sup_convolution", ("calls", "self_s"), _RS_WALL)
    + _fn("lcfun.eval", ("calls", "self_s"), _RS_WALL)
    + _fn("lcfun.eval_many", ("rows", "self_s"), _RS_WALL)
    + _fn("convexcore.gauge", ("calls", "self_s"), _RS_WALL)
    + _fn("convexcore.gauge_many", ("rows", "self_s"), _RS_WALL)
    + _fn("numerics.maximize_logconcave", ("calls", "self_s"), _RS_WALL)
    + _fn("covariogram.dm_support_membership", ("calls", "self_s"), _RS_SIGMA)
    + _fn("covariogram.dm_body", ("calls", "exact_ratio"), _RS_SIGMA)
    + _fn("numerics.lp_feasible_interior", ("calls", "self_s", "infeasible"),
          _RS_SIGMA)
    + _fn("convexcore.intersect_translates",
          ("calls", "self_s", "empty_ratio"), _SHARED)
    + _fn("convexcore.from_halfspaces", ("calls", "self_s"), _SHARED)
    + _fn("numerics.lp_maximize", ("calls", "self_s"), _SHARED)
    + _fn("starbodies.body_ray", ("calls", "self_s"), _RADIAL)
    + _fn("starbodies.fn_ray", ("calls", "self_s"), _RADIAL)
    + _fn("starbodies.radial_from_ray", ("calls", "self_s"), _RADIAL)
    + _fn("covariogram.covariogram_body_many", ("calls", "self_s", "rows"),
          _RADIAL)
    + _fn("covariogram.covariogram_fn", ("calls", "self_s"), _RADIAL)
    + _fn("covariogram.dm_support_radius", ("calls", "self_s"), _RADIAL)
    + _fn("numerics.integrate_1d", ("calls", "self_s", "evals", "failures"),
          _RADIAL)
    + _fn("mellin.mellin", ("calls", "self_s"), _RADIAL)
    + _fn("mellin.i_p", ("calls", "self_s"), _RADIAL)
    + _fn("mellin.berwald_g", ("calls", "self_s"), _RADIAL)
    + _fn("convexcore.volume", ("calls", "self_s"), _RADIAL)
    + _fn("inequalities.run_jobs", ("jobs", "busy_s", "wait_s", "straggler_s"),
          _POOL)
    + _fn("inequalities.make_verdict", ("calls", "near_boundary"),
          "rel_sigma_mean on every workload")
    + _fn("harness.load_config", ("self_s",), _HARNESS)
    + _fn("harness.run_config", ("calls",), _HARNESS)
    + _fn("harness.write_report", ("self_s", "bytes"), _HARNESS)
    + [("harness.self_s", "s", "lower", _HARNESS)]
)


def layer_metrics(t: dict) -> tuple[dict, dict]:
    """(per-layer metric values, self seconds per module) of a span table."""
    names = t["names"]
    counts = Counter(t["counts"])
    selfs = self_times(t["id"], t["parent"], t["start"], t["end"],
                       t["thread"])
    by_name = np.asarray(t["name"], dtype=np.int64)
    calls = np.bincount(by_name, minlength=len(names))
    self_by = np.bincount(by_name, weights=selfs, minlength=len(names))
    index = {n: i for i, n in enumerate(names)}

    def n_calls(fn):
        return int(calls[index[fn]]) if fn in index else 0

    def self_s(fn):
        return float(self_by[index[fn]]) if fn in index else 0.0

    modules: dict[str, float] = {}
    for i, n in enumerate(names):
        mod = n.split(".")[0]
        modules[mod] = modules.get(mod, 0.0) + float(self_by[i])

    jobs = {"jobs": 0, "busy_s": 0.0, "wait_s": 0.0, "straggler_s": 0.0}
    if JOB in index and "inequalities.run_jobs" in index:
        pool = index["inequalities.run_jobs"]
        ids = np.asarray(t["id"])
        start_of = dict(zip(ids[by_name == pool].tolist(),
                            np.asarray(t["start"])[by_name == pool].tolist()))
        is_job = by_name == index[JOB]
        dur = (np.asarray(t["end"]) - np.asarray(t["start"]))[is_job]
        parents = np.asarray(t["parent"])[is_job]
        starts = np.asarray(t["start"])[is_job]
        jobs["jobs"] = int(is_job.sum())
        jobs["busy_s"] = float(dur.sum())
        jobs["wait_s"] = float(sum(s - start_of[p]
                                   for s, p in zip(starts, parents)))
        slowest: dict[int, float] = {}
        for p, d in zip(parents.tolist(), dur.tolist()):
            slowest[p] = max(slowest.get(p, 0.0), d)
        jobs["straggler_s"] = float(sum(slowest.values()))

    out = {}
    for metric, _, _, _ in PER_LAYER:
        fn, stat = metric.rsplit(".", 1)
        if fn == "harness" and stat == "self_s":
            value = modules.get("harness", 0.0)
        elif stat == "calls":
            value = n_calls(fn)
        elif stat == "self_s":
            value = self_s(fn)
        elif fn == "inequalities.run_jobs":
            value = jobs[stat]
        elif stat == "exact_ratio":
            c = n_calls(fn)
            value = (c - counts[fn + ".raised"]) / c if c else 0.0
        elif stat == "empty_ratio":
            c = n_calls(fn)
            value = counts[fn + ".empty"] / c if c else 0.0
        elif stat == "failures":
            value = counts[fn + ".raised"]
        else:
            value = counts[metric]
        out[metric] = value
    return out, modules
