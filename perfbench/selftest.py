"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists the workloads and metrics the code
reports, that the generator is deterministic per seed, that self time is
right on a synthetic span tree, that the tracer puts back every original
function, and that the work counters repeat exactly across two traced
runs of the same configs.  Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import run
import tracer
import workloads


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok   {what}")


def test_generator() -> None:
    for name in workloads.WORKLOADS:
        a = [json.dumps(c.raw, sort_keys=True) for c in workloads.build(name, 7)]
        b = [json.dumps(c.raw, sort_keys=True) for c in workloads.build(name, 7)]
        c = [json.dumps(c.raw, sort_keys=True) for c in workloads.build(name, 8)]
        check(a == b, f"{name}: same seed gives the same configs")
        check(a != c, f"{name}: another seed gives other configs")


def test_self_time() -> None:
    # id: (parent, start, end, thread)
    spans = {
        0: (-1, 0.0, 10.0, 0),   # root; children on its thread and on 1, 2
        1: (0, 1.0, 4.0, 0),
        2: (1, 2.0, 3.0, 0),
        3: (0, 5.0, 6.0, 0),
        4: (0, 2.0, 8.0, 1),     # overlaps 1, 3 and 5
        5: (0, 3.0, 9.0, 2),
        6: (5, 4.0, 12.0, 2),    # runs past its parent's end: clipped
        7: (-1, 20.0, 21.0, 0),
    }
    want = {0: 10.0 - 8.0, 1: 3.0 - 1.0, 2: 1.0, 3: 1.0, 4: 6.0,
            5: 6.0 - 5.0, 6: 8.0, 7: 1.0}
    order = [6, 2, 1, 3, 4, 0, 7, 5]      # spans are recorded out of order
    got = tracer.self_times(
        order, [spans[i][0] for i in order], [spans[i][1] for i in order],
        [spans[i][2] for i in order], [spans[i][3] for i in order])
    check(np.allclose(got, [want[i] for i in order]),
          "self time on a synthetic span tree")


def test_restore() -> None:
    sys.path.insert(0, str(run.SRC))
    import mthorder
    from mthorder import lcfun
    for name in tracer.MODULES:
        __import__(f"mthorder.{name}")
    before = {m: dict(vars(getattr(mthorder, m))) for m in tracer.MODULES}
    cls_before = dict(vars(lcfun.LogConcaveFunction))
    t = tracer.Tracer()
    t.install(mthorder)
    check(mthorder.numerics.integrate_1d is not before["numerics"]["integrate_1d"]
          and mthorder.mellin.integrate_1d is mthorder.numerics.integrate_1d,
          "by-name imports are rebound to the wrapper")
    t.uninstall()
    same = all(vars(getattr(mthorder, m))[k] is v
               for m, d in before.items() for k, v in d.items())
    same_cls = all(vars(lcfun.LogConcaveFunction)[k] is v
                   for k, v in cls_before.items())
    check(same and same_cls, "uninstall restores every original")


def _mini_configs(seed: int):
    """A few seconds of work that reaches every traced layer."""
    gen = np.random.default_rng([seed, 99])
    return [
        workloads._catalog("matheron"),
        workloads._catalog("rs-bodies"),
        workloads._check("zhang-body-square", "zhang-body",
                         body={"kind": "cube", "dim": 2}, m=2, directions=200),
        workloads._check("rs-body-quad", "rs-body", seed=seed,
                         body={"kind": "vertices", "dim": 2,
                               "points": workloads.random_polygon(gen, 4)},
                         m=2, samples=100),
        workloads._check("rs-multi", "rs-multi", seed=seed,
                         functions=workloads.random_triple(gen),
                         samples=10, inner_samples=200),
        workloads._check("chain-interval", "chain",
                         body={"kind": "simplex", "dim": 1}, m=1,
                         p_grid=[0.5, 1.0], directions=2),
    ]


def test_counters_repeat() -> None:
    configs = _mini_configs(3)
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    paths = []
    for cfg in configs:
        p = work / "configs" / f"{cfg.name}.json"
        p.write_text(json.dumps(cfg.raw))
        paths.append(str(p))
    (work / "list.txt").write_text("\n".join(paths))
    runner = run.Runner(work, work / "list.txt", run.time.monotonic())
    counted = [name for name, unit, _, _ in tracer.PER_LAYER
               if unit in ("count", "B", "ratio")]
    seen = []
    try:
        for k in range(2):
            spans = work / f"spans{k}.npz"
            data = runner.spawn(f"traced{k}", spans=spans)
            check(all(r["code"] == 0 for r in data["reps"][0]["runs"]),
                  f"traced run {k} exits 0 on every config")
            values, _ = tracer.layer_metrics(tracer.load(spans))
            seen.append({n: values[n] for n in counted})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    diff = {n: (seen[0][n], seen[1][n]) for n in counted
            if seen[0][n] != seen[1][n]}
    check(not diff, f"{len(counted)} counters repeat exactly {diff or ''}")
    nonzero = sorted(n for n in counted if seen[0][n])
    check(len(nonzero) >= 20, f"{len(nonzero)} counters are non-zero")


def test_benchmark_json() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in doc["end_to_end"]]
          == list(run.END_TO_END), "BENCHMARK.json lists the end-to-end metrics")
    check([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
          == [(n, u, b) for n, u, b, _ in tracer.PER_LAYER],
          "BENCHMARK.json lists the per-layer metrics")
    check(sorted(w["name"] for w in doc["workloads"])
          == sorted(workloads.WORKLOADS), "BENCHMARK.json lists the workloads")


def main() -> int:
    test_benchmark_json()
    test_generator()
    test_self_time()
    test_restore()
    test_counters_repeat()
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
