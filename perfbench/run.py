"""Verdict-sweep benchmark for mthorder.

    python3 perfbench/run.py --workload petty|rogers-shephard|radial \
        --seed N --seconds S --trace 0|1

Run from a source checkout (it imports `src/mthorder`).  The workload's
configs are generated from the seed and fed, one after another, through
`mthorder.cli.main(["run", cfg, "--out", dir])` in a fresh process: a
closed loop with one client.  Worker processes have the BLAS/OpenMP
pools pinned to one thread, so the job pool's threads are the only
compute threads.

--trace 0 starts a few processes that only import and validate (set-up
samples), then one worker that runs rounds until --seconds are used up
(at least two) after one untimed warm-up sequence: each round runs the
config sequence with MTHORDER_THREADS=1 and then at the default thread
count.  wall_s and wall_1t_s are the mean sequence time of their pass.
On shared 2-vCPU hosts the CPU speed switches between fast and slow
spells lasting seconds; across runs, the mean of a run's sequences
spread less than their fastest and no more than their median.  --trace
1 runs one untraced and one traced sequence at the default thread count
and reports per-layer metrics.  Both modes check every verdict (see
`check_run`) and require verdicts.json to be byte-identical across every
sequence.  The last line of standard output is one JSON object with the
result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_ONLY = 2        # set-up-only processes per timed run
MIN_ROUNDS = 2        # rounds of (single-thread, default) sequences
WORKER_START_S = 1.0  # allowance for the timed worker's import
DEADLINE_S = 170.0    # every run ends (or fails) before 180 s
PINNED_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("wall_1t_s", "s"),
    ("peak_rss_mb", "MB"), ("rel_sigma_mean", "ratio"), ("ok_ratio", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MTHORDER_THREADS", None)      # the worker sets it per pass
    for key in PINNED_POOLS:
        env[key] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts worker processes one at a time, each with its own files."""

    def __init__(self, work: Path, config_list: Path, t_start: float):
        self.work = work
        self.config_list = config_list
        self.deadline = t_start + DEADLINE_S
        self.count = 0

    def spawn(self, label: str, reports: bool = True, passes: str = "default",
              warmup: bool = False, budget: float = 0.0, min_rounds: int = 1,
              spans: Path | None = None) -> dict:
        self.count += 1
        tag = f"{self.count:02d}-{label}"
        result = self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--configs", str(self.config_list), "--result", str(result)]
        out = self.work / tag if reports else None
        if out is not None:
            cmd += ["--out", str(out), "--passes", passes,
                    "--budget", str(budget), "--min-rounds", str(min_rounds)]
            if warmup:
                cmd.append("--warmup")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        log = self.work / f"{tag}.log"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before {tag}")
        t0 = time.monotonic()
        with open(log, "w") as fh:
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    env=child_env(), cwd=ROOT)
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{tag} did not finish in time") from None
        if proc.returncode != 0:
            tail = log.read_text()[-2000:]
            raise BenchError(f"{tag} exited with {proc.returncode}:\n{tail}")
        data = json.loads(result.read_text())
        data["setup_s"] = data["ready"] - t0
        data["out"] = out
        return data


# ---------------------------------------------------------------------------
# output checks


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def report_path(data: dict, cfg) -> Path:
    """The verdicts.json of a config from the first pass of a process."""
    return data["out"] / data["reps"][0]["pass"] / cfg.name / "verdicts.json"


def check_run(configs, datas: list, tally: dict, problems: list) -> None:
    """Check every sequence of one or more worker processes.

    A config fails when it exits non-zero (1 violated, 2 config error,
    3 numeric failure) or raises in any sequence.  Each verdict of its
    report fails when a side is not finite, when it is violated, or when
    a pinned status differs.  Its verdicts.json must be byte-identical
    (same SHA-256) in every sequence of every process, whatever the
    thread count.
    """
    for i, cfg in enumerate(configs):
        runs = [rep["runs"][i] for data in datas for rep in data["reps"]]
        bad_runs = [r for r in runs if r["code"] != 0]
        if bad_runs:
            tally["attempted"] += 1
            tally["failed"] += 1
            run = bad_runs[0]
            problems.append(f"{cfg.name}: exit {run['code']} {run['error'] or ''}")
            continue
        verdicts = json.loads(report_path(datas[0], cfg).read_bytes())["verdicts"]
        seen = set()
        for v in verdicts:
            seen.add(v["name"])
            tally["attempted"] += 1
            want = cfg.pins.get(v["name"])
            bad = None
            if not (_finite(v["lhs"]["value"]) and _finite(v["rhs"]["value"])):
                bad = "non-finite side"
            elif v["status"] == workloads.VIOLATED:
                bad = "violated"
            elif want is not None and v["status"] != want:
                bad = f"status {v['status']}, expected {want}"
            if bad:
                tally["failed"] += 1
                problems.append(f"{cfg.name}: {v['name']}: {bad}")
        for name in sorted(set(cfg.pins) - seen):
            tally["attempted"] += 1
            tally["failed"] += 1
            problems.append(f"{cfg.name}: pinned verdict {name} missing")
        tally["attempted"] += 1
        if len({r["sha256"] for r in runs}) != 1:
            tally["failed"] += 1
            problems.append(f"{cfg.name}: verdicts.json differs between "
                            f"{len(runs)} sequences")


def rel_sigma_mean(configs, data: dict, seeded: bool) -> float:
    """Mean of sigma_combined / max(|lhs|, |rhs|) over the verdicts of the
    fixed-input configs (seeded=False) or of the seed-generated ones."""
    ratios = []
    for cfg in configs:
        path = report_path(data, cfg)
        if cfg.seeded != seeded or not path.is_file():
            continue
        for v in json.loads(path.read_text())["verdicts"]:
            lhs, rhs = v["lhs"]["value"], v["rhs"]["value"]
            if not (_finite(lhs) and _finite(rhs)):
                continue
            scale = max(abs(lhs), abs(rhs))
            ratios.append(v["sigma_combined"] / scale if scale > 0 else 0.0)
    return statistics.fmean(ratios) if ratios else 0.0


# ---------------------------------------------------------------------------
# reporting


def summary(values) -> str:
    """Median, the highest percentile with at least ten samples beyond
    it, and the sample count."""
    vals = sorted(values)
    n = len(vals)
    text = f"median {statistics.median(vals):.6g}"
    q = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if q >= 50:
        text += f"  p{q} {vals[min(n - 1, math.ceil(q / 100 * n) - 1)]:.6g}"
    else:
        text += "  (no percentile has 10 samples beyond it)"
    return text + f"  n={n}"


def environment() -> dict:
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "mthorder").glob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "src_mthorder_lines": lines,
            "pinned_to_1": list(PINNED_POOLS)}


def sequences(data: dict, label: str) -> list:
    return [rep for rep in data["reps"] if rep["pass"] == label]


def mean_sequence_s(data: dict, label: str) -> float:
    """The pass's total time over its number of sequences."""
    return statistics.fmean(rep["wall_s"] for rep in sequences(data, label))


def print_configs(configs, columns: dict) -> None:
    """Per-config mean and fastest time, over the sequences of each
    (process, pass) column, and the exit codes seen."""
    print(f"{'config':28s} " + " ".join(f"{k:>30s}" for k in columns))
    for i, cfg in enumerate(configs):
        cells = []
        for data, label in columns.values():
            runs = [rep["runs"][i] for rep in sequences(data, label)]
            codes = sorted({r["code"] for r in runs}, key=str)
            times = [r["wall_s"] for r in runs]
            cells.append(f"mean {statistics.fmean(times):7.3f}s best "
                         f"{min(times):7.3f}s exit "
                         f"{','.join(map(str, codes))}")
        print(f"{cfg.name:28s} " + " ".join(f"{c:>30s}" for c in cells))


# ---------------------------------------------------------------------------
# the two modes


def timed(runner: Runner, configs, seconds: int, t_start: float, tally,
          problems) -> dict:
    setups = [runner.spawn("setup", reports=False)["setup_s"]
              for _ in range(SETUP_ONLY)]
    budget = max(0.0, seconds - (time.monotonic() - t_start) - WORKER_START_S)
    data = runner.spawn("timed", passes="1,default", warmup=True,
                        budget=budget, min_rounds=MIN_ROUNDS)
    setups.append(data["setup_s"])
    check_run(configs, [data], tally, problems)
    sigma = rel_sigma_mean(configs, data, seeded=False)
    print(f"rel_sigma_mean of the seed-generated configs (not a metric): "
          f"{rel_sigma_mean(configs, data, seeded=True):.6g}")
    shutil.rmtree(data["out"], ignore_errors=True)
    print(f"threads: default {data['threads']}, single 1; rounds: "
          f"{len(sequences(data, 'default'))}; peak RSS at the end, after "
          f"default-thread sequences too (not a metric): "
          f"{data['peak_rss_mb']:.1f} MB")
    print_configs(configs, {"1thread": (data, "1"),
                            "default": (data, "default")})
    ok = 1.0 - tally["failed"] / tally["attempted"]
    values = {"setup_s": statistics.median(setups),
              "wall_s": mean_sequence_s(data, "default"),
              "wall_1t_s": mean_sequence_s(data, "1"),
              "peak_rss_mb": data["first_peak_rss_mb"],
              "rel_sigma_mean": sigma, "ok_ratio": ok}
    samples = {"setup_s": setups,
               "wall_s": [r["wall_s"] for r in sequences(data, "default")],
               "wall_1t_s": [r["wall_s"] for r in sequences(data, "1")]}
    print(f"{'metric':16s} {'value':>14s} {'unit':6s} samples")
    for name, unit in END_TO_END:
        text = summary(samples[name]) if name in samples else "one sample"
        print(f"{name:16s} {values[name]:14.6g} {unit:6s} {text}")
    for label in ("default", "1"):
        print(f"sequence walls, pass {label}: " + " ".join(
            f"{r['wall_s']:.4f}" for r in sequences(data, label)))
    print(f"failed_ratio     {tally['failed'] / tally['attempted']:14.6g} "
          f"ratio  ({tally['failed']} of {tally['attempted']} operations)")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def traced(runner: Runner, configs, workload: str, tally, problems) -> dict:
    import tracer
    plain = runner.spawn("untraced")
    spans = WORK / f"spans-{workload}.npz"
    data = runner.spawn("traced", spans=spans)
    check_run(configs, [plain, data], tally, problems)
    for d in (plain, data):
        shutil.rmtree(d["out"], ignore_errors=True)
    print_configs(configs, {"untraced": (plain, "default"),
                            "traced": (data, "default")})
    values, modules = tracer.layer_metrics(tracer.load(spans))
    total = sum(modules.values())
    traced_s, plain_s = data["reps"][0]["wall_s"], plain["reps"][0]["wall_s"]
    print(f"tracing overhead: traced wall {traced_s:.3f} s / untraced "
          f"{plain_s:.3f} s = {traced_s / plain_s:.3f}")
    print(f"spans written to {spans.relative_to(ROOT)}")
    print("self time by module:")
    for mod, s in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  {mod:14s} {s:10.3f} s  {100 * s / total:5.1f}%")
    print(f"{'per-layer metric':52s} {'value':>14s} {'unit':6s} should move")
    for name, unit, _, moves in tracer.PER_LAYER:
        print(f"{name:52s} {values[name]:14.6g} {unit:6s} {moves}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in tracer.PER_LAYER}


def main(argv=None) -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(
        workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "mthorder" / "__init__.py").is_file():
        print(f"perfbench: no mthorder sources under {SRC}", file=sys.stderr)
        return 2

    configs = workloads.build(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    paths = []
    for cfg in configs:
        path = work / "configs" / f"{cfg.name}.json"
        path.write_text(json.dumps(cfg.raw, indent=1, sort_keys=True))
        paths.append(str(path))
    config_list = work / "configs.txt"
    config_list.write_text("\n".join(paths) + "\n")

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    tally = {"attempted": 0, "failed": 0}
    problems: list[str] = []
    runner = Runner(work, config_list, t_start)
    try:
        if args.trace:
            metrics = traced(runner, configs, args.workload, tally, problems)
        else:
            metrics = timed(runner, configs, args.seconds, t_start, tally,
                            problems)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(f"FAILED {line}")
    print(f"checks: {tally['attempted']} operations, {tally['failed']} failed")
    print(json.dumps({"correct": tally["failed"] == 0,
                      "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
