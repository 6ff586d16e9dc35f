"""One fresh process of the benchmark: import mthorder, validate the
configs, then (for a timed or traced pass) run them one after another
through the CLI.

    python3 perfbench/worker.py --configs LIST --result OUT.json
        [--out REPORTS [--passes default,1] [--warmup] [--budget SECONDS]
         [--min-rounds N]] [--spans SPANS.npz]

LIST holds one config path per line.  Without --out the process stops
after validation (a set-up sample).  With --out it runs rounds, after
one `warmup` sequence of the first pass if asked: in each round, every
pass named in --passes runs the whole config sequence once, in the order
given.  A pass is `default` (MTHORDER_THREADS unset) or a thread count.
Rounds repeat until at least --min-rounds are done and another round no
longer fits in --budget seconds, warm-up included.  Each pass's reports
go to REPORTS/<pass>/<config>, later rounds overwriting earlier ones.
With --spans the tracer wraps the program before validation and writes
its spans there at the end.

The result file records when the process was ready for its first job
(`time.monotonic`, comparable with the parent's clock), every sequence
with its pass, wall time and per-config exit codes, times and
verdicts.json digests, the peak RSS after the first sequence and at the
end, and the default thread count.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import time
import traceback
from pathlib import Path


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_pass(label: str) -> None:
    if label == "default":
        os.environ.pop("MTHORDER_THREADS", None)
    else:
        os.environ["MTHORDER_THREADS"] = str(int(label))


def run_sequence(call, paths, out: Path, label: str) -> dict:
    """Every config once, in order; per-config exit codes, times and
    verdicts.json digests."""
    set_pass(label)
    runs = []
    t_seq = time.perf_counter()
    for path in paths:
        name = Path(path).stem
        t0 = time.perf_counter()
        try:
            code, error = call(["run", path, "--out", str(out / name)]), None
        except (Exception, SystemExit) as e:        # reported as a failure
            code, error = None, "".join(
                traceback.format_exception_only(type(e), e)).strip()
        wall = time.perf_counter() - t0
        verdicts = out / name / "verdicts.json"
        digest = (hashlib.sha256(verdicts.read_bytes()).hexdigest()
                  if code == 0 and verdicts.is_file() else None)
        runs.append({"name": name, "code": code, "error": error,
                     "wall_s": wall, "sha256": digest})
    return {"pass": label, "wall_s": time.perf_counter() - t_seq,
            "runs": runs}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--configs", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--out")
    ap.add_argument("--passes", default="default")
    ap.add_argument("--spans")
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--min-rounds", type=int, default=1)
    ap.add_argument("--warmup", action="store_true")
    args = ap.parse_args()
    paths = Path(args.configs).read_text().split()
    passes = args.passes.split(",")

    import mthorder
    from mthorder import cli, harness

    tracer = None
    if args.spans:
        import tracer as tracing            # this script's own directory
        tracer = tracing.Tracer()
        tracer.install(mthorder)
    for path in paths:
        harness.load_config(path)
    ready = time.monotonic()

    reps = []
    first_rss = None
    if args.out:
        call = cli.main if tracer is None else tracer.span(tracing.ROOT,
                                                           cli.main)
        t_first = time.perf_counter()
        if args.warmup:
            reps.append(run_sequence(call, paths, Path(args.out) / "warmup",
                                     passes[0]))
            reps[-1]["pass"] = "warmup"
            first_rss = peak_rss_mb()
        rounds = 0
        while True:
            t_round = time.perf_counter()
            for label in passes:
                reps.append(run_sequence(call, paths,
                                         Path(args.out) / label, label))
                if first_rss is None:
                    first_rss = peak_rss_mb()
            rounds += 1
            spent = time.perf_counter() - t_first
            last = time.perf_counter() - t_round
            if rounds >= args.min_rounds and spent + last > args.budget:
                break
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.spans)

    set_pass("default")
    Path(args.result).write_text(json.dumps({
        "ready": ready, "reps": reps,
        "first_peak_rss_mb": first_rss, "peak_rss_mb": peak_rss_mb(),
        "threads": harness.resolve_threads(None),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
