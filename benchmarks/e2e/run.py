#!/usr/bin/env python3
"""One wall-clock benchmark for the whole stack.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S | --reps K]
                                  [--trace 0|1] [--quick] [--out FILE] [--trace-out FILE]

With ``--workload`` and ``--trace`` it measures that one workload in this
process and ends its standard output with one JSON object (the form the
benchmark contract in ``BENCHMARK.json`` is driven through).  Otherwise it
runs every selected workload twice, each time in a fresh process of its own --
once untraced for the end-to-end metrics, once traced for the per-layer
ledger -- and prints every metric by name with its unit.

See ``README.md`` next to this file for what is measured and how.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC_PATH = REPO / "BENCHMARK.json"

# At least this many timed reps, however long one takes.
MIN_REPS = 3


def bootstrap() -> None:
    """Pin BLAS to one thread and put ``repro`` and this directory on the path.

    Must run before NumPy is first imported: unpinned OpenBLAS on a 2-core
    host moves a rep by +-30 %.
    """
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    for path in (str(REPO / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    return json.loads(SPEC_PATH.read_text())


def declared(section: list[dict], values: dict[str, dict]) -> dict[str, dict]:
    """``values`` restricted to, and required to cover, the declared metrics."""
    return {m["name"]: {**values[m["name"]], "unit": m["unit"]} for m in section}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    reps: int | None,
    trace: bool,
    quick: bool,
    trace_out: str | None,
) -> dict:
    """Measure one workload in this process; returns its record.

    One discarded cold rep, then timed reps -- ``reps`` of them, or as many as
    fit in ``seconds`` (at least ``MIN_REPS``) -- then, with ``trace``, one
    more rep with spans on.  A rep that raises aborts the run.
    """
    bootstrap()
    from ledger import per_layer_metrics
    from spans import Tracer
    from stats import calibration_gemm_gflops
    from workloads import WORKLOADS, RepClock

    spec = load_spec()
    workload = WORKLOADS[name]
    size = workload.quick if quick else workload.full
    gflops = calibration_gemm_gflops()

    def one_rep(tracer=None):
        gc.collect()
        clock = RepClock(tracer)
        return clock, workload.run(seed, size, clock)

    started = time.perf_counter()
    _, cold = one_rep()
    cold_wall = time.perf_counter() - started

    # The traced rep costs about as much as an untraced one; leave room for it.
    reserve = 2 if trace else 1
    timed: list[tuple] = []
    window_start = time.perf_counter()
    while True:
        if reps is not None:
            if len(timed) >= reps:
                break
        elif len(timed) >= MIN_REPS:
            typical = statistics.median([c.setup_s + c.run_s for c, _ in timed])
            if time.perf_counter() - window_start + reserve * typical > seconds:
                break
        timed.append(one_rep())

    walls = [c.setup_s + c.run_s for c, _ in timed]
    outcomes = [o for _, o in timed]
    if trace:
        tracer = Tracer()
        tracer.wrap_boundaries()
        try:
            traced_clock, traced = one_rep(tracer)
        finally:
            tracer.unwrap()
        outcomes.append(traced)
        if trace_out:
            tracer.write_chrome_trace(trace_out, name)
        ledger = per_layer_metrics(
            tracer,
            traced,
            traced_wall_s=traced_clock.setup_s + traced_clock.run_s,
            untraced_wall_s=statistics.median(walls),
            cold_wall_s=cold_wall,
            calib_gemm_gflops=gflops,
        )
        values = {metric: {"value": value} for metric, value in ledger.items()}
        metrics = declared(spec["per_layer"], values)
    else:
        series = {
            "ops_per_s": [cold.ops / wall for wall in walls],
            "setup_s": [c.setup_s for c, _ in timed],
            "run_s": [c.run_s for c, _ in timed],
            # Linux reports ru_maxrss in KiB: this process's high-water mark.
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        }
        values = {k: {"value": statistics.median(v), "values": v} for k, v in series.items()}
        # Operations over the median rep, not the median of per-rep rates.
        values["ops_per_s"]["value"] = cold.ops / statistics.median(walls)
        metrics = declared(spec["end_to_end"], values)

    # Correctness: each rep's own conservation checks, and every rep of the
    # run (the cold one included) must have produced the same digest.
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.ops if o.digest != cold.digest else o.failed for o in outcomes)
    failed += cold.failed
    return {
        "workload": name,
        "seed": seed,
        "quick": quick,
        "trace": int(trace),
        "reps": len(timed),
        "cold_wall_s": cold_wall,
        "calib_gemm_gflops": gflops,
        "digest": cold.digest,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_share": failed / attempted,
        "metrics": metrics,
    }


def contract_line(record: dict) -> str:
    """The JSON object the benchmark contract wants as the last line."""
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in record["metrics"].items()
            },
        }
    )


def print_record(record: dict) -> None:
    """Every metric of one record by name, with its unit."""
    kind = "per-layer ledger (one traced rep)" if record["trace"] else "end to end"
    print(
        f"\n== {record['workload']} | {kind} | seed {record['seed']} | "
        f"{record['reps']} timed reps after 1 cold ({record['cold_wall_s']:.2f} s)"
        f"{' | quick sizes' if record['quick'] else ''}"
    )
    for name, metric in record["metrics"].items():
        line = f"  {name:<32s} {metric['value']:>16.6g} {metric['unit']}"
        spread = metric.get("values")
        if spread and len(spread) > 1:
            line += f"   median of {len(spread)} [min {min(spread):.6g}, max {max(spread):.6g}]"
        print(line)
    print(
        f"  failed_ops_share {record['failed_ops_share']:g} "
        f"({record['failed']} of {record['attempted']} operations) | "
        f"sim_digest {record['digest']}"
    )


def _child(connection, kwargs: dict) -> None:
    connection.send(run_workload(**kwargs))
    connection.close()


def run_in_fresh_process(kwargs: dict) -> dict:
    """``run_workload`` in a spawned process, so peak RSS is that run's own."""
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_child, args=(sender, kwargs))
    process.start()
    sender.close()
    try:
        record = receiver.recv()
    except EOFError:
        raise SystemExit(f"{kwargs['name']}: the benchmark process died without a result")
    finally:
        process.join()
    return record


def host_info() -> dict:
    """What the numbers were measured on."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": 1,
    }


def main(argv: list[str] | None = None) -> int:
    bootstrap()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(spec["run_seconds"]),
        help="length of the timed window per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--reps", type=int, help="timed reps per run, instead of --seconds")
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="with --workload: measure in this process, 0 = end-to-end metrics, "
        "1 = per-layer ledger, and end with the contract's JSON line",
    )
    parser.add_argument("--quick", action="store_true", help="one rep at smoke-test sizes")
    parser.add_argument(
        "--out", help="without --trace: write every record and the host description as JSON"
    )
    parser.add_argument("--trace-out", help="write the traced rep's spans (Chrome trace JSON)")
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.quick and args.reps is None:
        args.reps = 1

    common = {
        "seed": args.seed,
        "seconds": args.seconds,
        "reps": args.reps,
        "quick": args.quick,
    }
    if args.workload and args.trace is not None:
        record = run_workload(
            name=args.workload, trace=bool(args.trace), trace_out=args.trace_out, **common
        )
        print_record(record)
        print(contract_line(record))
        return 1 if record["failed"] else 0

    selected = [args.workload] if args.workload else names
    results: dict[str, dict] = {}
    failed = 0
    for name in selected:
        trace_out = None
        if args.trace_out:
            path = Path(args.trace_out)
            trace_out = str(path.with_name(f"{path.stem}.{name}{path.suffix}"))
        untraced = run_in_fresh_process(
            {"name": name, "trace": False, "trace_out": None, **common}
        )
        print_record(untraced)
        traced = run_in_fresh_process(
            {"name": name, "trace": True, "trace_out": trace_out, **common}
        )
        print_record(traced)
        if traced["digest"] != untraced["digest"]:
            print(f"  MISMATCH: traced and untraced runs of {name} disagree on sim_digest")
            failed += traced["attempted"]
        failed += untraced["failed"] + traced["failed"]
        results[name] = {"end_to_end": untraced, "per_layer": traced}
    if args.out:
        from stats import write_json

        write_json(
            args.out,
            {"benchmark": "e2e", "host": host_info(), "seed": args.seed, "workloads": results},
        )
    print(f"\n{'FAILED' if failed else 'ok'}: {failed} failed operations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
