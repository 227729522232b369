"""Run one workload in this (fresh) process and print its result.

Started by ``run.py``; not meant to be run by hand.  ``--prepare``
only builds and loads the compiled kernel library, so no measured run
ever times a C compile.

Heavy imports happen inside :func:`main`: the sharded engine's spawned
workers re-import this file as their main module.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def _set_up(workload) -> float:
    """Build the workload from cold (empty ToF plan cache) and return
    the seconds until its first warm-up frame is delivered."""
    from repro.beamform import clear_tof_plan_cache

    gc.collect()
    clear_tof_plan_cache()
    started = time.perf_counter()
    workload.start()
    return time.perf_counter() - started


def _more_setups(workload, setups: list[float]) -> None:
    """The remaining set-ups, after the measured phase so their
    garbage never inflates its peak RSS."""
    workload.stop()
    while len(setups) < workload.setup_reps:
        setups.append(_set_up(workload))
        workload.stop()


def _ms(seconds: float) -> float:
    return seconds * 1e3


def end_to_end(workload, setups, phase, cpu_s, rss_mb) -> dict:
    """The end-to-end metrics, each printed with its sample count."""
    from harness import (
        TAIL_WINDOWS, median, samples_beyond, tail, window_tail,
    )

    n = phase.completed
    print(f"setup_s: median of {len(setups)} set-ups "
          f"{[round(s, 4) for s in setups]}")
    p50 = f"latency: n={n} p50={_ms(median(phase.latencies)):.2f} ms"
    if workload.windowed_tail:
        size, tail_s = window_tail(phase.latencies)
        beyond = sum(1 for value in phase.latencies if value > tail_s)
        print(f"{p50} tail={_ms(tail_s):.2f} ms (median of the slowest "
              f"frame of {TAIL_WINDOWS} windows of {size} frames; "
              f"{beyond} samples beyond)")
    else:
        pct, tail_s = tail(phase.latencies)
        print(f"{p50} p{pct:g}={_ms(tail_s):.2f} ms "
              f"({samples_beyond(n, pct)} samples beyond)")
    print(f"throughput: {n} frames in {phase.finished - phase.started:.3f} s")
    print(f"error_rate: {phase.failed}/{phase.attempted} frames failed")
    if phase.gen_lag:
        lag_pct, lag = tail(phase.gen_lag)
        print(f"generator lateness: n={len(phase.gen_lag)} "
              f"p50={_ms(median(phase.gen_lag)):.3f} ms "
              f"p{lag_pct:g}={_ms(lag):.3f} ms "
              f"max={_ms(max(phase.gen_lag)):.3f} ms")
    return {
        "setup_s": {"value": median(setups), "unit": "s"},
        "throughput_fps": {"value": phase.throughput_fps, "unit": "1/s"},
        "latency_p50_ms": {"value": _ms(median(phase.latencies)),
                           "unit": "ms"},
        "latency_tail_ms": {"value": _ms(tail_s), "unit": "ms"},
        "cpu_ms_per_frame": {"value": _ms(cpu_s / n), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    from repro.backend.cnative.lib import load_kernels

    load_kernels()
    if args.prepare:
        return 0

    import harness
    from workloads import PARTS_TOLERANCE, WORKLOADS, SpanRecorder

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    print("fingerprint: " + json.dumps(harness.fingerprint()))
    workload = WORKLOADS[args.workload](args.seed)
    try:
        setups = [_set_up(workload)]
        workload.prepare_checks()
        workload.warm()
        n = workload.n_frames(args.seconds)
        if not args.trace:
            workload.burst()
            cpu_before = harness.tree_cpu_s()
            phase = workload.drive(n, SpanRecorder(enabled=False))
            cpu_s = harness.cpu_between(cpu_before, harness.tree_cpu_s())
            rss_mb = harness.tree_peak_rss_mb()
            _more_setups(workload, setups)
            metrics = end_to_end(workload, setups, phase, cpu_s, rss_mb)
            expected = {m["name"] for m in spec["end_to_end"]}
            if set(metrics) != expected:
                raise RuntimeError(
                    f"metrics {sorted(metrics)} != BENCHMARK.json "
                    f"{sorted(expected)}"
                )
        else:
            half = workload.n_frames(args.seconds / 2)
            untraced = workload.drive(half, SpanRecorder(enabled=False))
            recorder = SpanRecorder(enabled=True)
            phase = workload.drive(half, recorder)
            layer = workload.layers(recorder, phase)
            _more_setups(workload, setups)
            layer.update(workload.setup_layers())
            layer["obs.trace_overhead"] = (
                untraced.throughput_fps / phase.throughput_fps
            )
            if phase.gen_lag:
                layer["harness.gen_lag_tail_ms"] = _ms(
                    harness.tail(untraced.gen_lag + phase.gen_lag)[1]
                )
            self_s = recorder.self_times()
            for name in sorted(self_s):
                durations = recorder.durations(name)
                print(f"span {name}: n={len(durations)} "
                      f"median={_ms(harness.median(durations)):.3f} ms "
                      f"self total={_ms(self_s[name]):.1f} ms")
            print("kernels seen: " + json.dumps(workload.kernels_seen))
            gap = layer.pop("nn.tiny_vbf.parts_gap", None)
            if gap is not None:
                print(f"tiny_vbf parts sum / whole forward - 1 = {gap:+.3f} "
                      f"(tolerance +-{PARTS_TOLERANCE})")
            skipped = sorted(set(layer_units) - set(layer))
            print(f"not on this workload's path (reported as 0): {skipped}")
            metrics = {
                name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                for name, unit in layer_units.items()
            }
            if args.trace_out:
                Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
                Path(args.trace_out).write_text(json.dumps({
                    "spans": recorder.spans,
                    "self_time_s": self_s,
                }))
    finally:
        workload.stop()

    failed = phase.failed
    conserved = phase.attempted == phase.completed + phase.failed
    if not conserved:
        workload.fail("frames not conserved: attempted != completed + failed")
    for problem in workload.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not workload.problems,
        "attempted": phase.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
