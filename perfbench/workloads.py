"""The four benchmark workloads.

Each workload generates its inputs from the seed before anything is
timed, builds its system in :meth:`Workload.start` (the span
``setup_s`` measures), drives a fixed number of frames through it in
:meth:`Workload.drive`, and checks every output it receives.  The
program sees only generated RF frames and datasets.  Frame counts are
derived from the run length and a per-workload nominal rate, so a given
``--seconds`` always means the same amount of work and the same tail
statistic.

The structure of the work (geometries, model mix, batch sizes, frame
counts) does not depend on the seed; the seed only changes the
simulated scenes, so runs with different seeds measure the same cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.api import (
    create_beamformer,
    dataset_tof_plan,
    normalized_tofc,
)
from repro.beamform import TofPlan, tof_plan_cache_stats
from repro.beamform.tof import analytic_rf
from repro.fpga.scheduler import schedule_tiny_vbf
from repro.gateway import GatewayClient, GatewayRejected, GatewayServer
from repro.gateway.protocol import (
    array_header,
    array_payload,
    dataset_geometry,
    decode_array,
    pack_message,
)
from repro.models.registry import build_model, model_input
from repro.nn import Sequential
from repro.obs import MetricsRegistry
from repro.obs.profile import (
    KERNEL_METRIC,
    disable_kernel_profiling,
    enable_kernel_profiling,
)
from repro.quant.qexec import QuantizedModel
from repro.quant.schemes import SCHEMES
from repro.serve import ReplaySource, ServeEngine, ShardedServeEngine
from repro.ultrasound import (
    phantom_contrast,
    phantom_resolution,
    simulation_contrast,
    simulation_resolution,
)
from repro.ultrasound.acquisition import simulate_rf
from repro.ultrasound.datasets import acquisition_for
from repro.ultrasound.noise import in_vitro_impairments
from repro.ultrasound.streaming import stream_gain_drift

from harness import SpanRecorder, median

#: The parts of one Tiny-VBF forward timed in the traced run.
VBF_PARTS = (
    "pixel_encoder", "patch_embed", "block0", "block1", "token_dense",
    "head",
)
#: Allowed relative gap between the summed parts and the whole forward,
#: each taken at its fastest repetition.  The parts are timed from
#: outside with the same Dense->ReLU fusion, so the gap is timer noise
#: plus call overhead; at batch 1 on ``cnative`` (a 20 ms forward made
#: of 1-6 ms parts) it ranged from -0.17 to +0.22 on a 2-core host.
#: A missing or repeated part is caught by the bitwise output check.
PARTS_TOLERANCE = 0.5

_NULL = SpanRecorder(enabled=False)


@dataclass
class Phase:
    """What one timed phase measured."""

    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0
    #: open loop only: how late each send was against its due time
    gen_lag: list[float] = field(default_factory=list)
    #: gateway only: latency from the actual send, not the due time
    sent_latencies: list[float] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def throughput_fps(self) -> float:
        return self.completed / (self.finished - self.started)


def _pool(base, n: int, seed: int) -> list:
    """``n`` same-geometry frames of one scene (1% gain drift)."""
    return list(stream_gain_drift(base, n, seed=seed))


def _steered(base, angle_deg: float, seed: int):
    """``base``'s scene re-simulated with a steered plane wave."""
    angle = float(np.deg2rad(angle_deg))
    acquisition = acquisition_for(base.probe, base.medium, base.grid)
    rf = simulate_rf(acquisition, base.phantom, angle_rad=angle)
    if base.spec.in_vitro:
        rf = in_vitro_impairments(rf, seed=seed)
    return replace(base, rf=rf, angle_rad=angle)


def _hit_ratio(before: dict, after: dict) -> float:
    """Plan-cache hits / lookups between two ``tof_plan_cache_stats``."""
    hits = after["hits"] - before["hits"]
    return hits / max(1, hits + after["misses"] - before["misses"])


def _plan_args(dataset) -> tuple:
    return (dataset.probe, dataset.grid, int(dataset.rf.shape[0]),
            dataset.angle_rad, dataset.sound_speed_m_s, dataset.t_start_s)


class Workload:
    """Base class: inputs, set-up, timed drive, checks, layer probes."""

    name = ""
    #: set-ups per run; ``setup_s`` is their median
    setup_reps = 5
    #: nominal frames/s used to turn ``--seconds`` into a frame count
    nominal_fps = 10.0
    #: frame counts are rounded to a multiple of this
    frame_quantum = 1
    #: backend the workload's learned path runs on (None: default)
    backend: str | None = None
    #: report the tail as :func:`harness.window_tail` (open loop) rather
    #: than the percentile rule of :func:`harness.tail` (closed loop,
    #: where a host stall delays only the frame in flight)
    windowed_tail = False

    def __init__(self, seed: int) -> None:
        self.problems: list[str] = []

    def n_frames(self, seconds: float) -> int:
        quantum = self.frame_quantum
        return max(quantum, quantum * round(
            seconds * self.nominal_fps / quantum
        ))

    def start(self) -> None:
        """Build the system and deliver the first warm-up frame."""
        raise NotImplementedError

    def stop(self) -> None:
        """Tear down everything :meth:`start` built."""

    def prepare_checks(self) -> None:
        """Compute reference outputs (outside timing)."""

    def warm(self) -> None:
        """A few more frames so caches fill before timing."""

    def burst(self) -> None:
        """Before an untraced timed phase: bring the system to the peak
        memory a timed phase may reach, so ``peak_rss_mb`` does not
        depend on whether the host stalled during the run.  Left out of
        traced runs, whose queue and batch statistics it would mask."""

    def drive(self, n: int, recorder: SpanRecorder) -> Phase:
        raise NotImplementedError

    def layers(self, recorder: SpanRecorder, phase: Phase) -> dict:
        """Per-layer metrics for the layers this workload runs."""
        raise NotImplementedError

    def setup_layers(self) -> dict:
        """Per-layer metrics taken over all set-ups (after the last)."""
        return {}

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


# --------------------------------------------------------------------------
# Layer probes: public calls timed from outside, spans around each
# --------------------------------------------------------------------------


def probe_plan_build(recorder: SpanRecorder, geometries: list,
                     reps: int) -> float:
    """Median ms to build one ToF plan over the workload's geometries."""
    for _ in range(reps):
        for dataset in geometries:
            with recorder.span("beamform.plan_build"):
                TofPlan.build(*_plan_args(dataset))
    return median(recorder.durations("beamform.plan_build")) * 1e3


def probe_prepare(recorder: SpanRecorder, frames: list,
                  backend) -> dict:
    """Hilbert, ToF gather and peak normalization per frame.

    ``tof_gather`` is ``TofPlan.apply`` on the analytic signal, which
    is exactly ``apply_analytic`` minus its Hilbert transform;
    ``normalize`` is ``normalized_tofc`` minus ``apply_analytic``.
    """
    from repro.backend import use_backend

    with use_backend(backend):
        for index, frame in enumerate(frames):
            plan = dataset_tof_plan(frame)
            with recorder.span("api.normalized_tofc", index):
                normalized_tofc(frame)
            with recorder.span("beamform.apply_analytic", index):
                plan.apply_analytic(frame.rf)
            with recorder.span("beamform.hilbert", index):
                analytic = analytic_rf(frame.rf)
            with recorder.span("beamform.tof_gather", index):
                plan.apply(analytic)
    ms = {name: median(recorder.durations(name)) * 1e3 for name in (
        "api.normalized_tofc", "beamform.apply_analytic",
        "beamform.hilbert", "beamform.tof_gather",
    )}
    return {
        "beamform.hilbert_ms": ms["beamform.hilbert"],
        "beamform.tof_gather_ms": ms["beamform.tof_gather"],
        "api.normalize_ms": (
            ms["api.normalized_tofc"] - ms["beamform.apply_analytic"]
        ),
    }


def _stacked_input(kind: str, frames: list, backend) -> np.ndarray:
    from repro.backend import use_backend

    with use_backend(backend):
        return model_input(
            kind, np.stack([normalized_tofc(frame) for frame in frames])
        )


def _vbf_parts(network) -> list[tuple[str, Sequential]]:
    """Tiny-VBF split into timed parts, each a ``Sequential`` so the
    Dense->ReLU peephole still fuses inside it.  The transformer blocks
    are the ``Sequential`` members of the context stack; what precedes
    them is the patch embedding, what follows is the token decoder."""
    layers = network.context.layers
    blocks = [i for i, layer in enumerate(layers)
              if type(layer) is Sequential]
    parts = [("pixel_encoder", network.pixel_encoder),
             ("patch_embed", Sequential(layers[:blocks[0]]))]
    parts += [(f"block{n}", layers[i]) for n, i in enumerate(blocks)]
    parts += [("token_dense", Sequential(layers[blocks[-1] + 1:])),
              ("head", network.head)]
    return parts


def probe_forward(recorder: SpanRecorder, model, kind: str, x: np.ndarray,
                  backend, reps: int, parts: bool) -> tuple[dict, list[str]]:
    """Whole-forward time at ``x``'s batch size and, for Tiny-VBF, the
    time of each part.  Whole and parted forwards alternate, each going
    first on every other repetition, so both see the same host
    conditions; the parted output must equal the whole forward bit for
    bit."""
    from repro.backend import get_backend, use_backend

    name = f"nn.{kind}.forward_b{x.shape[0]}"
    problems: list[str] = []

    def whole():
        with recorder.span(name):
            return model.forward(x)

    def parted():
        network = model.root
        with recorder.span("nn.tiny_vbf.forward_parts"):
            with recorder.span("nn.tiny_vbf.pixel_encoder"):
                pixel = network.pixel_encoder.forward(
                    get_backend().asarray(x)
                )
            hidden = pixel
            for part, layer in _vbf_parts(network)[1:-1]:
                with recorder.span(f"nn.tiny_vbf.{part}"):
                    hidden = layer.forward(hidden)
            with recorder.span("nn.tiny_vbf.head"):
                return network.head.forward(
                    np.concatenate([pixel, hidden], axis=-1)
                )

    with use_backend(backend):
        for rep in range(reps):
            if not parts:
                whole()
            elif rep % 2:
                out, reference = parted(), whole()
            else:
                reference, out = whole(), parted()
            if parts and not np.array_equal(out, reference):
                problems.append("tiny_vbf parts output != whole forward")
    metrics = {f"{name}_ms": median(recorder.durations(name)) * 1e3}
    if parts:
        part_ms = {
            f"nn.tiny_vbf.{part}_ms":
                median(recorder.durations(f"nn.tiny_vbf.{part}")) * 1e3
            for part in VBF_PARTS
        }
        metrics.update(part_ms)
        # Fastest repetition of each, so host-speed noise drops out.
        sums = [sum(rep) for rep in zip(*(
            recorder.durations(f"nn.tiny_vbf.{part}") for part in VBF_PARTS
        ))]
        gap = min(sums) / min(recorder.durations(name)) - 1.0
        metrics["nn.tiny_vbf.parts_gap"] = gap
        if abs(gap) > PARTS_TOLERANCE:
            problems.append(
                f"tiny_vbf parts sum to {1 + gap:.3f} x the whole "
                f"forward (tolerance {PARTS_TOLERANCE})"
            )
    return metrics, problems


def probe_kernels(recorder: SpanRecorder, backend, run) -> tuple[dict, dict]:
    """Calls and ms per frame of each backend kernel while ``run(bk)``
    executes the workload's path on a profiling wrapper ``bk``.

    Returns the metrics of every kernel seen, and the same figures keyed
    by kernel for the run's diagnostic output.
    """
    registry = MetricsRegistry()
    wrapper = enable_kernel_profiling(registry, backend)
    try:
        with recorder.span("backend.profiled_path"):
            frames = run(wrapper)
    finally:
        disable_kernel_profiling(wrapper)
    histogram = registry.histogram(KERNEL_METRIC, labels=("kernel", "backend"))
    seen: dict[str, dict] = {}
    for sample, labels, value in histogram.samples():
        if sample.endswith("_count"):
            seen.setdefault(labels[0], {})["calls"] = value / frames
        elif sample.endswith("_sum"):
            seen.setdefault(labels[0], {})["ms"] = value * 1e3 / frames
    metrics = {}
    for kernel, entry in seen.items():
        metrics[f"backend.{kernel}.calls"] = entry["calls"]
        metrics[f"backend.{kernel}_ms"] = entry["ms"]
    return metrics, seen


def engine_metrics(stats: dict) -> dict:
    """``serve.*`` metrics from an engine's ``stats()``."""
    stages = stats["stages"]
    high_water = stats.get("queue_high_water") or {}
    return {
        "serve.queue_wait_ms": stages["queue_wait"].get("p50_ms", 0.0),
        "serve.execute_ms": stages["execute"].get("p50_ms", 0.0),
        "serve.mean_batch_size": stats.get("mean_batch_size") or 0.0,
        "serve.queue_high_water": float(max(high_water.values(), default=0)),
    }


# --------------------------------------------------------------------------
# Open-loop streams of one geometry into batch-1 Tiny-VBF on cnative
# --------------------------------------------------------------------------


class _Stream(Workload):
    """Frames of one scene sent on a fixed schedule below capacity;
    each frame is timed from its due time."""

    backend = "cnative"
    rate_fps = 10.0
    pool_size = 16
    windowed_tail = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.nominal_fps = self.rate_fps
        base = simulation_contrast(seed=1000 + seed)
        self.frames = _pool(base, self.pool_size, seed)

    def _build_beamformer(self) -> None:
        self.model = build_model("tiny_vbf", "small", 0)
        self.beamformer = create_beamformer(
            "tiny_vbf", model=self.model, backend=self.backend
        )

    def prepare_checks(self) -> None:
        self.references = [self.beamformer.beamform(f) for f in self.frames]

    def warm(self) -> None:
        self.drive(8, _NULL)

    def _frame_layers(self, recorder: SpanRecorder) -> dict:
        """Plan build, frame preparation, the batch-1 forward and its
        parts, and the kernels of one ``beamform`` per frame."""
        metrics = {"beamform.plan_build_ms": probe_plan_build(
            recorder, self.frames[:1], reps=5
        )}
        metrics.update(probe_prepare(recorder, self.frames, self.backend))
        x = _stacked_input("tiny_vbf", self.frames[:1], self.backend)
        forward, problems = probe_forward(
            recorder, self.model, "tiny_vbf", x, self.backend, reps=12,
            parts=True,
        )
        metrics.update(forward)
        for problem in problems:
            self.fail(problem)

        def run(backend) -> int:
            bf = create_beamformer("tiny_vbf", model=self.model,
                                   backend=backend)
            for frame in self.frames:
                bf.beamform(frame)
            return len(self.frames)

        kernels, self.kernels_seen = probe_kernels(recorder, self.backend, run)
        metrics.update(kernels)
        return metrics


# --------------------------------------------------------------------------
# live_gateway: open loop over loopback TCP
# --------------------------------------------------------------------------


class LiveGateway(_Stream):
    """One client connection sends frames on a fixed schedule below
    capacity to a gateway in front of a 2-worker threaded engine.  At
    10 frames/s a batch-1 frame (about 65 ms) is done before the next is
    due, so a host stall backs frames up for a second, not for the
    several seconds it took to drain at 16 frames/s."""

    name = "live_gateway"
    setup_reps = 9
    rate_fps = 10.0
    #: longest sleep between drains of the client socket
    poll_s = 0.001

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.client = None
        self.gateway = None

    def start(self) -> None:
        self._build_beamformer()
        engine = ServeEngine(
            self.beamformer, n_workers=2, keep_images=False, log_every_s=0.0
        )
        self.max_batch = engine.max_batch
        # Credit for 4 s of frames: a host stall must delay frames, not
        # have them rejected (the default of 8 is under a second here).
        self.gateway = GatewayServer(
            engine, port=0, max_inflight=int(4 * self.rate_fps)
        ).start()
        self.client = GatewayClient("127.0.0.1", self.gateway.port)
        self.client.connect(dataset_geometry(self.frames[0]))
        self.client.result(self.client.submit(self.frames[0].rf))

    def burst(self) -> None:
        # Frames that back up behind a host stall are batched, and a
        # batched forward sets the process's peak RSS.  One burst of a
        # full micro-batch puts that peak in every run instead of only in
        # runs where the host stalled.
        seqs = [self.client.submit(frame.rf)
                for frame in self.frames[:self.max_batch]]
        for seq in seqs:
            self.client.result(seq)

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None

    def drive(self, n: int, recorder: SpanRecorder) -> Phase:
        client = self.client
        phase = Phase(attempted=n)
        total_before = self.gateway.stats()["engine"]["stages"]["total"]
        pending: dict[int, tuple[int, float, float]] = {}
        interval = 1.0 / self.rate_fps

        def drain() -> None:
            client.poll()
            for seq in [s for s in pending if client.has_result(s)]:
                done = time.perf_counter()
                index, due, sent = pending.pop(seq)
                recorder.add("gateway.frame", due, done, frame=index)
                try:
                    image = client.result(seq)
                except GatewayRejected as exc:
                    phase.failed += 1
                    self.fail(f"frame {index} rejected: {exc.code}")
                    continue
                if not np.array_equal(
                    image, self.references[index % self.pool_size]
                ):
                    phase.failed += 1
                    self.fail(f"frame {index}: served != offline beamform")
                    continue
                phase.latencies.append(done - due)
                phase.sent_latencies.append(done - sent)

        phase.started = time.perf_counter()
        for index in range(n):
            due = phase.started + index * interval
            while True:
                drain()
                now = time.perf_counter()
                if now >= due:
                    break
                time.sleep(min(self.poll_s, due - now))
            sent = time.perf_counter()
            phase.gen_lag.append(sent - due)
            with recorder.span("gateway.submit", index):
                seq = client.submit(self.frames[index % self.pool_size].rf)
            pending[seq] = (index, due, sent)
        deadline = time.perf_counter() + 60.0
        while pending and time.perf_counter() < deadline:
            drain()
            time.sleep(self.poll_s)
        if pending:
            phase.failed += len(pending)
            self.fail(f"{len(pending)} frames never returned")
        phase.finished = time.perf_counter()
        phase.stats = self.gateway.stats()
        phase.stats["total_before"] = total_before
        return phase

    def layers(self, recorder: SpanRecorder, phase: Phase) -> dict:
        metrics = engine_metrics(phase.stats["engine"])
        # The engine's mean total over this phase alone: its stats also
        # hold the set-up and warm-up frames.
        before = phase.stats["total_before"]
        after = phase.stats["engine"]["stages"]["total"]
        engine_total_ms = (
            after["mean_ms"] * after["count"]
            - before.get("mean_ms", 0.0) * before["count"]
        ) / (after["count"] - before["count"])
        metrics["gateway.overhead_ms"] = (
            float(np.mean(phase.sent_latencies)) * 1e3 - engine_total_ms
        )
        metrics["gateway.rejected"] = float(
            phase.stats["gateway"]["frames_rejected"]
        )
        metrics["beamform.plan_hit_ratio"] = (
            phase.stats["engine"]["plan_cache"]["hit_rate"]
        )
        metrics["gateway.codec_ms"] = self._probe_codec(recorder)
        metrics.update(self._frame_layers(recorder))
        return metrics

    def _probe_codec(self, recorder: SpanRecorder) -> float:
        """``pack_message`` + ``decode_array`` of one frame and one image."""
        rf = self.frames[0].rf
        image = self.references[0]
        for _ in range(20):
            with recorder.span("gateway.codec"):
                for kind, array in (("frame", rf), ("result", image)):
                    header = array_header(kind, array, seq=0)
                    payload = array_payload(array)
                    pack_message(header, payload)
                    decode_array(header, payload)
        return median(recorder.durations("gateway.codec")) * 1e3


# --------------------------------------------------------------------------
# paced_sharded: open loop into the process-sharded engine
# --------------------------------------------------------------------------


class PacedSharded(_Stream):
    """Frames on a fixed schedule, well below capacity, into one shm
    worker process.  An unpaced burst is not used: with every worker
    computing at once the default thread pools oversubscribe the cores
    and throughput swings between about 7.5 and 24 frames/s inside one
    process, too unsteady to gate on.  One worker rather than two: each
    worker process brings its own BLAS and ``cnative`` pools, and with
    two of them a contending tenant moved the median latency by 15% and
    the CPU per frame by 21% across runs (one worker: 7-9% and 3%)."""

    name = "paced_sharded"
    setup_reps = 5
    rate_fps = 5.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.engine = None
        self.spawn_s: list[float] = []

    def start(self) -> None:
        self._build_beamformer()
        self.engine = ShardedServeEngine(
            self.beamformer, n_workers=1, transport="shm", max_batch=4,
            keep_images=False, log_every_s=0.0,
        )
        started = time.perf_counter()
        self.engine.start()
        self.spawn_s.append(time.perf_counter() - started)
        self.engine.serve(ReplaySource(self.frames[:1]), sink=self._drop)

    @staticmethod
    def _drop(seq, dataset, image) -> None:
        pass

    def setup_layers(self) -> dict:
        return {"shard.spawn_s": median(self.spawn_s)}

    def stop(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def drive(self, n: int, recorder: SpanRecorder) -> Phase:
        phase = Phase(attempted=n)
        due: dict[int, float] = {}
        done: dict[int, float] = {}
        pool = self.pool_size
        interval = 1.0 / self.rate_fps

        def paced_source():
            for index in range(n):
                due[index] = phase.started + index * interval
                while (now := time.perf_counter()) < due[index]:
                    time.sleep(due[index] - now)
                phase.gen_lag.append(time.perf_counter() - due[index])
                yield self.frames[index % pool]

        def sink(seq, dataset, image) -> None:
            done[seq] = time.perf_counter()
            if not np.array_equal(image, self.references[seq % pool]):
                self.fail(f"frame {seq}: served != offline beamform")
                done[seq] = -1.0

        phase.started = time.perf_counter()
        report = self.engine.serve(paced_source(), sink=sink)
        for seq in range(n):
            finished = done.get(seq)
            if finished is None or finished < 0:
                phase.failed += 1
                continue
            recorder.add("serve.frame", due[seq], finished, frame=seq)
            phase.latencies.append(finished - due[seq])
        phase.finished = max(done.values(), default=phase.started)
        if report.dropped:
            self.fail(f"{len(report.dropped)} frames dropped")
        phase.stats = report.stats
        return phase

    def layers(self, recorder: SpanRecorder, phase: Phase) -> dict:
        stats = phase.stats
        metrics = engine_metrics(stats)
        shards = stats["shards"].values()
        frames = sum(entry["frames"] for entry in shards)
        metrics["shard.execute_ms"] = sum(
            entry["frames"] * entry["execute"]["mean_ms"] for entry in shards
        ) / frames
        metrics["shard.transport_ms"] = self._probe_transport(recorder)
        metrics["beamform.plan_hit_ratio"] = stats["plan_cache"]["hit_rate"]
        metrics.update(self._frame_layers(recorder))
        return metrics

    def _probe_transport(self, recorder: SpanRecorder) -> float:
        """Shard total minus execute on unqueued single-frame runs, so
        the difference is transport and dispatch, not queueing."""
        gaps = []
        for index in range(8):
            with recorder.span("shard.single_frame_run", index):
                report = self.engine.serve(
                    ReplaySource(self.frames[index:index + 1]),
                    sink=self._drop,
                )
            for entry in report.stats["shards"].values():
                gaps.append(entry["total"]["mean_ms"]
                            - entry["execute"]["mean_ms"])
        return median(gaps)


# --------------------------------------------------------------------------
# offline_mixed: the paper-table user, closed loop, several geometries
# --------------------------------------------------------------------------


class OfflineMixed(Workload):
    """``beamform_batch`` in batches of 4 over the four paper presets,
    each at three steering angles, for DAS, Tiny-CNN and Tiny-VBF on the
    default backend.  Twelve geometries exceed the eight-entry ToF plan
    cache, so moving to a new geometry rebuilds its plan."""

    name = "offline_mixed"
    setup_reps = 7
    nominal_fps = 9.0
    frame_quantum = 12  # 3 models x batch of 4
    kinds = ("das", "tiny_cnn", "tiny_vbf")
    #: steering angles per preset; all twelve differ, because the four
    #: presets share one probe, grid and record length
    angles_deg = ((-8.0, -6.5, -5.0), (-3.5, -2.0, -0.5),
                  (0.5, 2.0, 3.5), (5.0, 6.5, 8.0))
    batch = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        presets = (simulation_contrast, phantom_contrast,
                   simulation_resolution, phantom_resolution)
        self.geometries = []
        for offset, preset in enumerate(presets):
            base = preset(seed=1000 + 10 * seed + offset)
            for angle in self.angles_deg[offset]:
                steered = _steered(base, angle, seed=seed + offset)
                self.geometries.append(
                    _pool(steered, self.batch, seed + len(self.geometries))
                )
        self.last_outputs: dict[int, list] = {}
        self.cursor = 0

    def batches(self, n: int):
        """``(batch index, kind, frames)``: each geometry in turn, every
        model on it before moving on, as a table-regenerating run does.
        The cycle continues across calls, so every phase keeps visiting
        geometries whose plans the cache has already evicted."""
        for index in range(n // self.batch):
            step = self.cursor
            self.cursor += 1
            geometry = (step // len(self.kinds)) % len(self.geometries)
            kind = self.kinds[step % len(self.kinds)]
            yield index, kind, self.geometries[geometry]

    def start(self) -> None:
        self.models = {kind: build_model(kind, "small", 0)
                       for kind in self.kinds if kind != "das"}
        self.beamformers = {
            kind: create_beamformer(kind, model=self.models.get(kind))
            for kind in self.kinds
        }
        self.cursor = 0
        _, kind, frames = next(self.batches(self.batch))
        self.beamformers[kind].beamform_batch(frames)

    def warm(self) -> None:
        self.drive(len(self.kinds) * self.batch, _NULL)

    def drive(self, n: int, recorder: SpanRecorder) -> Phase:
        phase = Phase(attempted=n)
        cache_before = tof_plan_cache_stats()
        phase.started = time.perf_counter()
        for index, kind, frames in self.batches(n):
            started = time.perf_counter()
            with recorder.span(f"api.beamform_batch.{kind}", index):
                images = self.beamformers[kind].beamform_batch(frames)
            finished = time.perf_counter()
            good = [
                image for image in images
                if image.shape == frames[0].grid.shape
                and np.isfinite(image).all()
            ]
            phase.failed += len(frames) - len(good)
            phase.latencies.extend([finished - started] * len(good))
            if index < len(self.kinds):
                self.last_outputs[index] = (kind, frames, images)
        phase.finished = time.perf_counter()
        phase.stats = {"plan_hit_ratio": _hit_ratio(
            cache_before, tof_plan_cache_stats()
        )}
        self._check_parity()
        return phase

    def _check_parity(self) -> None:
        """The first batch of each model must equal single-frame
        ``beamform`` of the same frames, bit for bit."""
        for kind, frames, images in self.last_outputs.values():
            for frame, image in zip(frames, images):
                if not np.array_equal(
                    image, self.beamformers[kind].beamform(frame)
                ):
                    self.fail(f"{kind}: beamform_batch != beamform")
        self.last_outputs.clear()

    def layers(self, recorder: SpanRecorder, phase: Phase) -> dict:
        metrics = {"beamform.plan_hit_ratio": phase.stats["plan_hit_ratio"]}
        sample = [frames[0] for frames in self.geometries]
        metrics["beamform.plan_build_ms"] = probe_plan_build(
            recorder, sample, reps=1
        )
        metrics.update(probe_prepare(recorder, sample, self.backend))
        for kind, model in self.models.items():
            x = _stacked_input(kind, self.geometries[0], self.backend)
            forward, problems = probe_forward(
                recorder, model, kind, x, self.backend, reps=4,
                parts=kind == "tiny_vbf",
            )
            metrics.update(forward)
            for problem in problems:
                self.fail(problem)

        def run(backend) -> int:
            frames = 0
            for kind in self.kinds:
                bf = create_beamformer(kind, model=self.models.get(kind),
                                       backend=backend)
                bf.beamform_batch(self.geometries[0])
                frames += self.batch
            return frames

        kernels, self.kernels_seen = probe_kernels(recorder, self.backend, run)
        metrics.update(kernels)
        return metrics


# --------------------------------------------------------------------------
# offline_quant: frame-serial quantized Tiny-VBF, modeled and emulated
# --------------------------------------------------------------------------


class OfflineQuant(Workload):
    """Frame-serial ``tiny_vbf@20 bits``.  Every frame runs on the
    modeled fixed-point path; every ``emu_every``-th frame also runs on
    the bit-accurate PE emulator and must match bit for bit.  The pool
    size is coprime with ``emu_every`` so every pool frame is
    emulated in turn."""

    name = "offline_quant"
    setup_reps = 7
    nominal_fps = 4.0
    scheme = "20 bits"
    pool_size = 7
    emu_every = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        base = simulation_contrast(seed=1000 + seed)
        self.frames = _pool(base, self.pool_size, seed)

    def start(self) -> None:
        self.model = build_model("tiny_vbf", "small", 0)
        spec = f"tiny_vbf@{self.scheme}"
        self.modeled = create_beamformer(spec, model=self.model)
        self.emulated = create_beamformer(spec, model=self.model, pe="emu")
        self.modeled.beamform(self.frames[0])

    def prepare_checks(self) -> None:
        cycles = self.modeled.accelerator.report().schedule.total_cycles
        if cycles != schedule_tiny_vbf(self.model.root.config).total_cycles:
            self.fail("accelerator cycles != schedule_tiny_vbf cycles")
        self.cycles = cycles

    def warm(self) -> None:
        self.drive(2, _NULL)

    def drive(self, n: int, recorder: SpanRecorder) -> Phase:
        phase = Phase(attempted=n)
        phase.started = time.perf_counter()
        for index in range(n):
            frame = self.frames[index % self.pool_size]
            started = time.perf_counter()
            with recorder.span("api.frame", index):
                with recorder.span("api.beamform.modeled", index):
                    image = self.modeled.beamform(frame)
                if index % self.emu_every == 0:
                    with recorder.span("api.beamform.emulated", index):
                        emulated = self.emulated.beamform(frame)
                    if not np.array_equal(image, emulated):
                        phase.failed += 1
                        self.fail(f"frame {index}: pe=emu != modeled")
                        continue
            if not np.isfinite(image).all():
                phase.failed += 1
                self.fail(f"frame {index}: non-finite image")
                continue
            phase.latencies.append(time.perf_counter() - started)
        phase.finished = time.perf_counter()
        return phase

    def layers(self, recorder: SpanRecorder, phase: Phase) -> dict:
        metrics: dict = {}
        before = tof_plan_cache_stats()
        metrics["beamform.plan_build_ms"] = probe_plan_build(
            recorder, self.frames[:1], reps=5
        )
        metrics.update(probe_prepare(recorder, self.frames, self.backend))
        metrics["beamform.plan_hit_ratio"] = _hit_ratio(
            before, tof_plan_cache_stats()
        )
        x = _stacked_input("tiny_vbf", self.frames[:1], self.backend)
        scheme = SCHEMES[self.scheme]
        modeled = QuantizedModel(self.model, scheme)
        emulated = QuantizedModel(self.model, scheme, pe="emu")
        for _ in range(3):
            with recorder.span("quant.forward"):
                modeled_out = modeled.forward(x)
        for _ in range(2):
            with recorder.span("fpga.emu_forward"):
                emulated_out = emulated.forward(x)
        if not np.array_equal(modeled_out, emulated_out):
            self.fail("QuantizedModel pe=emu != modeled")
        metrics["quant.forward_ms"] = median(
            recorder.durations("quant.forward")) * 1e3
        metrics["fpga.emu_forward_ms"] = median(
            recorder.durations("fpga.emu_forward")) * 1e3
        metrics["fpga.sim_cycles_per_frame"] = float(self.cycles)

        def run(backend) -> int:
            bf = create_beamformer(f"tiny_vbf@{self.scheme}",
                                   model=self.model, backend=backend)
            for frame in self.frames[:2]:
                bf.beamform(frame)
            return 2

        kernels, self.kernels_seen = probe_kernels(recorder, self.backend, run)
        metrics.update(kernels)
        return metrics


WORKLOADS = {
    workload.name: workload
    for workload in (LiveGateway, PacedSharded, OfflineMixed, OfflineQuant)
}
