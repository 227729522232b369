"""Process-sharded engine: parity, transports, crash handling, soak.

Real worker processes are spawned here (no mocks): each engine start
pays an interpreter spawn + import, so the suite keeps engine count low
and asserts interleaving-independent invariants — bitwise parity with
the offline API and the threaded engine, frame conservation through
shutdown, crash surfacing, and restart-with-requeue.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import create_beamformer
from repro.backend import available_backends
from repro.models.registry import build_model
from repro.serve import (
    ReplaySource,
    ServeEngine,
    ShardedServeEngine,
    WorkerCrashed,
)
from repro.ultrasound import stream_gain_drift
from tests.serve._sharding_helpers import (
    CrashingBeamformer,
    CrashOnceBeamformer,
)

N_FRAMES = 8


@pytest.fixture(scope="module")
def frames(sim_contrast_dataset):
    return list(
        stream_gain_drift(sim_contrast_dataset, N_FRAMES, seed=21)
    )


def sharded(beamformer, **kwargs):
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("log_every_s", 0.0)
    return ShardedServeEngine(beamformer, **kwargs)


class TestShardedParity:
    @pytest.mark.parametrize("backend", available_backends())
    def test_sharded_threaded_offline_bitwise_parity(
        self, frames, backend
    ):
        """The tri-parity invariant, per registered backend.

        offline ``beamform`` == threaded ``ServeEngine`` == sharded
        ``ShardedServeEngine`` (shm transport), bit for bit: the shm
        round trip is byte-exact and workers run the identical
        ``beamform_batch``, so process sharding must not move a single
        bit of output.
        """
        beamformer = create_beamformer("das", backend=backend)
        offline = [beamformer.beamform(frame) for frame in frames]
        threaded = ServeEngine(
            beamformer, n_workers=2, log_every_s=0.0
        ).serve(ReplaySource(frames))
        with sharded(beamformer, transport="shm") as engine:
            report = engine.serve(ReplaySource(frames))
        assert report.completed == len(frames)
        for reference, via_threads, via_shards in zip(
            offline, threaded.images, report.images
        ):
            np.testing.assert_array_equal(reference, via_threads)
            np.testing.assert_array_equal(reference, via_shards)

    def test_per_level_pe_sharded_threaded_offline_bitwise_parity(
        self, frames
    ):
        # The PE rounding mode is an argument held by the beamformer,
        # so it must reach spawned workers with the pickled beamformer.
        # Per-level rounding differs from the modeled path, so a worker
        # that dropped the mode would show.
        beamformer = create_beamformer(
            "tiny_vbf@16 bits",
            model=build_model("tiny_vbf", "small", seed=0),
            pe="emu-per-level",
        )
        subset = frames[:2]
        offline = [beamformer.beamform(frame) for frame in subset]
        threaded = ServeEngine(
            beamformer, n_workers=2, log_every_s=0.0
        ).serve(ReplaySource(subset))
        with sharded(beamformer) as engine:
            report = engine.serve(ReplaySource(subset))
        assert report.completed == len(subset)
        for reference, via_threads, via_shards in zip(
            offline, threaded.images, report.images
        ):
            np.testing.assert_array_equal(reference, via_threads)
            np.testing.assert_array_equal(reference, via_shards)

    def test_pickle_transport_matches_shm(self, frames):
        beamformer = create_beamformer("das")
        offline = [beamformer.beamform(frame) for frame in frames]
        with sharded(beamformer, transport="pickle") as engine:
            report = engine.serve(ReplaySource(frames))
        for reference, image in zip(offline, report.images):
            np.testing.assert_array_equal(reference, image)

    def test_learned_beamformer_parity_and_shard_stats(self, frames):
        """Tiny-VBF (untrained) through 2 shards: parity + telemetry."""
        model = build_model("tiny_vbf", "small", seed=0)
        beamformer = create_beamformer("tiny_vbf", model=model)
        offline = [beamformer.beamform(frame) for frame in frames]
        with sharded(beamformer) as engine:
            report = engine.serve(ReplaySource(frames))
        for reference, image in zip(offline, report.images):
            np.testing.assert_array_equal(reference, image)
        shards = report.stats["shards"]
        assert sum(entry["frames"] for entry in shards.values()) == (
            len(frames)
        )
        workers = report.stats["workers"]
        assert workers == {
            "spawned": 2, "exited": 0, "restarts": 0, "live": 2,
        }

    def test_process_default_backend_propagates_to_workers(
        self, frames
    ):
        """A programmatic ``set_backend`` must reach spawned workers.

        Workers re-import ``repro.backend`` on spawn, so the parent's
        ``REPRO_BACKEND`` env default would apply automatically — but a
        default set *after* import via ``set_backend`` exists only in
        the parent's process state.  The engine captures it with
        ``default_backend_name()`` at start; a worker left on the
        ``numpy`` default would produce float64 DAS output instead of
        numpy-fast's float32.
        """
        from repro.backend import default_backend_name, set_backend

        beamformer = create_beamformer("das")  # backend=None: inherit
        fast_offline = [
            create_beamformer("das", backend="numpy-fast").beamform(f)
            for f in frames[:4]
        ]
        previous = default_backend_name()
        set_backend("numpy-fast")
        try:
            with sharded(beamformer) as engine:
                report = engine.serve(ReplaySource(frames[:4]))
        finally:
            set_backend(previous)
        for reference, image in zip(fast_offline, report.images):
            np.testing.assert_array_equal(reference, image)

    def test_engine_reuse_across_runs(self, frames):
        """One worker pool serves several runs (spawn cost amortized)."""
        beamformer = create_beamformer("das")
        offline = [beamformer.beamform(frame) for frame in frames[:4]]
        with sharded(beamformer) as engine:
            first = engine.serve(ReplaySource(frames[:4]))
            second = engine.serve(ReplaySource(frames[:4]))
        for reference, one, two in zip(
            offline, first.images, second.images
        ):
            np.testing.assert_array_equal(reference, one)
            np.testing.assert_array_equal(reference, two)

    def test_sink_receives_every_frame(self, frames):
        beamformer = create_beamformer("das")
        delivered = {}
        with sharded(beamformer) as engine:
            engine.serve(
                ReplaySource(frames[:4]),
                sink=lambda seq, dataset, image: delivered.__setitem__(
                    seq, image
                ),
            )
        assert sorted(delivered) == list(range(4))


class TestCrashHandling:
    def test_worker_crash_surfaces_as_engine_error(self, frames):
        """A killed worker must fail the run, not hang it."""
        with sharded(CrashingBeamformer()) as engine:
            with pytest.raises(WorkerCrashed):
                engine.serve(ReplaySource(frames[:4]))

    def test_broken_engine_refuses_further_runs(self, frames):
        with sharded(CrashingBeamformer()) as engine:
            with pytest.raises(WorkerCrashed):
                engine.serve(ReplaySource(frames[:4]))
            with pytest.raises(RuntimeError, match="broken"):
                engine.serve(ReplaySource(frames[:4]))

    def test_non_finite_frame_fails_the_run(self, frames):
        # The worker's error crosses the process boundary as a
        # traceback; the typed error must name the cause.
        rf = frames[1].rf.copy()
        rf[0, 0] = np.nan
        poisoned = [frames[0], replace(frames[1], rf=rf), frames[2]]
        with sharded(create_beamformer("das")) as engine:
            with pytest.raises(RuntimeError, match="NonFiniteRfError"):
                engine.serve(ReplaySource(poisoned))

    def test_restart_requeues_inflight_and_completes(
        self, frames, tmp_path
    ):
        """With ``restart_workers`` a crash costs a restart, not the run.

        The first worker to see a batch dies mid-flight; the engine
        must respawn the shard, requeue the batches it owed, and finish
        with every frame present and bit-identical to offline DAS.
        """
        beamformer = CrashOnceBeamformer(tmp_path / "crashed-once")
        reference_beamformer = create_beamformer("das")
        offline = [
            reference_beamformer.beamform(frame) for frame in frames
        ]
        with sharded(beamformer, restart_workers=True) as engine:
            report = engine.serve(ReplaySource(frames))
        assert report.completed == len(frames)
        assert report.stats["workers"]["restarts"] >= 1
        for reference, image in zip(offline, report.images):
            np.testing.assert_array_equal(reference, image)


class TestSoak:
    @pytest.mark.slow
    def test_drop_oldest_soak_conserves_every_frame(
        self, sim_contrast_dataset
    ):
        """5k frames under lossy backpressure: nothing lost, no deadlock.

        Every submitted frame must end the run accounted for — either
        beamformed or explicitly dropped by the ``drop_oldest`` policy —
        and the engine must shut down gracefully with all workers live.
        Nightly CI runs this with ``--runslow``.
        """
        n_frames = 5000
        # Feed the generator directly (serve() takes any iterable):
        # materializing 5k datasets up front would hold gigabytes, and
        # streaming is the realistic ingest shape anyway.
        source = stream_gain_drift(
            sim_contrast_dataset, n_frames, seed=5
        )
        beamformer = create_beamformer("das")
        with sharded(
            beamformer,
            backpressure="drop_oldest",
            queue_capacity=16,
        ) as engine:
            report = engine.serve(source)
        completed = report.completed
        dropped = set(report.dropped)
        assert completed + len(dropped) == n_frames
        for seq, image in enumerate(report.images):
            if seq in dropped:
                assert image is None
            else:
                assert image is not None
        workers = report.stats["workers"]
        assert workers["restarts"] == 0
        assert workers["live"] == 2
        assert report.stats["frames_in"] == n_frames


class TestLiveWorkerLifecycle:
    """Runtime worker add/retire on the process-sharded engine.

    The acceptance bar (ISSUE 9): resizing the pool during live
    traffic preserves bitwise serve-vs-offline parity with zero
    admitted-frame loss.  The source generator drives the lifecycle
    from the pump thread: add a shard, wait (event-driven, no sleeps
    beyond the poll) until the collector promotes it into the router,
    then retire shard 0 while its queue still holds work — the
    FIFO stop token forces the drain-before-exit path.
    """

    def test_live_add_and_retire_preserve_parity(self, frames):
        import time

        beamformer = create_beamformer("das")
        offline = [beamformer.beamform(frame) for frame in frames]
        with sharded(beamformer, max_batch=1) as engine:
            def source():
                for index, frame in enumerate(frames):
                    if index == 2:
                        added = engine.add_worker()
                        assert added is not None
                        deadline = time.monotonic() + 120.0
                        while (
                            engine._slots[added].state != "active"
                        ):
                            assert time.monotonic() < deadline, (
                                "added worker never became routable"
                            )
                            time.sleep(0.01)
                    if index == 5:
                        assert engine.retire_worker(0) == 0
                    yield frame

            report = engine.serve(source())
            assert report.completed == len(frames)
            assert report.dropped == []
            for reference, image in zip(offline, report.images):
                np.testing.assert_array_equal(reference, image)
            workers = report.stats["workers"]
            assert workers["exited"] == 1  # the retired shard
            assert engine.live_workers == 2  # 2 + 1 added - 1 retired

            # The resized pool keeps serving: a second run on the
            # surviving shards (1 and 2) stays bit-exact too.
            second = engine.serve(ReplaySource(frames[:4]))
            assert second.completed == 4
            for reference, image in zip(offline, second.images):
                np.testing.assert_array_equal(reference, image)

    def test_retire_refused_when_it_would_empty_the_pool(self, frames):
        beamformer = create_beamformer("das")
        with sharded(beamformer, n_workers=1) as engine:
            assert engine.retire_worker() is None
            report = engine.serve(ReplaySource(frames[:2]))
            assert report.completed == 2

    def test_add_worker_respects_max_workers(self, frames):
        beamformer = create_beamformer("das")
        with sharded(
            beamformer, n_workers=1, max_workers=1
        ) as engine:
            assert engine.add_worker() is None
            assert engine.live_workers == 1
