"""Tests for the VC-1-style decoder and AVC-style motion search (EXT1)."""

import numpy as np
import pytest

from repro.apps.video import (
    BLOCK,
    SEARCH_COST,
    SEARCH_QUALITY,
    block_count,
    build_decoder_graph,
    dct_block,
    dequantize,
    idct_block,
    join_blocks,
    motion_search_full,
    motion_search_threestep,
    motion_search_zero,
    quantize,
    run_decoder,
    run_motion_experiment,
    sad,
    split_blocks,
    synthetic_video,
)
from repro.diagnostics import run_diagnostics
from repro.tpdf import check_boundedness, check_liveness, repetition_vector


class TestBlockPrimitives:
    def test_split_join_roundtrip(self):
        frame = synthetic_video(1, 32, 48)[0]
        assert np.array_equal(join_blocks(split_blocks(frame), frame.shape), frame)

    def test_block_count(self):
        frame = np.zeros((32, 48))
        assert block_count(frame) == 4 * 6

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            split_blocks(np.zeros((30, 32)))
        with pytest.raises(ValueError):
            join_blocks([np.zeros((8, 8))], (32, 32))

    def test_dct_roundtrip(self):
        rng = np.random.default_rng(0)
        block = rng.uniform(0, 255, (BLOCK, BLOCK))
        assert np.allclose(idct_block(dct_block(block)), block)

    def test_quantization_error_bounded(self):
        rng = np.random.default_rng(1)
        coeffs = rng.uniform(-100, 100, (BLOCK, BLOCK))
        step = 2.0
        restored = dequantize(quantize(coeffs, step), step)
        assert np.abs(restored - coeffs).max() <= step / 2 + 1e-12

    def test_quantize_step_validated(self):
        with pytest.raises(ValueError):
            quantize(np.zeros((8, 8)), 0.0)


class TestMotionSearch:
    def make_pair(self, dy=2, dx=1):
        rng = np.random.default_rng(3)
        reference = rng.uniform(0, 255, (32, 32))
        current = np.roll(np.roll(reference, -dy, axis=0), -dx, axis=1)
        return reference, current

    def test_full_search_finds_translation(self):
        reference, current = self.make_pair(2, 1)
        block = current[8:16, 8:16]
        mv, cost = motion_search_full(reference, block, 8, 8, radius=4)
        assert mv == (2, 1)
        assert cost == pytest.approx(0.0)

    def test_threestep_at_least_as_good_as_zero(self):
        reference, current = self.make_pair(2, 2)
        block = current[8:16, 8:16]
        _, zero_cost = motion_search_zero(reference, block, 8, 8)
        _, ts_cost = motion_search_threestep(reference, block, 8, 8, radius=4)
        assert ts_cost <= zero_cost

    def test_full_is_optimal(self):
        reference, current = self.make_pair(3, 0)
        block = current[8:16, 8:16]
        _, full_cost = motion_search_full(reference, block, 8, 8, radius=4)
        _, ts_cost = motion_search_threestep(reference, block, 8, 8, radius=4)
        assert full_cost <= ts_cost

    def test_sad_zero_for_identical(self):
        block = np.ones((8, 8))
        assert sad(block, block) == 0.0

    def test_cost_quality_tables_consistent(self):
        assert SEARCH_COST["zero"] < SEARCH_COST["threestep"] < SEARCH_COST["full"]
        assert SEARCH_QUALITY["zero"] < SEARCH_QUALITY["threestep"] < SEARCH_QUALITY["full"]


class TestDecoderGraph:
    def test_static_analyses(self):
        graph = build_decoder_graph()
        q = repetition_vector(graph)
        assert all(str(v) == "1" for v in q.values())
        assert check_liveness(graph).live  # feedback cycle seeded
        assert check_boundedness(graph).bounded
        assert run_diagnostics(graph) == []

    def test_feedback_cycle_needs_initial_frame(self):
        graph = build_decoder_graph()
        # Removing the initial token deadlocks MC's self-loop.
        graph.channels["e_ref"].initial_tokens = 0
        assert not check_liveness(graph).live

    def test_no_parameter_communication_actors(self):
        """The Sec. V claim: TPDF needs no modifier/user actors for the
        parameter p — it appears only in rates."""
        graph = build_decoder_graph()
        assert set(graph.node_names()) == {
            "BITS", "HDR", "ED", "IQT", "MC", "SNK",
        }
        assert "p" in graph.parameters


class TestDecoderExecution:
    def test_intra_near_lossless(self):
        frames = synthetic_video(3, 32, 32)
        result = run_decoder(frames, step=0.001, mode="intra")
        assert len(result.frames) == 3
        assert result.psnr(frames) > 60.0

    def test_inter_near_lossless(self):
        frames = synthetic_video(4, 32, 32)
        result = run_decoder(frames, step=0.001, mode="inter")
        assert result.psnr(frames) > 60.0

    def test_coarse_quantization_degrades(self):
        frames = synthetic_video(2, 32, 32)
        fine = run_decoder(frames, step=0.01).psnr(frames)
        coarse = run_decoder(frames, step=16.0).psnr(frames)
        assert coarse < fine

    def test_counts_one_firing_per_frame(self):
        frames = synthetic_video(3, 32, 32)
        result = run_decoder(frames, step=1.0)
        counts = result.trace.counts()
        assert counts["MC"] == 3
        assert counts["HDR"] == 3

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            run_decoder(synthetic_video(1), mode="wat")
        with pytest.raises(ValueError):
            run_decoder([], mode="intra")


class TestMotionExperiment:
    @pytest.fixture(scope="class")
    def frames(self):
        return synthetic_video(3, 32, 32, motion=(1, 2))

    def test_tight_deadline_low_quality(self, frames):
        exp = run_motion_experiment(frames, deadline=5.0)
        assert set(exp.chosen_strategy) == {"zero"}

    def test_loose_deadline_best_quality(self, frames):
        exp = run_motion_experiment(frames, deadline=100.0)
        assert set(exp.chosen_strategy) == {"full"}

    def test_quality_improves_with_deadline(self, frames):
        tight = run_motion_experiment(frames, deadline=5.0)
        loose = run_motion_experiment(frames, deadline=100.0)
        assert loose.mean_sad <= tight.mean_sad

    def test_strategy_sad_ordering(self, frames):
        exp = run_motion_experiment(frames, deadline=5.0)
        assert exp.strategy_sad["full"] <= exp.strategy_sad["threestep"]
        assert exp.strategy_sad["threestep"] <= exp.strategy_sad["zero"]

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            run_motion_experiment(synthetic_video(1), deadline=10.0)
