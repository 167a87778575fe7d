"""The size-path differential checker: clean on the real code, and able
to catch a corrupted plane or a diverging batch kernel."""

import pytest

import repro.verify.differential as diff_mod
from repro.compression import make_algorithm
from repro.compression.bdi import BdiCompressor
from repro.memory.plane import CompressionPlane
from repro.verify.differential import differential_check


class TestCleanPass:
    def test_small_matrix_agrees(self):
        results = differential_check(
            apps=("PVC",), algorithms=("bdi", "bestofall"), lines=256,
        )
        failures = [r for r in results if not r.passed]
        assert not failures, failures
        assert {r.name for r in results} == {
            "differential.PVC.bdi", "differential.PVC.bestofall",
        }

    def test_bestofall_composition_agrees_on_mixed_app(self):
        # MUM's mixture exercises all three components (Fig. 11), so the
        # plane-composition path must reproduce per-line tie-breaking.
        [result] = differential_check(
            apps=("MUM",), algorithms=("bestofall",), lines=512,
        )
        assert result.passed, result.detail


class _Tampered(BdiCompressor):
    """Batch kernel diverges from scalar on compressible lines."""

    def _size_table(self, lines):
        return [
            (min(size + 1, self.line_size), encoding)
            for size, encoding in super()._size_table(lines)
        ]


class TestCatchesPlantedBugs:
    def test_batch_divergence_is_caught(self, monkeypatch):
        def fake_make(name, line_size):
            if name == "bdi":
                return _Tampered(line_size)
            return make_algorithm(name, line_size)

        monkeypatch.setattr(diff_mod, "make_algorithm", fake_make)
        [result] = differential_check(
            apps=("PVC",), algorithms=("bdi",), lines=64,
        )
        assert not result.passed
        assert "vs scalar" in result.detail

    def test_diverging_line_generator_is_caught(self, monkeypatch):
        from repro.compression import batch

        if batch.np is None:
            pytest.skip("numpy backend off: no batch line generator")
        real_make = diff_mod.make_block_generator

        def flipped(*args, **kwargs):
            line_block = real_make(*args, **kwargs)

            def corrupt(base, count):
                block = line_block(base, count)
                block[3, 5] ^= 1
                return block

            return corrupt

        monkeypatch.setattr(diff_mod, "make_block_generator", flipped)
        results = differential_check(
            apps=("PVC",), algorithms=("bdi", "fpc"), lines=64,
        )
        assert [r.passed for r in results] == [False, False]
        for result in results:
            assert result.detail.startswith(
                "batch vs scalar line bytes: line 3, byte 5:"
            )

    def test_corrupted_plane_is_caught(self, monkeypatch):
        real_plane_for_app = diff_mod.plane_for_app

        def corrupted(app, algorithm, lines, **kwargs):
            plane = real_plane_for_app(app, algorithm, lines, **kwargs)
            # Line 0 holds code 0 (codes number pairs as they appear);
            # growing that pair by a burst corrupts line 0 first.
            pairs = [(entry[0], entry[2]) for entry in plane.entries]
            size, encoding = pairs[0]
            pairs[0] = (size + plane.burst_bytes, encoding)
            return CompressionPlane(
                plane.algorithm_name, plane.line_size, plane.burst_bytes,
                plane.key, plane.extents, plane.codes, pairs,
            )

        monkeypatch.setattr(diff_mod, "plane_for_app", corrupted)
        [result] = differential_check(
            apps=("PVC",), algorithms=("bdi",), lines=64,
        )
        assert not result.passed
        assert "plane vs scalar" in result.detail
        assert "line 0" in result.detail
