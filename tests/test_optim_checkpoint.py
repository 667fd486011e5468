"""Adam update arithmetic and checkpoint round-trips."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dygwin.tensor as T
from dygwin.checkpoint import checkpoint_digest, load_checkpoint, save_checkpoint
from dygwin.errors import ContractError, DataError
from dygwin.optim import Adam


class TestAdam:
    def test_first_step_moves_by_lr(self):
        p = T.parameter(np.array([[0.0]]), dtype=np.float64)
        opt = Adam({"p": p}, lr=1e-4)
        p.grad = np.array([[1.0]])
        opt.step()
        # bias-corrected m_hat = v_hat = 1, so the step is lr / (1 + eps)
        expected = -1e-4 * (1.0 / (1.0 + 1e-8))
        assert abs(p.values.item() - expected) < 1e-12

    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = T.parameter(np.array([[1.5]]), dtype=np.float64)
        opt = Adam({"p": p}, lr=1e-4)
        p.grad = np.array([[0.0]])
        opt.step()
        assert p.values.item() == 1.5

    def test_weight_decay_adds_l2_term(self):
        p = T.parameter(np.array([[1.0]]), dtype=np.float64)
        opt = Adam({"p": p}, lr=1e-4, weight_decay=1e-5)
        p.grad = np.array([[0.0]])
        opt.step()
        # effective gradient 1e-5 pushes the parameter down
        assert p.values.item() < 1.0

    def test_step_counter_increments(self):
        p = T.parameter(np.zeros((2, 2)))
        opt = Adam({"p": p})
        for expected in (1, 2, 3):
            p.grad = np.ones((2, 2), dtype=np.float32)
            opt.step()
            assert opt.t == expected

    def test_shape_mismatch_rejected(self):
        p = T.parameter(np.zeros((2, 2)))
        opt = Adam({"p": p})
        p.grad = np.ones((3, 2), dtype=np.float32)
        with pytest.raises(ContractError):
            opt.step()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {
            "enc/w": T.parameter(rng.normal(size=(7, 3)), dtype=np.float32),
            "enc/omega": T.parameter(rng.normal(size=(1, 9)), dtype=np.float64),
            "dec/bias": T.parameter(np.zeros((1, 1)), dtype=np.float32),
        }
        path = tmp_path / "model.dygw"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(params)
        for name, p in params.items():
            assert loaded[name].dtype == p.values.dtype
            assert loaded[name].tobytes() == p.values.tobytes()

    def test_magic_header(self, tmp_path):
        path = tmp_path / "model.dygw"
        save_checkpoint(path, {"w": T.parameter(np.ones((2, 2)))})
        assert path.read_bytes()[:4] == b"DYGW"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.dygw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_digest_tracks_content(self):
        a = {"w": T.parameter(np.ones((2, 2)), dtype=np.float32)}
        b = {"w": T.parameter(np.ones((2, 2)), dtype=np.float32)}
        assert checkpoint_digest(a) == checkpoint_digest(b)
        b["w"].values[0, 0] = 2.0
        assert checkpoint_digest(a) != checkpoint_digest(b)


def saved_bytes(tmp_path) -> bytes:
    path = tmp_path / "ref.dygw"
    save_checkpoint(path, {"encoder/w": T.parameter(np.arange(6.0).reshape(2, 3)),
                           "decoder/b": T.parameter(np.ones((1, 1)), dtype=np.float64),
                           "empty": T.parameter(np.zeros((0, 2)))})
    return path.read_bytes()


class TestMalformedCheckpoint:
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(length=st.integers(0, 200))
    def test_any_other_length_is_data_error(self, tmp_path, length):
        raw = saved_bytes(tmp_path)
        if length == len(raw):
            return
        path = tmp_path / "cut.dygw"
        path.write_bytes((raw + bytes(len(raw)))[:length])
        with pytest.raises(DataError):
            load_checkpoint(path)

    @settings(deadline=None, max_examples=400,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(position=st.integers(0, 10_000), value=st.integers(0, 255))
    @example(position=26, value=8)  # ndim 1 -> 8 reads float bytes as dims, one of them 0
    def test_single_byte_change_loads_or_is_data_error(self, tmp_path, position, value):
        raw = bytearray(saved_bytes(tmp_path))
        raw[position % len(raw)] = value
        path = tmp_path / "flipped.dygw"
        path.write_bytes(bytes(raw))
        try:
            loaded = load_checkpoint(path)
        except DataError:
            return
        assert all(isinstance(arr, np.ndarray) for arr in loaded.values())

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        raw = saved_bytes(tmp_path)

        def disk_full(fd):
            raise OSError("no space left on device")
        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError):
            save_checkpoint(tmp_path / "ref.dygw", {"w": T.parameter(np.ones((3, 3)))})
        assert (tmp_path / "ref.dygw").read_bytes() == raw
        assert [p.name for p in tmp_path.iterdir()] == ["ref.dygw"]
