"""Tests for DeltaLog save/load/replay and the synthetic workload."""

import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.stream import journal
from repro.stream.delta import GraphDelta, apply_batch
from repro.stream.journal import DeltaLog
from repro.stream.workload import synthetic_delta_log
from tests.conftest import small_labeled_hin
from tests.stream.test_delta import small_hin


def sample_log():
    log = DeltaLog()
    log.append(GraphDelta.add_link("u", "w", "r3", weight=2.0))
    log.append(GraphDelta.set_label("w", ["a"]))
    log.commit()
    log.append(GraphDelta.add_node("x", features=[1.0, 2.0], labels=["b"]))
    log.append(GraphDelta.add_link("x", "u", "r1"))
    log.commit()
    log.append(GraphDelta.remove_link("u", "w", "r3"))
    return log


class TestDeltaLog:
    def test_batches_split_at_commits(self):
        log = sample_log()
        batches = log.batches()
        assert [len(b) for b in batches] == [2, 2, 1]
        assert log.n_batches == 3
        assert len(log) == 5

    def test_trailing_uncommitted_batch_included(self):
        log = DeltaLog()
        log.append(GraphDelta.set_label("u", ["a"]))
        assert log.n_batches == 1

    def test_commit_on_empty_batch_is_noop(self):
        log = DeltaLog()
        log.commit()
        log.commit()
        assert log.n_batches == 0
        log.append(GraphDelta.set_label("u", ["a"]))
        log.commit()
        log.commit()
        assert log.n_batches == 1

    def test_rejects_non_delta(self):
        with pytest.raises(ValidationError):
            DeltaLog().append({"op": "add_link"})

    def test_save_load_round_trip(self, tmp_path):
        log = sample_log()
        path = log.save(tmp_path / "journal.jsonl")
        loaded = DeltaLog.load(path)
        assert loaded == log
        assert [len(b) for b in loaded.batches()] == [2, 2, 1]

    def test_load_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            DeltaLog.load(tmp_path / "nope.jsonl")

    def test_load_without_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "commit"}\n')
        with pytest.raises(ValidationError):
            DeltaLog.load(path)

    def test_load_bad_json_rejected(self, tmp_path):
        log = sample_log()
        path = log.save(tmp_path / "journal.jsonl")
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(ValidationError):
            DeltaLog.load(path)

    def test_saved_journal_is_append_only(self, tmp_path):
        # Extending a journal leaves the previously saved lines intact.
        log = sample_log()
        before = log.save(tmp_path / "a.jsonl").read_text()
        log.extend([GraphDelta.set_label("u", [])])
        log.commit()
        after = log.save(tmp_path / "b.jsonl").read_text()
        assert after.startswith(before)

    def test_failed_save_keeps_the_old_journal(self, tmp_path, monkeypatch):
        path = appended_journal(tmp_path / "journal.jsonl", committed_batches())
        before = path.read_bytes()

        def torn_write(fd, payload):
            os.write(fd, payload[: len(payload) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(journal, "_write_all", torn_write)
        with pytest.raises(OSError, match="disk full"):
            sample_log().save(path)
        assert path.read_bytes() == before
        loaded = DeltaLog.load(path).batches()
        assert [list(batch) for batch in loaded] == committed_batches()
        assert sorted(tmp_path.iterdir()) == [path]

    def test_replay_matches_batchwise_apply(self):
        hin = small_hin()
        log = sample_log()
        expected = hin
        for batch in log.batches():
            expected = apply_batch(expected, batch)
        replayed = log.replay(hin)
        assert replayed.tensor == expected.tensor
        assert replayed.node_names == expected.node_names
        assert np.array_equal(replayed.label_matrix, expected.label_matrix)
        assert np.array_equal(
            replayed.features_dense(), expected.features_dense()
        )


class TestSyntheticWorkload:
    def test_deterministic(self):
        hin = small_labeled_hin(seed=3)
        one = synthetic_delta_log(hin, 40, batch_size=8, seed=11)
        two = synthetic_delta_log(hin, 40, batch_size=8, seed=11)
        assert one == two
        assert one != synthetic_delta_log(hin, 40, batch_size=8, seed=12)

    def test_replayable_and_counts(self):
        hin = small_labeled_hin(seed=5)
        log = synthetic_delta_log(hin, 50, batch_size=10, seed=7)
        assert len(log) == 50
        mutated = log.replay(hin)  # every delta valid at its position
        assert mutated.n_nodes >= hin.n_nodes
        assert mutated.relation_names == hin.relation_names

    def test_mix_override(self):
        hin = small_labeled_hin(seed=5)
        log = synthetic_delta_log(
            hin, 30, seed=1, op_weights={"set_label": 1.0}
        )
        assert all(delta.op == "set_label" for delta in log)
        log.replay(hin)

    @pytest.mark.parametrize(
        "seed, batch_size, digest",
        [
            # sha256 of the delta lines as generated before commits were
            # placed at the boundaries an add_node pair steps over: the
            # stream itself must not move, only where batches end.
            (10, 10, "48027d03b451179e5b198096cc6216ba693057ee1649bd7df5cb29f91a287dbe"),
            (14, 10, "a8d7b7615b9670059a817542cd5adb6561534b073d9f09961eb733eb423ed078"),
            (10, 3, "48027d03b451179e5b198096cc6216ba693057ee1649bd7df5cb29f91a287dbe"),
            (10, 1, "48027d03b451179e5b198096cc6216ba693057ee1649bd7df5cb29f91a287dbe"),
        ],
    )
    def test_batches_stay_near_batch_size(self, seed, batch_size, digest):
        # Seeds 10 and 14 draw node arrivals (two deltas each) that
        # straddle a multiple of 10; committing only on exact multiples
        # gave batches of 20 and 30.
        hin = small_labeled_hin(seed=5)
        log = synthetic_delta_log(hin, 60, batch_size=batch_size, seed=seed)
        sizes = [len(batch) for batch in log.batches()]
        assert sum(sizes) == 60
        assert all(batch_size - 1 <= size <= batch_size + 1 for size in sizes), sizes
        stream = "\n".join(journal._delta_line(delta) for delta in log)
        assert hashlib.sha256(stream.encode()).hexdigest() == digest

    def test_save_load_replay_round_trip(self, tmp_path):
        hin = small_labeled_hin(seed=2)
        log = synthetic_delta_log(hin, 30, batch_size=6, seed=9)
        loaded = DeltaLog.load(log.save(tmp_path / "journal.jsonl"))
        assert loaded == log
        assert loaded.replay(hin).tensor == log.replay(hin).tensor


def committed_batches():
    """``sample_log``'s batches, all committed, plus one with a unicode name."""
    batches = [list(batch) for batch in sample_log().batches()]
    batches.append([GraphDelta.add_node("ü-node", features=[0.5, 1.5])])
    return batches


def parses(line: bytes) -> bool:
    """Whether a journal line is empty or complete JSON."""
    try:
        return not line or json.loads(line) is not None
    except json.JSONDecodeError:
        return False


def appended_journal(path, batches):
    for batch in batches:
        DeltaLog.append_batch(path, batch)
    return path


class TestAppendBatch:
    def test_each_append_equals_save_bytewise(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        log = DeltaLog()
        for batch in committed_batches():
            DeltaLog.append_batch(path, batch)
            log.extend(batch)
            log.commit()
            assert path.read_bytes() == log.save(tmp_path / "saved.jsonl").read_bytes()
        assert DeltaLog.load(path) == log

    def test_empty_batch_writes_no_marker(self, tmp_path):
        path = DeltaLog.append_batch(tmp_path / "journal.jsonl", [])
        saved = DeltaLog().save(tmp_path / "saved.jsonl")
        assert path.read_bytes() == saved.read_bytes()
        DeltaLog.append_batch(path, [])
        assert DeltaLog.load(path, recover=True).n_batches == 0

    def test_extends_a_saved_journal(self, tmp_path):
        log = DeltaLog()
        log.extend(committed_batches()[0])
        log.commit()
        path = log.save(tmp_path / "journal.jsonl")
        DeltaLog.append_batch(path, committed_batches()[1])
        assert DeltaLog.load(path).n_batches == 2

    @pytest.mark.parametrize("cut", [1, 5])
    def test_refuses_a_torn_or_uncommitted_tail(self, tmp_path, cut):
        path = appended_journal(tmp_path / "journal.jsonl", committed_batches())
        path.write_bytes(path.read_bytes()[:-cut])
        before = path.read_bytes()
        with pytest.raises(ValidationError, match="batch boundary"):
            DeltaLog.append_batch(path, [GraphDelta.set_label("u", [])])
        assert path.read_bytes() == before
        # A saved trailing uncommitted batch is refused the same way.
        sample_log().save(path)
        with pytest.raises(ValidationError, match="batch boundary"):
            DeltaLog.append_batch(path, [GraphDelta.set_label("u", [])])


class TestRecover:
    """Cut the journal at every byte offset inside its last batch."""

    def test_every_cut_in_the_last_batch(self, tmp_path):
        batches = committed_batches()
        full = appended_journal(tmp_path / "full.jsonl", batches).read_bytes()
        prefix = appended_journal(tmp_path / "prefix.jsonl", batches[:-1])
        prefix_log = DeltaLog.load(prefix)
        start = len(prefix.read_bytes())
        path = tmp_path / "cut.jsonl"
        for offset in range(start, len(full)):
            path.write_bytes(full[:offset])
            if offset == start:
                recovered = DeltaLog.load(path, recover=True)
            else:
                with pytest.warns(RuntimeWarning, match="uncommitted journal tail"):
                    recovered = DeltaLog.load(path, recover=True)
            assert recovered == prefix_log, offset
            # Strict load keeps its documented behaviour: a cut after a
            # complete line loads (trailing deltas read as committed) and
            # a cut inside a line is a malformed line.
            if parses(full[:offset].split(b"\n")[-1]):
                strict = DeltaLog.load(path)
                assert strict.batches()[: len(batches) - 1] == prefix_log.batches()
            else:
                with pytest.raises(ValidationError, match="invalid JSON"):
                    DeltaLog.load(path)
        full_log = DeltaLog.load(tmp_path / "full.jsonl", recover=True)
        assert full_log.n_batches == len(batches)

    def test_recovered_journal_accepts_appends(self, tmp_path):
        batches = committed_batches()
        path = appended_journal(tmp_path / "journal.jsonl", batches)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.warns(RuntimeWarning):
            DeltaLog.load(path, recover=True).save(path)
        DeltaLog.append_batch(path, batches[-1])
        assert DeltaLog.load(path) == DeltaLog.load(
            appended_journal(tmp_path / "clean.jsonl", batches)
        )

    def test_torn_header_recovers_empty(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        DeltaLog.append_batch(path, committed_batches()[0])
        header = path.read_bytes().split(b"\n")[0]
        for offset in range(len(header) + 1):
            path.write_bytes(header[:offset])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert len(DeltaLog.load(path, recover=True)) == 0
            if offset == len(header):
                assert len(DeltaLog.load(path)) == 0
            else:
                with pytest.raises(ValidationError):
                    DeltaLog.load(path)

    def test_corruption_before_a_commit_still_raises(self, tmp_path):
        path = appended_journal(tmp_path / "journal.jsonl", committed_batches())
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"{not json"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValidationError, match="invalid JSON"):
            DeltaLog.load(path, recover=True)

    def test_not_a_journal_still_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "commit"}\n')
        with pytest.raises(ValidationError, match="not a"):
            DeltaLog.load(path, recover=True)
