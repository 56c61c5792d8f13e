"""Synthetic event log generator: determinism, structure, validation."""

import io

import pytest

from driftcf.dataset import write_events
from driftcf.synthetic import SyntheticConfig, generate_synthetic


def log_bytes(log) -> bytes:
    buf = io.StringIO()
    write_events(log, buf)
    return buf.getvalue().encode()


SMALL = SyntheticConfig(users=25, items=80, events=700, topics=5, seed=42)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SMALL)
        assert log_bytes(a) == log_bytes(b)

    def test_different_seed_different_log(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SyntheticConfig(
            users=25, items=80, events=700, topics=5, seed=43,
        ))
        assert log_bytes(a) != log_bytes(b)


class TestStructure:
    def test_exact_event_count(self):
        log = generate_synthetic(SMALL)
        assert len(log) == 700

    def test_events_are_distinct_per_user(self):
        log = generate_synthetic(SMALL)
        seen = set()
        for key in zip(log.users.tolist(), log.items.tolist()):
            assert key not in seen
            seen.add(key)

    def test_log_is_time_sorted(self):
        log = generate_synthetic(SMALL)
        times = log.timestamps.tolist()
        assert times == sorted(times)

    def test_every_user_present_with_expected_share(self):
        log = generate_synthetic(SMALL)
        per_user = {}
        for user in log.users.tolist():
            per_user[user] = per_user.get(user, 0) + 1
        assert len(per_user) == len(log.user_ids) == 25
        assert all(count in (28, 29) for count in per_user.values())

    def test_fewer_events_than_users(self):
        # users past the event count get no event, so they are not in the log
        log = generate_synthetic(SyntheticConfig(users=10, items=30, events=4, topics=3))
        assert len(log) == 4
        assert len(log.user_ids) == len(set(log.users.tolist())) == 4

    def test_zero_drift_variant(self):
        config = SMALL.zero_drift()
        assert config.drift_switches == 0
        assert config.session_prob == 0.0
        log = generate_synthetic(config)
        assert len(log) == 700


class TestValidation:
    def test_more_items_per_user_than_catalog_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticConfig(users=2, items=10, events=30))

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticConfig(users=0))
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticConfig(events=0))

    def test_too_many_topics_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticConfig(users=5, items=10, events=20, topics=11))

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticConfig(session_prob=1.2))
        with pytest.raises(ValueError):
            generate_synthetic(
                SyntheticConfig(session_prob=0.7, noise_prob=0.5)
            )

    def test_bad_session_gap_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticConfig(session_gap=(0, 10)))

    @pytest.mark.parametrize("field, value, message", [
        ("session_length", 0, "session_length must be positive"),
        ("drift_switches", -1, "drift_switches must be nonnegative"),
        ("horizon", 0, "horizon must be positive"),
    ])
    def test_bad_scalar_setting_named(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            generate_synthetic(SyntheticConfig(**{field: value}))
