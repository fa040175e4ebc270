"""Seeded campaign smoke tests: determinism and full detection."""

import pytest

from repro.faults import ALL_KINDS, run_campaign, run_static_campaign


@pytest.mark.parametrize("kernel", ["cnn", "lstm"])
class TestCampaign:
    def test_all_affecting_faults_detected(self, kernel):
        result = run_campaign(kernel, preset="MINI", seed=7, per_kind=2)
        assert len(set(o.spec.kind for o in result.outcomes)) >= 5
        assert result.injected >= 10
        assert result.all_affecting_detected, result.describe()

    def test_campaign_is_deterministic(self, kernel):
        first = run_campaign(kernel, preset="MINI", seed=11, per_kind=1)
        second = run_campaign(kernel, preset="MINI", seed=11, per_kind=1)
        assert [o.spec for o in first.outcomes] == \
            [o.spec for o in second.outcomes]
        assert [(o.affecting, o.detected) for o in first.outcomes] == \
            [(o.affecting, o.detected) for o in second.outcomes]

    def test_describe_reports_every_kind(self, kernel):
        result = run_campaign(kernel, preset="MINI", seed=7, per_kind=1)
        text = result.describe()
        for kind in ALL_KINDS:
            assert kind in text
        assert "total" in text and "OK" in text


class TestEmptyCampaignsRejected:
    """A campaign that injects nothing must not report a pass."""

    @pytest.mark.parametrize("per_kind", [0, -1])
    def test_per_kind_below_one(self, per_kind):
        with pytest.raises(ValueError, match="per_kind"):
            run_campaign("rnn", preset="MINI", per_kind=per_kind)

    def test_empty_kinds(self):
        with pytest.raises(ValueError, match="kinds"):
            run_campaign("rnn", preset="MINI", kinds=())

    @pytest.mark.parametrize("cases", [0, -3])
    def test_static_cases_below_one(self, cases):
        with pytest.raises(ValueError, match="cases"):
            run_static_campaign("rnn", preset="MINI", cases=cases)
