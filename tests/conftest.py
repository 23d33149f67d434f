"""Shared pytest configuration: a derandomized Hypothesis profile, so the
property tests draw the same examples on every run and stay within their
share of the suite's time."""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "tier1",
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("tier1")
