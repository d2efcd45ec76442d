import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def census7():
    from graphcollapse import CensusConfig, build_census

    return build_census(CensusConfig(max_n=7))


@pytest.fixture(scope="session")
def census8():
    from graphcollapse import CensusConfig, build_census

    return build_census(CensusConfig(max_n=8))
