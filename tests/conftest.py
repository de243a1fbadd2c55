import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def system30():
    from mdim.series import series_system

    return series_system(30)


@pytest.fixture(scope="session")
def system30_at_y():
    from mdim.series import series_system

    return series_system(30, at_y=True)


@pytest.fixture(scope="session")
def system45():
    from mdim.series import series_system

    return series_system(45)
