import pytest
from hypothesis import settings

from liegeom.recipes import grassmannian_census, grassmannian_model, model_geometry

# property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def h2():
    return model_geometry("hexagon-2")


@pytest.fixture(scope="session")
def h3():
    return model_geometry("hexagon-3")


@pytest.fixture(scope="session")
def w32():
    return model_geometry("w32")


@pytest.fixture(scope="session")
def w52():
    return model_geometry("w52")


@pytest.fixture(scope="session")
def q72():
    return model_geometry("q72")


@pytest.fixture(scope="session")
def gr_w52():
    return model_geometry("gr-w52")


@pytest.fixture(scope="session")
def gr_q72():
    return model_geometry("gr-q72")


@pytest.fixture(scope="session")
def h34():
    return model_geometry("h34")


@pytest.fixture(scope="session")
def gr_model():
    return grassmannian_model()


@pytest.fixture(scope="session")
def gr_census():
    return grassmannian_census()
