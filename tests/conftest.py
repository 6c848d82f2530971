import math
import random

import numpy as np
import pytest
from hypothesis import settings

from superrep.catalog import load_catalog
from superrep.reps import MatrixRep, validate_rep

# every property draws the same examples on every run, with no time limit per
# example and no example database written to disk
settings.register_profile("superrep", derandomize=True, deadline=None, database=None)
settings.load_profile("superrep")


@pytest.fixture(scope="session")
def workspace():
    return load_catalog()


@pytest.fixture(scope="session")
def hc(workspace):
    return workspace.algebras["hc"]


@pytest.fixture(scope="session")
def hc2(workspace):
    return workspace.algebras["hc2"]


@pytest.fixture(scope="session")
def podd(workspace):
    return workspace.algebras["podd"]


@pytest.fixture(scope="session")
def hcline(workspace):
    return workspace.pairs["hcline"]


@pytest.fixture(scope="session")
def z2odd(workspace):
    return workspace.pairs["z2odd"]


@pytest.fixture(scope="session")
def hc_grid(workspace):
    reps = [workspace.reps[n] for n in workspace.families["hc-grid"]]
    for rep in reps:
        validate_rep(rep).raise_if_failed()
    return reps


@pytest.fixture(scope="session")
def z2_chars(workspace):
    reps = [workspace.reps[n] for n in workspace.families["z2-chars"]]
    for rep in reps:
        validate_rep(rep).raise_if_failed()
    return reps


@pytest.fixture(scope="session")
def reg4(workspace):
    rep = workspace.reps["reg4"]
    validate_rep(rep).raise_if_failed()
    return rep


def make_hc_rep(pair, lam: float) -> MatrixRep:
    """Exact-formula construction of the two-dimensional family member."""
    grading = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    rho_x = np.exp(1j * math.pi / 4) * math.sqrt(lam / 2.0) * sx
    rho_z = 1j * lam * np.eye(2)
    rep = MatrixRep(f"hc-lam-{lam}", pair, grading, (rho_z, rho_x))
    validate_rep(rep).raise_if_failed()
    return rep


@pytest.fixture
def rng():
    return random.Random(20260823)
