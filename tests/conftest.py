import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import biotfs as bf


@pytest.fixture(scope="session")
def params():
    return bf.MaterialParams(mu=41.667e9, lam=27.778e9, alpha=1.0, inv_m=0.0)


def _loaded_problem(n, params, t=0.1, tau=0.1):
    """A problem (dofs, system) with the first-step loads f, g of the
    built-in sources."""
    prob = bf.build_problem(n, params)
    f, g = bf.step_loads(prob, t, tau, np.zeros(prob.system.n_u), np.zeros(prob.system.n_p))
    return SimpleNamespace(dofs=prob.dofs, system=prob.system, f=f, g=g)


@pytest.fixture(scope="session")
def problem4(params):
    return _loaded_problem(4, params)


@pytest.fixture(scope="session")
def problem8(params):
    return _loaded_problem(8, params)


@pytest.fixture(scope="session")
def problem16(params):
    return _loaded_problem(16, params)


@pytest.fixture(scope="session")
def dense_eigen8(problem8):
    """Dense Schur pencil eigendata on the n=8 problem."""
    s = bf.dense_schur(problem8.system)
    mp = problem8.system.Mp.toarray()
    w, v = bf.dense_generalized_symmetric_eigen(s, mp)
    return w, v


@pytest.fixture(scope="session")
def dense_eigen4(problem4):
    s = bf.dense_schur(problem4.system)
    mp = problem4.system.Mp.toarray()
    w, v = bf.dense_generalized_symmetric_eigen(s, mp)
    return w, v
