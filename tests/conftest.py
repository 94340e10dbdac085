import sys
from pathlib import Path

import pytest

from mnl import algebra, birep, fock, loops


@pytest.fixture(scope="session")
def m7():
    return algebra.catalog_algebra("m7")


@pytest.fixture(scope="session")
def su2():
    return algebra.catalog_algebra("su2")


@pytest.fixture(scope="session")
def su2_doubled(su2):
    return su2.scaled(2)


@pytest.fixture(scope="session")
def oct_gen():
    return birep.octonion_lr_generators()


@pytest.fixture(scope="session")
def quat_gen():
    return birep.quaternion_lr_generators()


@pytest.fixture(scope="session")
def oct_loop():
    return loops.octonion_unit_loop()


@pytest.fixture(scope="session")
def quat_fields():
    return fock.build_fields(4, 1)


@pytest.fixture(scope="session")
def oct_fields():
    return fock.build_fields(8, 1)


@pytest.fixture(scope="session")
def exact_algebra(tmp_path_factory):
    """The benchmark's exact-algebra inputs for seed 0."""
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from mnlbench import workloads
    return workloads.ExactAlgebra(0, str(tmp_path_factory.mktemp("r10")))


@pytest.fixture(scope="session")
def bench_r10(exact_algebra):
    """The benchmark's r=10 block sum: m7 plus doubled su2, basis signs of seed 0."""
    return exact_algebra.r10


@pytest.fixture(scope="session")
def bench_r10_gen(exact_algebra):
    """Its generators: the octonion plus the quaternion ones, same signs."""
    return exact_algebra.r10_gen
