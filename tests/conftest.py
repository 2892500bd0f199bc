"""Shared fixtures for the test suite.

Expensive artifacts (generated seeds, a small fuzzing campaign) are
session-scoped so the many tests that inspect them pay for them only once.
"""

from __future__ import annotations

import os
import sys

import pytest
from hypothesis import settings

from repro.cdsl import analyze, parse_program

# Under CI, run hypothesis derandomized so the tier-1 suite is
# deterministic: the property tests always replay the same example corpus
# instead of exploring fresh random inputs per run.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
from repro.compilers import GccCompiler, LlvmCompiler
from repro.core import CampaignConfig, FuzzingCampaign, UBGenerator
from repro.seedgen import CsmithGenerator, GeneratorConfig

# The reference implementations the tests compare against live beside the
# tests that own them (``tests/optim/reference_pipeline.py``,
# ``tests/compilers/reference_compile.py``); tests elsewhere import them too.
for _directory in ("optim", "compilers"):
    _path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         _directory)
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: The paper's Figure 1 program (the motivating GCC ASan FN bug).
FIGURE1_SOURCE = """\
struct a { int x; };
struct a b[2];
struct a *c = b, *d = b;
int k = 0;
int main() {
  *c = *b;
  k = 2;
  *c = *(d + k);
  return c->x;
}
"""

#: A Figure 3-like program: both UB accesses are dead and optimized away.
FIGURE3_SOURCE = """\
int main() {
  int d[2];
  int *b = d;
  int x = 0;
  x = 3;
  d[x] = 1;
  *(b + x);
  return 0;
}
"""

#: A small, obviously valid program used by many frontend/VM tests.
SIMPLE_SOURCE = """\
int g = 3;
int arr[4] = {1, 2, 3, 4};
int add(int a, int b) { return a + b; }
int main() {
  int total = 0;
  int i = 0;
  for (i = 0; i < 4; i++) {
    total = total + arr[i];
  }
  int *p = &g;
  *p = *p + add(2, 3);
  return total + g;
}
"""


@pytest.fixture(scope="session")
def figure1_source() -> str:
    return FIGURE1_SOURCE


@pytest.fixture(scope="session")
def figure3_source() -> str:
    return FIGURE3_SOURCE


@pytest.fixture(scope="session")
def simple_source() -> str:
    return SIMPLE_SOURCE


@pytest.fixture()
def simple_unit(simple_source):
    unit = parse_program(simple_source)
    analyze(unit)
    return unit


@pytest.fixture(scope="session")
def seed_generator() -> CsmithGenerator:
    return CsmithGenerator(GeneratorConfig(seed=1234))


@pytest.fixture(scope="session")
def sample_seeds(seed_generator):
    """Three validated Csmith-like seed programs."""
    return seed_generator.generate_many(3)


@pytest.fixture(scope="session")
def sample_seed(sample_seeds):
    return sample_seeds[0]


@pytest.fixture(scope="session")
def ub_generator() -> UBGenerator:
    return UBGenerator(seed=99, max_programs_per_type=2)


@pytest.fixture(scope="session")
def sample_ub_programs(ub_generator, sample_seed):
    """UB programs of every type generated from one seed (capped at 2/type)."""
    return ub_generator.generate_all(sample_seed)


@pytest.fixture(scope="session")
def gcc() -> GccCompiler:
    return GccCompiler()


@pytest.fixture(scope="session")
def llvm() -> LlvmCompiler:
    return LlvmCompiler()


@pytest.fixture(scope="session")
def clean_gcc() -> GccCompiler:
    """GCC with an empty defect registry (a "correct" compiler)."""
    return GccCompiler(defect_registry=[])


@pytest.fixture(scope="session")
def clean_llvm() -> LlvmCompiler:
    return LlvmCompiler(defect_registry=[])


@pytest.fixture(scope="session")
def small_campaign():
    """A tiny end-to-end fuzzing campaign shared by the integration tests."""
    config = CampaignConfig(num_seeds=2, rng_seed=5, max_programs_per_type=1,
                            opt_levels=("-O0", "-O2", "-O3"))
    return FuzzingCampaign(config).run()
