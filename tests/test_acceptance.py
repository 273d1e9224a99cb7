"""Acceptance battery, one test per criterion.

Simulation products are shared through a session-scoped laboratory, so the
battery costs one pass over the run set regardless of test order.
"""

import pytest

from gradabs.acceptance import AcceptanceLab

# the battery's long runs are deselected by `pytest -m "not slow"`
pytestmark = pytest.mark.slow


@pytest.fixture(scope="session")
def lab():
    return AcceptanceLab()


def _check(lab, name):
    result = lab.run_criterion(name)
    print(result.line())
    assert result.passed, result.details


def test_criterion_01_exponent_arithmetic(lab):
    _check(lab, "exponents")


def test_criterion_02_barenblatt_fidelity(lab):
    _check(lab, "barenblatt")


def test_criterion_03_pure_diffusion_support_law(lab):
    _check(lab, "pure-diffusion-support")


def test_criterion_04_subcritical_decay(lab):
    _check(lab, "subcritical-decay")


def test_criterion_05_radial_gradient_constant(lab):
    _check(lab, "radial-gradient-constant")


def test_criterion_06_l1_dichotomy(lab):
    _check(lab, "l1-dichotomy")


def test_criterion_07_localization(lab):
    _check(lab, "localization")


def test_criterion_08_intermediate_support_exponent(lab):
    _check(lab, "intermediate-support")


def test_criterion_09_deadcore_persistence(lab):
    _check(lab, "deadcore")


def test_criterion_10_comparison_principle(lab):
    _check(lab, "comparison")


def test_criterion_11_mass_balance(lab):
    _check(lab, "mass-balance")


def test_criterion_12_proof_machinery(lab):
    _check(lab, "bernstein")
