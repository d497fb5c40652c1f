"""Shared fixtures: the scalar two-layer workhorse and reference replicas."""

from __future__ import annotations

import numpy as np
import pytest

import koopcascade as kc


@pytest.fixture(scope="session")
def scalar_pair():
    """Scalar layers 0.5 / 0.9 with unit chain coupling; all correction
    quantities are hand-computable (Ctilde = 2.25, D = 2.5)."""
    return kc.CascadeSystem.build(
        [np.array([[0.5]]), np.array([[0.9]])],
        {(2, 1): np.array([[1.0]])},
    )


@pytest.fixture(scope="session")
def scalar_pair_pd(scalar_pair):
    return kc.compute_perturbation(scalar_pair)


def state_gap(x, y) -> float:
    """Composite norm of the layerwise difference of two StateVectors."""
    return kc.composite_norm(a - b for a, b in zip(x, y))


def make_replica(seed: int, layers: int = 7):
    """Reference experiment system: random dims in 2..6, layer norms
    0.9^(layers+1-i), chain couplings uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(2, 7, layers)]
    norms = [0.9 ** (layers + 1 - i) for i in range(1, layers + 1)]
    system = kc.random_chained_cascade(dims, norms, rng)
    return system, rng


def cli_cascade(seed: int, layers: int = 7):
    """The cascade ``koopcascade repro-paper --seed <seed>`` draws."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[0])
    dims = [int(d) for d in rng.integers(2, 7, layers)]
    norms = [0.9 ** (layers + 1 - i) for i in range(1, layers + 1)]
    return kc.random_chained_cascade(dims, norms, rng)


def cli_state(system, seed: int):
    """The initial state ``koopcascade repro-paper --seed <seed>`` draws."""
    return system.random_state(np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[1]))


@pytest.fixture(scope="session")
def general_triple():
    """Scalar layers 0.3 / 0.6 / 0.9 coupled by C21 = C32 = C31 = 1, not a
    chain; P = [[1, 0, 0], [10/3, 1, 0], [65/9, 10/3, 1]] by hand."""
    one = np.array([[1.0]])
    return kc.CascadeSystem.build(
        [np.array([[0.3]]), np.array([[0.6]]), np.array([[0.9]])],
        {(2, 1): one, (3, 2): one, (3, 1): one},
    )


@pytest.fixture(scope="session")
def replica():
    system, rng = make_replica(45)
    x0 = system.random_state(rng)
    return system, kc.compute_perturbation(system), x0
