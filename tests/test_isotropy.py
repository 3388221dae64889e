"""The one isotropy rule (``levy._is_isotropic``) seen from every consumer.

The routes that assume the normalized rotationally invariant law refuse any
other law, and the jump quadrature keeps an anisotropic sphere's own atoms.
The anisotropic law here has the isotropic amplitude and a symmetric
256-atom circle of total mass 2 pi, so only its uneven weights
(proportional to 1 + 0.9 cos 2 theta) tell it apart: its exponent reads
-0.693 on e_1 and -0.307 on e_2.
"""

import math

import numpy as np
import pytest

from steinlab import UnsupportedFamilyError
from steinlab.dirichlet import bakry_emery_check, gamma2
from steinlab.jumps import quad_sphere_for
from steinlab.levy import IDLaw, LevyPolar, c_alpha_d, isotropic_stable_law, lk_exponent, stable_k
from steinlab.numerics import gaussian_bump, sphere_from_atoms
from steinlab.sampling import sample_stable_law
from steinlab.stein import semigroup_apply, stein_solve


def uneven_circle_law():
    theta = 2.0 * math.pi * np.arange(256) / 256
    w = 1.0 + 0.9 * np.cos(2.0 * theta)
    sphere = sphere_from_atoms(np.stack([np.cos(theta), np.sin(theta)], axis=1), w * 2.0 * math.pi / w.sum())
    return IDLaw(np.zeros(2), LevyPolar(sphere, stable_k(1.5, c_alpha_d(1.5, 2))), "triplet_b")


def three_atom_law():
    sphere = sphere_from_atoms([[1.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0], [0.0, -1.0]], [1.0, 0.5, 0.7])
    return IDLaw(np.zeros(2), LevyPolar(sphere, stable_k(1.5, c_alpha_d(1.5, 2))), "triplet_b")


def normalized_bump(d):
    tf = gaussian_bump(d, a=1.0)
    return tf.scaled(1.0 / max(tf.m_bounds))


def test_uneven_circle_law_is_anisotropic():
    law = uneven_circle_law()
    assert law.levy.sphere.is_symmetric()
    assert lk_exponent(law, np.array([1.0, 0.0])).real == pytest.approx(-0.6929, abs=1e-4)
    assert lk_exponent(law, np.array([0.0, 1.0])).real == pytest.approx(-0.3071, abs=1e-4)


def test_sampler_refuses_the_anisotropic_law():
    with pytest.raises(UnsupportedFamilyError):
        sample_stable_law(uneven_circle_law(), 1000, seed=1)


def test_semigroup_and_solver_refuse_the_anisotropic_law():
    law, h = uneven_circle_law(), normalized_bump(2)
    for x in ([0.5, 0.0], [0.0, 0.5]):
        with pytest.raises(UnsupportedFamilyError):
            semigroup_apply(law, h, 0.5, x)
    with pytest.raises(UnsupportedFamilyError):
        stein_solve(law, h)


def test_solver_refuses_a_uniform_grid_below_64_atoms():
    with pytest.raises(UnsupportedFamilyError):
        stein_solve(isotropic_stable_law(1.5, 2, n_atoms=32), normalized_bump(2))


def test_quadrature_keeps_an_anisotropic_sphere():
    law = uneven_circle_law()
    assert quad_sphere_for(law, 32) is law.levy.sphere


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quadrature_reduces_a_uniform_sphere(d):
    law = isotropic_stable_law(1.5, d)
    grid = quad_sphere_for(law, 24)
    assert grid.atoms.shape[0] == (2 if d == 1 else 24)
    assert grid.is_symmetric()


@pytest.mark.parametrize(
    "law",
    [isotropic_stable_law(1.5, 1, c=2.0 * c_alpha_d(1.5, 1)), three_atom_law()],
    ids=["d1_double_amplitude", "d2_three_atoms"],
)
def test_gamma2_refuses_all_but_the_recursion(law):
    d = law.dim
    f, x = gaussian_bump(d, a=1.0), np.zeros(d)
    for route in ("integral", "symbol"):
        with pytest.raises(UnsupportedFamilyError):
            gamma2(law, f, x, route)
    with pytest.raises(UnsupportedFamilyError):
        bakry_emery_check(law, [f], x[None, :])
    assert math.isfinite(gamma2(law, f, x, "recursion"))
