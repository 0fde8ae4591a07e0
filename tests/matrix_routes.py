"""Matrix forms of the kernel's action and volume element, for any step-two spec.

The kernel integrates the quaternionic case through the radial helpers
_rho_coth and _rho_over_sinh_pow; these forms work from the eigenvalues of
i Omega(tau) instead, so the tests can check the radial helpers against a
route that shares no code with them.
"""

import numpy as np


def _omega_matrix(spec, tau):
    J = spec.J_float()
    return 2.0 * np.einsum("i,iab->ab", np.asarray(tau, dtype=float), J)


def action_function_matrix(spec, tau, x, z):
    """phi(tau, (x, z)) = i <tau, z> + <x, (i Omega) coth(i Omega) x> / 2 for any step-two spec.

    On the quaternionic spec this is i <tau, z> + a(|2 tau|) |x|^2 / 2, the
    action the kernel integrates with _rho_coth.
    """
    x = np.asarray(x, dtype=float)
    om = _omega_matrix(spec, tau)
    herm = 1j * om
    vals, vecs = np.linalg.eigh(herm)
    f = np.where(np.abs(vals) < 1e-12, 1.0, vals / np.tanh(np.where(np.abs(vals) < 1e-12, 1.0, vals)))
    mat = (vecs * f) @ vecs.conj().T
    quad = np.real(np.dot(x, mat @ x))
    return 1j * float(np.dot(np.asarray(tau, dtype=float), z)) + 0.5 * quad


def volume_element_matrix(spec, tau):
    """W(tau) = det^{1/2}(i Omega / sinh(i Omega)) for any step-two spec.

    On the quaternionic spec this is (|2 tau| / sinh |2 tau|)^{2n}, the
    weight the kernel integrates with _rho_over_sinh_pow.
    """
    om = _omega_matrix(spec, tau)
    vals = np.linalg.eigvalsh(1j * om)
    ratio = np.where(np.abs(vals) < 1e-12, 1.0, vals / np.sinh(np.where(np.abs(vals) < 1e-12, 1.0, vals)))
    return float(np.sqrt(np.prod(ratio)))
