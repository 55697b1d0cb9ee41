"""The N-corrected cost of the mean problem, the reference that the tests
check corrected_gradient and the N-player path costs against.

F_N(m) = |m|^2/2 + p(m) + R_p(m)/N with the reminder
R_p(m) = |grad p(m)|^2/2 + m . grad p(m) - p(m), for points m of shape (..., d).
"""

import numpy as np


def reminder(p, m):
    """R_p(m) = |grad p(m)|^2 / 2 + m . grad p(m) - p(m)."""
    m = np.asarray(m, dtype=float)
    g = p.gradient(m)
    return np.sum(0.5 * g * g, axis=-1) + np.sum(m * g, axis=-1) - p.value(m)


def corrected_cost(p, N, m):
    """F_N(m) = |m|^2/2 + p(m) + R_p(m)/N, whose gradient corrected_gradient is."""
    m = np.asarray(m, dtype=float)
    return np.sum(0.5 * m * m, axis=-1) + p.value(m) + reminder(p, m) / N
