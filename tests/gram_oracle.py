"""Second routes to the pointwise invariants, kept only as a test oracle.

The program computes rho0 and the eigenvalues of the fundamental matrix from
closed forms in the shape pair (a, b), and `identities` proves those forms
exactly.  These routes re-derive the same numbers in floating point from the
full component array h and its Gram tensor G = H^T H (H the C x 4 matrix of
h's slots), which has the nonzero spectrum of the C x C fundamental matrix
H H^T by Sylvester's determinant identity.
"""

import numpy as np


def h_stack(sp) -> np.ndarray:
    """Full component array h[i, j, x, *points] (traceless symmetric);
    h[:, :, x] is the x-th ambient component of the shape operator."""
    out = np.empty((2, 2) + sp.a.shape)
    out[0, 0] = sp.a
    out[0, 1] = out[1, 0] = sp.b
    out[1, 1] = -sp.a
    return out


def gram_tensor(sp) -> np.ndarray:
    """G[i, j, k, l, *points] = <h_ij, h_kl>, one ambient contraction."""
    h = h_stack(sp)
    return np.einsum("ijx...,klx...->ijkl...", h, h)


def gram_residual(sp, gram: np.ndarray) -> np.ndarray:
    """max |G - closed form from the Gram of a, b| entrywise: h_ij =
    slots[i, j] . (a, b), so G = slots g slots^T."""
    w = np.stack([sp.a, sp.b])
    slots = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]])
    g = np.einsum("cx...,dx...->cd...", w, w)
    closed = np.einsum("ijc,cd...,kld->ijkl...", slots, g, slots) - gram
    return np.max(np.abs(closed), axis=(0, 1, 2, 3), initial=0.0)


def commutator_sum(gram: np.ndarray) -> np.ndarray:
    """rho0 as the sum over ambient x, y of |[S_x, S_y]|^2, S_x = h[:, :, x],
    expanded through the trace into the Gram tensor."""
    return 2.0 * (np.einsum("ijim...,jkmk...->...", gram, gram)
                  - np.einsum("ijmk...,jkim...->...", gram, gram))


def gram_eigenvalues(gram: np.ndarray) -> np.ndarray:
    """The 4 x 4 G's eigenvalues, ascending, on a last axis after the points."""
    lead = gram.shape[4:]
    return np.linalg.eigvalsh(np.moveaxis(gram.reshape((4, 4) + lead), (0, 1), (-2, -1)))


def second_route_residuals(sp, inv) -> dict:
    """Each closed form of `inv` against its second route at the points of `sp`:
    rho0 against the commutator sum, lambda1 and lambda2 against the top two
    eigenvalues of G (whose other two vanish), and G against its closed form."""
    gram = gram_tensor(sp)
    lam = gram_eigenvalues(gram)
    return {
        "rho0_commutator_residual": np.abs(inv.rho0 - commutator_sum(gram)),
        "eig_residual": (np.abs(inv.lambda1 - lam[..., -1])
                         + np.abs(inv.lambda2 - lam[..., -2])),
        "eig_tail": np.max(np.abs(lam[..., :2]), axis=-1),
        "gram_residual": gram_residual(sp, gram),
    }
