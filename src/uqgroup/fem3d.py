"""Trilinear finite elements for anisotropic diffusion on the unit cube.

-div(A grad u) = f on [0, 1]^3 with homogeneous Dirichlet boundary and
A = diag(a(x, y), a_y, a_z).  The mesh is a uniform hexahedral grid with m
cells per direction; boundary nodes are eliminated, leaving (m-1)^3 unknowns.
Element integrals use 2x2x2 Gauss quadrature, which is exact for the
trilinear products involved, and the first diffusion coefficient is sampled
at the quadrature points, so lane matrices differ only through a(x, y).

Assembly is ensemble-first: one shared 27-point CSR graph, the element
matrices and a table of the CSR slot of every element's corner pairs are
built once per mesh and reused.  `assemble` then makes one call of the
compiled kernel (`ensemble_assemble` in `_spmv.c`), which forms each lane's
element matrices and adds them into the lanes-last (nnz, S) values the
ensemble SpMV reads.  Every lane is accumulated on its own, in a fixed
order, so a lane's matrix does not depend on its companions or on the width
S, and two identical samples produce bit-identical lane matrices.  The
coefficient is evaluated here only, and each lane's indicator comes with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import _ASSEMBLE, EnsembleCsrMatrix
from .random_field import KLDiffusionField, anisotropy_indicator

__all__ = ["FemError", "StructuredMesh", "AssembledEnsembleSystem", "assemble", "qoi"]

_GAUSS = 1.0 / np.sqrt(3.0)


class FemError(ValueError):
    """Invalid mesh or assembly input."""


def _shape_data() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trilinear shape values and reference gradients at the 8 Gauss points.

    Corner a and quadrature point q are both ordered by bits (x, y, z), z
    fastest; returns (phi (8q, 8a), dphi (3, 8q, 8a), ref coords (8q, 3)).
    """
    corners = np.array([[dx, dy, dz] for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)])
    signs = 2.0 * corners - 1.0  # corner position in reference coords {-1, +1}
    qpts = signs * _GAUSS  # 2x2x2 Gauss points, same bit order
    phi = np.empty((8, 8))
    dphi = np.empty((3, 8, 8))
    for q in range(8):
        xi = qpts[q]
        one = 1.0 + signs * xi  # (8 corners, 3 dims)
        phi[q] = one.prod(axis=1) / 8.0
        for d in range(3):
            rest = one[:, [i for i in range(3) if i != d]].prod(axis=1)
            dphi[d, q] = signs[:, d] * rest / 8.0
    return phi, dphi, qpts


_PHI, _DPHI, _QREF = _shape_data()


@dataclass
class StructuredMesh:
    """Uniform hex mesh of the unit cube with interior-node numbering.

    Degrees of freedom are the interior nodes numbered lexicographically with
    z fastest.  All per-mesh data is precomputed once: element connectivity,
    quadrature coordinates, the shared CSR graph, an int32 (E, 64) table of
    the CSR slot of each element's corner pair (a, b) at column 8 a + b (-1
    where a corner lies on the boundary), the (8, 64) x-direction element
    matrices of the 8 quadrature points, the y and z element matrices summed
    over them, and the unit load vector.  Meshes whose 27-point bound on the
    nonzeros does not fit int32 indices are refused.
    """

    cells: int
    quadrature: str = "gauss2"

    def __post_init__(self) -> None:
        if self.cells < 2:
            raise FemError(f"need at least 2 cells per direction, got {self.cells}")
        if self.quadrature != "gauss2":
            raise FemError(f"unsupported quadrature {self.quadrature!r}")
        m = self.cells
        # A row couples at most 27 dofs; refused before anything is allocated.
        if 27 * (m - 1) ** 3 > np.iinfo(np.int32).max:
            raise FemError(f"{m} cells per direction overflow the int32 indices of the CSR graph")
        self.h = 1.0 / m
        self.n_dofs = (m - 1) ** 3

        # Node ids (z fastest) and the interior-dof map.
        node_ids = np.arange((m + 1) ** 3).reshape(m + 1, m + 1, m + 1)
        dof = -np.ones((m + 1) ** 3, dtype=np.int64)
        interior = node_ids[1:m, 1:m, 1:m].ravel()
        dof[interior] = np.arange(self.n_dofs)

        # Element -> corner-node connectivity, corners bit-ordered like _PHI.
        ex, ey, ez = np.meshgrid(np.arange(m), np.arange(m), np.arange(m), indexing="ij")
        elems = np.stack([ex.ravel(), ey.ravel(), ez.ravel()], axis=1)  # (E, 3)
        corners = np.array([[dx, dy, dz] for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)])
        conn = np.empty((len(elems), 8), dtype=np.int64)
        for a, c in enumerate(corners):
            conn[:, a] = node_ids[elems[:, 0] + c[0], elems[:, 1] + c[1], elems[:, 2] + c[2]]
        self.element_dofs = dof[conn]  # (E, 8), -1 on the boundary

        # Physical quadrature coordinates, flattened (E*8, 3), q fastest per element.
        centers = (elems + 0.5) * self.h  # (E, 3)
        self.quad_points = (centers[:, None, :] + _QREF[None, :, :] * (self.h / 2.0)).reshape(-1, 3)

        # Shared CSR graph: two dofs are coupled when they share an element,
        # i.e. each dof with the interior dofs of its 3x3x3 neighbourhood.
        # Neighbour offsets (dx, dy, dz) in lexicographic order give each
        # row's columns in increasing order.
        n1 = m - 1
        steps = np.array([-1, 0, 1])
        inside = (np.arange(n1)[:, None] + steps >= 0) & (np.arange(n1)[:, None] + steps < n1)
        coupled = (
            inside[:, None, None, :, None, None]
            & inside[None, :, None, None, :, None]
            & inside[None, None, :, None, None, :]
        ).reshape(self.n_dofs, 27)
        shifts = ((steps[:, None, None] * n1 + steps[None, :, None]) * n1 + steps[None, None, :]).ravel()
        self.col_indices = (np.arange(self.n_dofs, dtype=np.int32)[:, None] + shifts.astype(np.int32))[coupled]
        self.nnz = len(self.col_indices)
        self.row_offsets = np.concatenate([[0], np.cumsum(coupled.sum(axis=1))]).astype(np.int32)

        # CSR slot of each element's corner pair (a, b), a-major: the slot of
        # row dof a at the neighbour offset of corner b from corner a.
        slot_of = (np.cumsum(coupled.ravel(), dtype=np.int32) - 1).reshape(self.n_dofs, 27)
        pair_a, pair_b = np.repeat(np.arange(8), 8), np.tile(np.arange(8), 8)
        d = corners[pair_b] - corners[pair_a] + 1  # (64, 3) in {0, 1, 2}
        pair_offset = (d[:, 0] * 3 + d[:, 1]) * 3 + d[:, 2]
        rows, cols = self.element_dofs[:, pair_a], self.element_dofs[:, pair_b]
        pair_slots = np.where((rows >= 0) & (cols >= 0), slot_of[rows, pair_offset], -1)
        self._pair_slots = np.ascontiguousarray(pair_slots, dtype=np.int32)  # the kernel reads it row-major

        # Reference element matrices per direction and quadrature point:
        # grad phi_a . e_d  grad phi_b . e_d  scaled by (2/h)^2 det(J) w_q = h/2.
        elem_mats = _DPHI[:, :, :, None] * _DPHI[:, :, None, :] * (self.h / 2.0)  # (3,8q,8a,8b)
        self._dx = elem_mats[0].reshape(8, 64)
        self._dy_sum = elem_mats[1].sum(axis=0).reshape(64)
        self._dz_sum = elem_mats[2].sum(axis=0).reshape(64)
        # Unit load vector: each element adds int phi_a = h^3 / 8 at its interior corners.
        nodes = self.element_dofs.ravel()
        inner = nodes >= 0
        self._load = np.bincount(
            nodes[inner], weights=np.full(nodes.size, self.h**3 / 8.0)[inner], minlength=self.n_dofs,
        )


@dataclass
class AssembledEnsembleSystem:
    """Shared-graph ensemble stiffness matrix plus per-lane right-hand sides."""

    matrix: EnsembleCsrMatrix
    rhs: np.ndarray  # (S, n_dofs)
    samples: np.ndarray  # (S, N) lane sample values, replicas included
    indicator: np.ndarray  # (S,) each lane's anisotropy_indicator


def assemble(
    mesh: StructuredMesh,
    field: KLDiffusionField,
    samples: np.ndarray,
    mode_vals: np.ndarray | None = None,
) -> AssembledEnsembleSystem:
    """Assemble the width-S ensemble system for the given sample rows.

    `mode_vals` may carry `field.mode_values(mesh.quad_points)` precomputed
    once per (field, mesh) pair; lane matrices depend on their own sample
    only, so duplicated samples yield bit-identical lanes.  A lane's
    `anisotropy_indicator` is formed from its least and greatest value.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    S = len(samples)
    a_vals = field.eval_a_batch(mesh.quad_points, samples, mode_vals)  # (S, E*8)
    # Each lane's least and greatest value, (S, 2).  A NaN reaches the min,
    # and "not all > 0" refuses it along with non-positive coefficients.
    bounds = np.stack([a_vals.min(axis=1), a_vals.max(axis=1)], axis=1)
    if not (np.all(bounds[:, 0] > 0) and field.a_y > 0 and field.a_z > 0):
        raise FemError("non-positive or NaN diffusion coefficient at a quadrature point")
    a_vals = np.ascontiguousarray(a_vals, dtype=np.float64)

    # K_e(lane) = sum_q a(x_q) Dx_q + a_y * sum_q Dy_q + a_z * sum_q Dz_q
    k_yz = field.a_y * mesh._dy_sum + field.a_z * mesh._dz_sum
    values = np.zeros((mesh.nnz, S))
    _ASSEMBLE(
        S, len(mesh.element_dofs), a_vals.ctypes.data, mesh._dx.ctypes.data,
        k_yz.ctypes.data, mesh._pair_slots.ctypes.data, values.ctypes.data,
    )
    matrix = EnsembleCsrMatrix(mesh.row_offsets, mesh.col_indices, values.T)
    rhs = np.tile(mesh._load, (S, 1))
    return AssembledEnsembleSystem(matrix=matrix, rhs=rhs, samples=samples.copy(),
                                   indicator=anisotropy_indicator(field, bounds))


def qoi(u: np.ndarray) -> float:
    """Squared l2 norm of one lane solution's dofs, summed in index order (no BLAS)."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise FemError(f"qoi expects a single lane vector, got shape {u.shape}")
    return float(np.cumsum(u * u)[-1]) if u.size else 0.0
