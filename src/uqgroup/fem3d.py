"""Trilinear finite elements for anisotropic diffusion on the unit cube.

-div(A grad u) = f on [0, 1]^3 with homogeneous Dirichlet boundary and
A = diag(a(x, y), 1, 1).  The mesh is a uniform hexahedral grid with m
cells per direction; boundary nodes are eliminated, leaving (m-1)^3 unknowns.
Element integrals use 2x2x2 Gauss quadrature, which is exact for the
trilinear products involved, and the first diffusion coefficient is sampled
at the quadrature points, so lane matrices differ only through a(x, y).

Assembly is ensemble-first: one shared 27-point CSR graph, its packed form
(the storage `ensemble.EnsembleCsrMatrix` keeps and the solve reads), the
element matrices and a table of the packed slot of every element's corner
pairs are built once per mesh and reused.  Every stiffness matrix is bitwise
symmetric, so the packed graph follows from the mesh alone: each row's
diagonal and upper entries have consecutive slots, and each lower entry
reads its mirror's, so the values take (nnz + n) / 2 slots.  The mesh builds its
tables from its tensor structure: the 8E quadrature points take only 2m
coordinates per axis, the element dofs are a sliding 2x2x2 window over a
padded node table, and the slots are gathered from a node-by-neighbour slot
table, so no per-element index table is formed.  `assemble` then makes one
call of the compiled kernel (`ensemble_assemble` in `_spmv.c`), which forms
each lane's element matrix on its 36 corner pairs a <= b and adds them
straight into the zeroed (slots, S) packed values.  Every lane is
accumulated on its own, in a fixed order, so a lane's matrix does not depend
on its companions or on the width S, and two identical samples produce
bit-identical lane matrices.  The coefficient is evaluated here only, and
each lane's indicator comes with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._kernels import _ASSEMBLE
from .ensemble import EnsembleCsrMatrix
from .random_field import KLDiffusionField, anisotropy_indicator

__all__ = ["FemError", "StructuredMesh", "AssembledEnsembleSystem", "assemble", "qoi"]

_GAUSS = 1.0 / np.sqrt(3.0)


class FemError(ValueError):
    """Invalid mesh or assembly input."""


def _shape_gradients() -> np.ndarray:
    """Reference gradients of the trilinear shape functions at the 8 Gauss points.

    Corner a and quadrature point q are both ordered by bits (x, y, z), z
    fastest; returns dphi (3, 8q, 8a).
    """
    signs = 2.0 * _CORNERS - 1.0  # corner position in reference coords {-1, +1}
    qpts = signs * _GAUSS  # 2x2x2 Gauss points, same bit order
    dphi = np.empty((3, 8, 8))
    for q in range(8):
        one = 1.0 + signs * qpts[q]  # (8 corners, 3 dims)
        for d in range(3):
            rest = one[:, [i for i in range(3) if i != d]].prod(axis=1)
            dphi[d, q] = signs[:, d] * rest / 8.0
    return dphi


# Corner (dx, dy, dz) in {0, 1}^3 of the reference cell, bit-ordered, z fastest.
_CORNERS = np.array([[dx, dy, dz] for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)])
_DPHI = _shape_gradients()
# The two Gauss points of one axis on the reference interval [-1, 1].
_GAUSS_1D = np.array([-_GAUSS, _GAUSS])
# Corner pair (a, b) with a <= b, a-major, as the 36 columns of the pair-slot
# table; its index 8 a + b into the 64 entries of an element matrix; and
# corner b's neighbour offset from corner a, (dx, dy, dz) + 1 read in base 3,
# which is 13 (the node itself) or above: the pair is a diagonal or upper entry.
_PAIR_A, _PAIR_B = np.triu_indices(8)
_UPPER = 8 * _PAIR_A + _PAIR_B
_PAIR_OFFSET = ((_CORNERS[_PAIR_B] - _CORNERS[_PAIR_A] + 1) * [9, 3, 1]).sum(axis=1)
# The 27 neighbour offsets (dx, dy, dz) in base-3 order; offset o's mirror is 26 - o.
_OFFSETS = np.array([[dx, dy, dz] for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)])


def graph_fits_int32(cells: int) -> bool:
    """Whether int32 indices hold the CSR graph of `cells` cells per direction.

    A row couples at most 27 dofs, so 27 (cells - 1)^3 bounds the nonzeros.
    """
    return 27 * (cells - 1) ** 3 <= np.iinfo(np.int32).max


@dataclass
class StructuredMesh:
    """Uniform hex mesh of the unit cube with interior-node numbering.

    Degrees of freedom are the interior nodes numbered lexicographically with
    z fastest.  All per-mesh data is precomputed once: element connectivity
    (E, 8), the (E*8, 3) quadrature points and `quad_axes`, their three
    per-axis coordinate tables shaped to broadcast to the same points in the
    same order (the form `KLDiffusionField.mode_values` reads), the shared CSR
    graph, its packed form (`split`, `hrow`, `lmap` and the `n_slots` count;
    see `_spmv.c`), an int32 (E, 36) table of the packed slot of each
    element's corner pair a <= b, a-major (-1 where a corner lies on the
    boundary), the (8, 36) x-direction element matrices of those pairs at
    the 8 quadrature points, the sum of the y and z ones over them, and the
    unit load vector.
    Meshes whose 27-point bound on the nonzeros does not fit int32 indices
    are refused.
    """

    cells: int

    def __post_init__(self) -> None:
        if self.cells < 2:
            raise FemError(f"need at least 2 cells per direction, got {self.cells}")
        m = self.cells
        # Refused before anything is allocated.
        if not graph_fits_int32(m):
            raise FemError(f"{m} cells per direction overflow the int32 indices of the CSR graph")
        self.h = 1.0 / m
        self.n_dofs = (m - 1) ** 3
        n1 = m - 1

        # Quadrature coordinates on the tensor grid: cell i of an axis holds
        # the Gauss points (i + 1/2) h -+ g h/2, and one (m, 2) table serves
        # x, y and z.  quad_axes shapes it to broadcast over (element x, y, z,
        # point x, y, z), whose C order is that of the rows of quad_points:
        # element-major, z fastest, the 8 points of an element bit-ordered.
        table = ((np.arange(m) + 0.5) * self.h)[:, None] + _GAUSS_1D * (self.h / 2.0)
        self.quad_axes = (table.reshape(m, 1, 1, 2, 1, 1), table.reshape(1, m, 1, 1, 2, 1),
                          table.reshape(1, 1, m, 1, 1, 2))
        self.quad_points = np.stack(np.broadcast_arrays(*self.quad_axes), axis=-1).reshape(-1, 3)

        # Dof of each node of the (m+1)^3 grid (z fastest), -1 on the
        # boundary.  Element (ex, ey, ez) has corner (dx, dy, dz) at node
        # (ex + dx, ey + dy, ez + dz): a sliding 2x2x2 window, corners
        # bit-ordered like _DPHI.
        node_dof = np.full((m + 1,) * 3, -1, dtype=np.int64)
        node_dof[1:m, 1:m, 1:m] = np.arange(self.n_dofs).reshape(n1, n1, n1)
        self.element_dofs = sliding_window_view(node_dof, (2, 2, 2)).reshape(-1, 8)  # (E, 8), -1 on the boundary

        # Shared CSR graph: two dofs are coupled when they share an element,
        # i.e. each dof with the interior dofs of its 3x3x3 neighbourhood.
        # Neighbour offsets (dx, dy, dz) in lexicographic order give each
        # row's columns in increasing order.
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
        # A row's length is the product of its coupled steps per axis (2 or 3).
        c, ahead = inside.sum(axis=1), inside[:, 2].astype(np.int64)
        counts = (c[:, None, None] * c[None, :, None] * c[None, None, :]).ravel()
        self.row_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)

        # The packed graph (`_spmv.c`): row i's run is its diagonal and upper
        # entries, offsets 13 to 26, on consecutive slots from hrow[i].  Every
        # stiffness matrix is bitwise symmetric, so each lower entry, offset
        # o < 13 of dof i, reads its mirror's slot, offset 26 - o of the
        # neighbour: lmap, in storage order.  The run's offsets are (+1, *, *),
        # (0, +1, *), (0, 0, 0) and (0, 0, +1), counted per axis like `counts`.
        run = (ahead[:, None, None] * c[None, :, None] * c[None, None, :]
               + ahead[None, :, None] * c[None, None, :] + 1 + ahead[None, None, :]).ravel()
        self.split = self.row_offsets[:-1] + (counts - run).astype(np.int32)
        self.hrow = (np.cumsum(run) - run).astype(np.int32)
        self.n_slots = int(run.sum())
        # Slot of each node's 14 upper offsets, -1 where the node or the
        # neighbour lies on the boundary.
        node_slot = np.full((m + 1, m + 1, m + 1, 14), -1, dtype=np.int32)
        node_slot[1:m, 1:m, 1:m][coupled[:, 13:].reshape(n1, n1, n1, 14)] = np.arange(
            self.n_slots, dtype=np.int32)
        mirror = np.empty((n1, n1, n1, 13), dtype=np.int32)
        for o, (dx, dy, dz) in enumerate(_OFFSETS[:13]):
            mirror[..., o] = node_slot[1 + dx:m + dx, 1 + dy:m + dy, 1 + dz:m + dz, 13 - o]
        self.lmap = mirror[mirror >= 0]  # a lower neighbour is coupled when inside
        # Pair (a, b) of element e reads its corner a's node at the offset of
        # corner b: flat index 14 base(e) + 14 node(a) + offset(a, b) - 13,
        # with base(e) the node of corner 0.  One x-slab of elements is
        # gathered at a time through the slab's (m^2, 36) index, so no
        # (E, 36) index is formed.
        corner_node = (_CORNERS[:, 0] * (m + 1) + _CORNERS[:, 1]) * (m + 1) + _CORNERS[:, 2]
        slab_base = np.arange(m)[:, None] * (m + 1) + np.arange(m)  # corner-0 nodes of slab ex = 0
        slab_index = slab_base.reshape(-1, 1) * 14 + (corner_node[_PAIR_A] * 14 + _PAIR_OFFSET - 13)
        flat, stride = node_slot.ravel(), (m + 1) ** 2 * 14
        pair_slots = np.empty((m, m * m, 36), dtype=np.int32)  # the kernel reads it row-major
        for ex in range(m):
            np.take(flat[ex * stride:], slab_index, out=pair_slots[ex])
        self._pair_slots = pair_slots.reshape(-1, 36)

        # Reference element matrices per direction and quadrature point:
        # grad phi_a . e_d  grad phi_b . e_d  scaled by (2/h)^2 det(J) w_q = h/2.
        elem_mats = _DPHI[:, :, :, None] * _DPHI[:, :, None, :] * (self.h / 2.0)  # (3,8q,8a,8b)
        # Only the pairs a <= b are kept: the element matrices are bitwise
        # symmetric (a product of two gradients is the same either way round).
        self._dx = np.ascontiguousarray(elem_mats[0].reshape(8, 64)[:, _UPPER])
        # The y and z coefficients are 1, so their element matrices enter as one sum.
        self._dyz_sum = (elem_mats[1].sum(axis=0) + elem_mats[2].sum(axis=0)).reshape(64)[_UPPER]
        # Unit load vector: each element adds int phi_a = h^3 / 8 at its
        # interior corners, and every interior node is a corner of 8
        # elements; the 8 terms are added in sequence, as a scatter would.
        self._load = np.full(self.n_dofs, np.cumsum(np.full(8, self.h**3 / 8.0))[-1])


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
    mode_vals: np.ndarray,
) -> AssembledEnsembleSystem:
    """Assemble the width-S ensemble system for the given sample rows.

    `mode_vals` is `field.mode_values(mesh.quad_axes)`, computed once per
    (field, mesh) pair; values of another shape, such as another mesh's,
    raise `FieldError`.  Lane
    matrices depend on their own sample only, so duplicated samples yield
    bit-identical lanes.  A lane's `anisotropy_indicator` is formed from its
    least and greatest value.  The matrix is assembled in packed form on the
    mesh's packed graph, which it shares; nothing is packed or copied after.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    S = len(samples)
    a_vals = field.eval_a_batch(mesh.quad_points, samples, mode_vals)  # (S, E*8)
    # Each lane's least and greatest value, (S, 2).  A NaN reaches the min,
    # and "not all > 0" refuses it along with non-positive coefficients.
    bounds = np.stack([a_vals.min(axis=1), a_vals.max(axis=1)], axis=1)
    if not np.all(bounds[:, 0] > 0):
        raise FemError("non-positive or NaN diffusion coefficient at a quadrature point")
    a_vals = np.ascontiguousarray(a_vals, dtype=np.float64)

    # K_e(lane) = sum_q a(x_q) Dx_q + sum_q (Dy_q + Dz_q)
    packed = np.zeros((mesh.n_slots, S))
    _ASSEMBLE(
        S, len(mesh.element_dofs), a_vals.ctypes.data, mesh._dx.ctypes.data,
        mesh._dyz_sum.ctypes.data, mesh._pair_slots.ctypes.data, packed.ctypes.data,
    )
    matrix = EnsembleCsrMatrix.from_packed(mesh.row_offsets, mesh.col_indices, mesh.split,
                                           mesh.hrow, mesh.lmap, packed)
    rhs = np.tile(mesh._load, (S, 1))
    return AssembledEnsembleSystem(matrix=matrix, rhs=rhs, samples=samples.copy(),
                                   indicator=anisotropy_indicator(bounds))


def qoi(u: np.ndarray) -> float:
    """Squared l2 norm of one lane solution's dofs, summed in index order (no BLAS)."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise FemError(f"qoi expects a single lane vector, got shape {u.shape}")
    return float(np.cumsum(u * u)[-1]) if u.size else 0.0
