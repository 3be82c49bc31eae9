"""The compiled ensemble assembly against the einsum + bincount assembly.

`fem3d.assemble` forms every lane's element matrices and scatters them in
one kernel call.  It must reproduce, bit for bit, the numpy assembly it
replaced (`_oracles.einsum_assemble`), whatever the ensemble width, and a
lane's values must not depend on the lanes assembled next to it.
"""

import numpy as np
import pytest

from uqgroup import EnsembleCsrMatrix, FemError, StructuredMesh, assemble, build_field

from _oracles import einsum_assemble

WIDTHS = (1, 2, 3, 4, 5, 16, 17)
CELLS = (2, 3, 5, 8)


# The coefficient at the presets' sigma0, whose log-amplitudes reach +-8,
# and at a small one, where exp stays close to its linearisation 1 + x.
FIELDS = {"log": build_field(sigma0=np.sqrt(300.0), n_modes=4, a_min=0.1),
          "linear": build_field(sigma0=0.1, n_modes=4, a_min=0.1)}


def _bits(a):
    """The bytes of an array in C order: equal bytes mean equal bits, signed zeros included."""
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("regime", sorted(FIELDS))
@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("width", WIDTHS)
def test_assembly_bitwise_equals_einsum_oracle(width, cells, regime):
    field = FIELDS[regime]
    mesh = StructuredMesh(cells)
    samples = np.random.default_rng(1000 * cells + width).uniform(-1.0, 1.0, (width, 4))
    mode_vals = field.mode_values(mesh.quad_axes)
    system = assemble(mesh, field, samples, mode_vals)
    a_vals = field.eval_a_batch(mesh.quad_points, samples, mode_vals)
    row_offsets, col_indices, values, rhs = einsum_assemble(mesh, a_vals)
    assert np.array_equal(system.matrix.row_offsets, row_offsets)
    assert np.array_equal(system.matrix.col_indices, col_indices)
    assert _bits(np.asarray(system.matrix.values).T) == _bits(values)
    assert _bits(system.rhs) == _bits(rhs)


def test_wide_assembly_lanes_equal_their_own_assembly():
    field = FIELDS["log"]
    mesh = StructuredMesh(8)
    samples = np.random.default_rng(16).uniform(-1.0, 1.0, (16, 4))
    mode_vals = field.mode_values(mesh.quad_axes)
    wide = assemble(mesh, field, samples, mode_vals).matrix.values
    for s in range(16):
        alone = assemble(mesh, field, samples[s : s + 1], mode_vals).matrix.values
        assert _bits(wide[s]) == _bits(alone[0])


@pytest.mark.parametrize("cells", [432, 2000])
def test_mesh_beyond_int32_indices_rejected(cells):
    # 27 (cells - 1)^3 nonzeros overflow int32 from 432 cells on; 2000 cells
    # would also overflow the dof count.  Either raises before allocating.
    with pytest.raises(FemError, match="int32"):
        StructuredMesh(cells)


@pytest.mark.parametrize("cells", (4, 6))
@pytest.mark.parametrize("width", (1, 3, 8, 9, 16))
def test_packed_assembly_is_the_pack_of_the_oracle_values(width, cells):
    # The kernel adds only the pairs a <= b into the slots of the mesh's
    # packed graph.  Expanded, every lane is the einsum oracle's; the graph,
    # the slot order and the slots are those `ensemble_pack` builds from the
    # oracle's full values, which finds every lower entry bitwise its mirror.
    field = FIELDS["log"]
    mesh = StructuredMesh(cells)
    samples = np.random.default_rng(100 * cells + width).uniform(-1.0, 1.0, (width, 4))
    mode_vals = field.mode_values(mesh.quad_axes)
    matrix = assemble(mesh, field, samples, mode_vals).matrix
    a_vals = field.eval_a_batch(mesh.quad_points, samples, mode_vals)
    row_offsets, col_indices, values, _ = einsum_assemble(mesh, a_vals)
    for s in range(width):
        assert _bits(matrix.values[s]) == _bits(values[:, s])
    packed = EnsembleCsrMatrix(row_offsets, col_indices, values.T)
    assert len(packed.packed) == (len(col_indices) + mesh.n_dofs) // 2
    for name in ("split", "hrow", "lmap", "packed"):
        got, want = getattr(matrix, name), getattr(packed, name)
        assert got.dtype == want.dtype and _bits(got) == _bits(want), name
