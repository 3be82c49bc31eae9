"""The compiled ensemble assembly against the einsum + bincount assembly.

`fem3d.assemble` forms every lane's element matrices and scatters them in
one kernel call.  It must reproduce, bit for bit, the numpy assembly it
replaced (`_oracles.einsum_assemble`), whatever the ensemble width, and a
lane's values must not depend on the lanes assembled next to it.
"""

import numpy as np
import pytest

from uqgroup import FemError, StructuredMesh, assemble, build_field

from _oracles import einsum_assemble

WIDTHS = (1, 2, 3, 4, 5, 16, 17)
CELLS = (2, 3, 5, 8)


def _field(expansion):
    # a_y and a_z away from 1 so the constant y/z part is exercised; the
    # linear expansion needs a small sigma0 to keep the coefficient positive.
    sigma0 = np.sqrt(300.0) if expansion == "log" else 0.1
    return build_field(delta=0.25, sigma0=sigma0, n_modes=4, a_min=0.1, a_y=0.7, a_z=1.3,
                       sigma0_convention="kernel", expansion=expansion)


FIELDS = {expansion: _field(expansion) for expansion in ("log", "linear")}


def _bits(a):
    """The bytes of an array in C order: equal bytes mean equal bits, signed zeros included."""
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("expansion", sorted(FIELDS))
@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("width", WIDTHS)
def test_assembly_bitwise_equals_einsum_oracle(width, cells, expansion):
    field = FIELDS[expansion]
    mesh = StructuredMesh(cells)
    samples = np.random.default_rng(1000 * cells + width).uniform(-1.0, 1.0, (width, 4))
    system = assemble(mesh, field, samples)
    a_vals = field.eval_a_batch(mesh.quad_points, samples)
    row_offsets, col_indices, values, rhs = einsum_assemble(mesh, a_vals, field.a_y, field.a_z)
    assert np.array_equal(system.matrix.row_offsets, row_offsets)
    assert np.array_equal(system.matrix.col_indices, col_indices)
    assert _bits(system.matrix.values.T) == _bits(values)
    assert _bits(system.rhs) == _bits(rhs)


def test_wide_assembly_lanes_equal_their_own_assembly():
    field = FIELDS["log"]
    mesh = StructuredMesh(8)
    samples = np.random.default_rng(16).uniform(-1.0, 1.0, (16, 4))
    wide = assemble(mesh, field, samples).matrix.values
    for s in range(16):
        alone = assemble(mesh, field, samples[s : s + 1]).matrix.values
        assert _bits(wide[s]) == _bits(alone[0])


@pytest.mark.parametrize("cells", [432, 2000])
def test_mesh_beyond_int32_indices_rejected(cells):
    # 27 (cells - 1)^3 nonzeros overflow int32 from 432 cells on; 2000 cells
    # would also overflow the dof count.  Either raises before allocating.
    with pytest.raises(FemError, match="int32"):
        StructuredMesh(cells)
