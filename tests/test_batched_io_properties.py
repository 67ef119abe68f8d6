"""Property tests: batched column bucketing, interior fields, interior lookups
and mesh I/O equal the per-face, per-column, per-point and per-line
references of loop_reference.py, bit for bit and byte for byte.

Needs hypothesis (the "test" extra); the examples are drawn by the
derandomized profile that conftest.py loads.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from animrig.geometry import TriMesh, load_mesh, save_mesh  # noqa: E402
from animrig.retarget import (  # noqa: E402
    InteriorField,
    _column_entries,
    _segment_exit_fractions,
    build_interior_field,
)
from loop_reference import (  # noqa: E402
    reference_column_buckets,
    reference_contains,
    reference_exit_fraction,
    reference_interior_field,
    reference_load_mesh,
    reference_save_mesh,
)
from shapes import limb_rig, make_capsule, make_cube, make_grid, make_icosphere  # noqa: E402


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("batched_io")


# --- column bucketing -----------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1), dyadic=st.booleans())
def test_column_buckets_match_per_face_reference(seed, dyadic):
    """Triangles inside, across and outside a small grid, some degenerate; with
    dyadic coordinates many corners sit exactly on column boundaries."""
    rng = np.random.default_rng(seed)
    dims = np.array([1, *rng.integers(1, 7, 2)])
    origin, voxel = rng.uniform(-1.0, 1.0, 3), float(rng.uniform(0.1, 1.0))
    corners = rng.uniform(-2.0, dims + 2.0, (int(rng.integers(0, 30)), 3, 3))
    if dyadic:
        origin, voxel, corners = np.round(origin * 4) / 4, 0.25, np.round(corners * 2) / 2
    point = rng.random(len(corners)) < 0.2
    corners[point, 1:] = corners[point, :1]
    tri2d = (origin + corners * voxel)[:, :, 1:]
    face, column = _column_entries(tri2d, origin, voxel, dims)
    got = {}
    for f, c in zip(face.tolist(), column.tolist()):
        got.setdefault(divmod(c, int(dims[2])), []).append(f)
    assert got == reference_column_buckets(tri2d, origin, voxel, dims)


# --- interior field ----------------------------------------------------------------

SHAPES = {
    "cube": make_cube(),
    "icosphere": make_icosphere(2),
    "capsule": make_capsule(rings=12, sides=8),
    "limb": limb_rig(rings=12, sides=8)[0],
    "grid": make_grid(5, 5),
    # 1 x 1 x 0.5625 box: at resolution 8 its x = 0.5625 faces fall exactly on
    # voxel centers, so a crossing ties with a center
    "slab": TriMesh(make_cube().vertices * [0.5625, 1.0, 1.0], make_cube().faces),
}


def assert_same_field(mesh, resolution):
    """build_interior_field equals the per-column reference bit for bit, or
    both raise the same ValueError."""
    try:
        want = reference_interior_field(mesh, resolution)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            build_interior_field(mesh, resolution)
        assert str(got.value) == str(exc)
        return
    got = build_interior_field(mesh, resolution)
    assert got.interior.shape == want.interior.shape
    assert got.interior.tobytes() == want.interior.tobytes()
    assert got.distance.dtype == want.distance.dtype
    assert got.distance.tobytes() == want.distance.tobytes()
    assert got.origin.tobytes() == want.origin.tobytes()
    assert got.voxel_size == want.voxel_size


# the axis-aligned cube's rays graze its diagonal edges, so columns are recast;
# a flat sheet has no interior
@example(shape="cube", variant="as built", resolution=24, seed=0)
@example(shape="slab", variant="as built", resolution=8, seed=0)
@example(shape="grid", variant="as built", resolution=16, seed=0)
@given(shape=st.sampled_from(sorted(SHAPES)), variant=st.sampled_from(["as built", "moved", "open"]),
       resolution=st.integers(8, 32), seed=st.integers(0, 2**32 - 1))
def test_interior_field_matches_per_column_reference(shape, variant, resolution, seed):
    """Randomly rotated, scaled and shifted copies; open copies lose about a
    tenth of their faces, so some columns cross an odd number of times."""
    rng = np.random.default_rng(seed)
    mesh = SHAPES[shape]
    vertices, faces = mesh.vertices, mesh.faces
    if variant != "as built":
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        vertices = vertices @ rotation.T * rng.uniform(0.2, 5.0) + rng.normal(size=3) * 3.0
    if variant == "open":
        faces = faces[rng.random(len(faces)) > 0.1]
    assert_same_field(TriMesh(vertices, faces), resolution)


# --- interior lookups ----------------------------------------------------------


def field_and_points(seed, dyadic):
    """A random interior grid and points around it: up to two voxels outside
    every face of the grid, about half of their coordinates on voxel faces.

    With a dyadic origin and voxel size, points on voxel faces are exact.
    """
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(1, 6, 3))
    if dyadic:
        origin = rng.integers(-8, 8, 3) * 0.25
        voxel = 0.25 * 2.0 ** int(rng.integers(-2, 3))
    else:
        origin = rng.uniform(-2.0, 2.0, 3)
        voxel = float(rng.uniform(0.05, 1.0))
    field = InteriorField(origin=origin, voxel_size=voxel, interior=rng.random(dims) < 0.5,
                          distance=np.zeros(dims))
    n = int(rng.integers(2, 40))
    grid = rng.uniform(-2.0, np.array(dims) + 2.0, (n, 3))
    on_face = rng.random((n, 3)) < 0.5
    grid[on_face] = np.round(grid[on_face])
    return field, origin + grid * voxel


@given(seed=st.integers(0, 2**32 - 1), dyadic=st.booleans())
def test_contains_matches_per_point_reference(seed, dyadic):
    field, points = field_and_points(seed, dyadic)
    want = [reference_contains(field, p) for p in points]
    batched = field.contains(points)
    assert batched.dtype == bool and batched.shape == (len(points),)
    assert batched.tolist() == want
    single = [field.contains(p) for p in points]
    assert all(type(s) is bool for s in single)
    assert single == want


@given(seed=st.integers(0, 2**32 - 1), dyadic=st.booleans())
def test_exit_fractions_match_per_point_reference(seed, dyadic):
    field, points = field_and_points(seed, dyadic)
    a, ends = points[0], points[1:].copy()
    ends[::3] = a  # zero-length segments get the minimum of two samples
    got = _segment_exit_fractions(field, a, ends)
    want = np.array([reference_exit_fraction(field, a, b) for b in ends])
    assert got.tobytes() == want.tobytes()


# --- OBJ writer ------------------------------------------------------------------

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, -1e300,
                  1.7976931348623157e308, float("inf"), float("-inf"), float("nan"), 1.0 / 3.0,
                  123456789.0, 1e16 + 2.0]
COORDS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL_FLOATS))


@given(rows=st.lists(st.tuples(COORDS, COORDS, COORDS), max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_writer_bytes_match_reference(scratch, rows, seed):
    rng = np.random.default_rng(seed)
    vertices = np.array(rows, dtype=np.float64).reshape(-1, 3)
    n = len(vertices)
    faces = [rng.permutation(n)[:3] for _ in range(int(rng.integers(0, 6)))] if n >= 3 else []
    mesh = TriMesh(vertices, np.array(faces, dtype=np.int64).reshape(-1, 3))
    save_mesh(mesh, scratch / "new.obj")
    reference_save_mesh(mesh, scratch / "old.obj")
    assert (scratch / "new.obj").read_bytes() == (scratch / "old.obj").read_bytes()


# --- OBJ reader ------------------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.9g" % x),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-0.0", "+0", "-0", "1e300", "-1E-300", "1e+308", "4.9e-324",
                     "2.2250738585072014e-308", "Infinity", "-inf", "NaN", "1_000.5", ".5", "5.",
                     "007"]),
)
BAD_NUMBERS = st.sampled_from(["abc", "1.2.3", "--1", "0x10", "1e", "1,5", "v", "f"])
REF_FORMS = st.sampled_from(["{}", "{}/1", "{}/2/3", "{}//4", "+{}", "0{}"])
BAD_REFS = st.sampled_from(["0", "-0", "0/1", "-1", "-3", "x", "/2", "1.5", "7" * 21,
                            str(2**63), str(-2**63)])
SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t "])
OTHER_LINES = st.sampled_from(["", "   ", "# comment v 1 2 3", "vn 0 0 1", "vt 0.5 0.5", "o part",
                               "s off", "usemtl skin", "v", "f"])


@st.composite
def obj_text(draw, lines):
    """Join drawn lines with one drawn line ending, leading whitespace on some."""
    body = [draw(st.sampled_from(["", " ", "\t"])) + line for line in draw(lines)]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(body) + draw(st.sampled_from(["", eol]))


@st.composite
def well_formed_lines(draw):
    """Vertex lines with 3 to 5 columns and triangles over them, in any order."""
    n = draw(st.integers(1, 6))
    lines = [draw(SEPARATORS).join(["v"] + draw(st.lists(NUMBERS, min_size=3, max_size=5)))
             for _ in range(n)]
    if n >= 3:
        for _ in range(draw(st.integers(0, 4))):
            tri = draw(st.permutations(range(1, n + 1)))[:3]
            lines.append(draw(SEPARATORS).join(["f"] + [draw(REF_FORMS).format(i) for i in tri]))
    lines += draw(st.lists(OTHER_LINES, max_size=3))
    return draw(st.permutations(lines))


@st.composite
def any_lines(draw):
    """Lines of every kind, malformed ones included: short or bad vertex
    lines, faces of other arities, zero, negative, huge or unparsable refs."""
    vertex = st.lists(st.one_of(NUMBERS, NUMBERS, BAD_NUMBERS), min_size=0, max_size=5).map(
        lambda cols: " ".join(["v"] + cols))
    face = st.lists(st.one_of(st.integers(1, 6).map(str), BAD_REFS), min_size=0, max_size=5).map(
        lambda refs: " ".join(["f"] + refs))
    return draw(st.lists(st.one_of(vertex, vertex, face, face, OTHER_LINES), max_size=9))


def assert_loads_like_reference(path):
    """Same vertices (bit for bit) and faces, or the same exception and message."""
    try:
        want = reference_load_mesh(path)
    except Exception as exc:  # whatever the reference raises
        with pytest.raises(Exception) as got:
            load_mesh(path)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    mesh = load_mesh(path)
    assert mesh.vertices.tobytes() == want.vertices.tobytes()
    assert mesh.faces.dtype == want.faces.dtype
    assert np.array_equal(mesh.faces, want.faces) and mesh.faces.shape == want.faces.shape


@given(text=obj_text(well_formed_lines()))
def test_reader_matches_reference_on_well_formed_files(scratch, text):
    path = scratch / "well_formed.obj"
    path.write_bytes(text.encode())
    assert_loads_like_reference(path)


@given(text=obj_text(any_lines()))
def test_reader_raises_like_reference(scratch, text):
    path = scratch / "any.obj"
    path.write_bytes(text.encode())
    assert_loads_like_reference(path)


TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"


@pytest.mark.parametrize("content", [
    b"",
    b"# only comments\nvn 0 0 1\n",
    b"v 1 2\n",
    b"v 1 2 abc\n",
    TRIANGLE.encode() + b"f 1 2\n",
    TRIANGLE.encode() + b"f 1 2 3 4\n",
    TRIANGLE.encode() + b"f 1 2 x\n",
    TRIANGLE.encode() + b"f 0 1 2\n",
    TRIANGLE.encode() + b"f 1/2 0/1 3\n",
    TRIANGLE.encode() + b"f /1 2 3\n",
    TRIANGLE.encode() + b"f 1 2 9\n",
    TRIANGLE.encode() + b"f 1 1 2\n",
    TRIANGLE.encode() + b"f -1 2 3\n",
    TRIANGLE.encode() + b"f 1 2 99999999999999999999\n",
    TRIANGLE.encode() + b"f 1 2 9223372036854775808\n",
    TRIANGLE.encode() + b"f 1 2 -9223372036854775808\n",
    TRIANGLE.encode() + b"f 1 2 3 4\nv a b c\n",
    b"v a b c\n" + TRIANGLE.encode() + b"f 1 2 3 4\n",
    TRIANGLE.encode() + b"f 1 2 0\nv 1 2\n",
    TRIANGLE.encode() + b"f 9 2 3\nf 1 2 3 4\n",
    b"v 0 0 0\r\nv 1 0 0\r\n\r\nf 1 2 3 4\r\n",
    TRIANGLE.encode() + b"f 1 2 3\n\xff\n",
], ids=lambda content: repr(content[-24:]))
def test_malformed_file_raises_like_reference(tmp_path, content):
    path = tmp_path / "bad.obj"
    path.write_bytes(content)
    with pytest.raises(Exception):
        reference_load_mesh(path)
    assert_loads_like_reference(path)
