"""Triangle-mesh generators used by the tests and the CLI examples.

Icosphere by repeated 1-to-4 subdivision of the icosahedron with projection
to the sphere after every level, ellipsoids by axis scaling, a regular
grid torus of revolution, and seeded random irregular spheres.  Writers
for OFF and OBJ round-trip through the loader in :mod:`specgeom.mesh`.
"""

from __future__ import annotations

import math

import numpy as np


def icosahedron() -> tuple[np.ndarray, np.ndarray]:
    """Unit icosahedron: 12 vertices, 20 consistently oriented faces."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return verts, faces


def subdivide(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One 1-to-4 loop split: new vertex on every edge, orientation kept."""
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    edges_sorted = np.sort(edges, axis=1)
    uniq, inverse = np.unique(edges_sorted, axis=0, return_inverse=True)
    midpoints = 0.5 * (verts[uniq[:, 0]] + verts[uniq[:, 1]])
    mid_index = len(verts) + inverse.reshape(3, -1)
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    ab, bc, ca = mid_index[0], mid_index[1], mid_index[2]
    new_faces = np.concatenate(
        [
            np.stack([a, ab, ca], axis=1),
            np.stack([b, bc, ab], axis=1),
            np.stack([c, ca, bc], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ]
    )
    return np.concatenate([verts, midpoints]), new_faces


def icosphere(level: int, radius: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Geodesic sphere with 10 * 4**level + 2 vertices."""
    verts, faces = icosahedron()
    for _ in range(level):
        verts, faces = subdivide(verts, faces)
        verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    return radius * verts, faces


def ellipsoid(a: float, b: float, c: float, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned ellipsoid obtained by scaling an icosphere."""
    verts, faces = icosphere(level)
    return verts * np.array([a, b, c], dtype=float), faces


def torus_of_revolution(
    big_radius: float, small_radius: float, nu: int, nv: int
) -> tuple[np.ndarray, np.ndarray]:
    """Regular (nu x nv)-grid torus around the z axis, split into triangles."""
    iu = np.arange(nu)
    iv = np.arange(nv)
    u = 2.0 * math.pi * iu / nu
    v = 2.0 * math.pi * iv / nv
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = big_radius + small_radius * np.cos(vv)
    verts = np.stack(
        [ring * np.cos(uu), ring * np.sin(uu), small_radius * np.sin(vv)], axis=-1
    ).reshape(-1, 3)
    idx = (iu[:, None] * nv + iv[None, :])
    right = (np.roll(idx, -1, axis=0))
    down = np.roll(idx, -1, axis=1)
    diag = np.roll(right, -1, axis=1)
    f1 = np.stack([idx, right, diag], axis=-1).reshape(-1, 3)
    f2 = np.stack([idx, diag, down], axis=-1).reshape(-1, 3)
    return verts, np.concatenate([f1, f2]).astype(np.int64)


def random_sphere(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The convex hull of ``n`` random points on the unit sphere, drawn
    uniformly with ``seed``: an irregular closed mesh of ``n`` vertices.

    Each face is oriented outward, by the sign of its normal against its
    centroid.
    """
    # scipy only here: importing this module stays scipy-free
    from scipy.spatial import ConvexHull

    points = np.random.default_rng(seed).standard_normal((n, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    faces = ConvexHull(points).simplices.astype(np.int64)
    a, b, c = (points[faces[:, i]] for i in range(3))
    inward = np.einsum("ij,ij->i", np.cross(b - a, c - a), a + b + c) < 0.0
    faces[inward] = faces[inward][:, ::-1]
    return points, faces


def write_off(path, verts: np.ndarray, faces: np.ndarray) -> None:
    lines = ["OFF", "%d %d 0" % (len(verts), len(faces))]
    lines.extend("%.17g %.17g %.17g" % tuple(p) for p in verts)
    lines.extend("3 %d %d %d" % tuple(f) for f in faces)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_obj(path, verts: np.ndarray, faces: np.ndarray) -> None:
    lines = ["v %.17g %.17g %.17g" % tuple(p) for p in verts]
    lines.extend("f %d %d %d" % (f[0] + 1, f[1] + 1, f[2] + 1) for f in faces)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
