"""Spectral geometry of model manifolds and discretized surfaces.

Closed-form Dirac and Laplace spectra of spheres and flat tori, cotangent
Laplace operators with extrinsic curvature fields on triangle meshes, and
an inequality engine that evaluates eigenvalue bounds with margin reports.
"""
