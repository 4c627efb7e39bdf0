"""Essentially conformally symmetric plane-wave models, with certificates.

Layout: exact quadratic-field arithmetic (`exact`), integer spectral systems
(`spectral`), model data (`model`), solution spaces of the characteristic
second-order ODE (`funcspace`), trace-matching deformations (`deform`), the
discrete holonomy group and its lattice (`quotient`), numeric curvature
checks (`geometry`), and the command line front end (`cli`).  Importing
the package loads none of them; each module imports what it reads.
"""

__version__ = "0.1.0"
