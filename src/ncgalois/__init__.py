"""Finite-dimensional operator-algebra workbench.

Desk-scale computational realizations of: Peter-Weyl analysis of finite
group representations, commutants and block structure of matrix
*-algebras, the correspondence between subgroups and fixed-point
algebras, modular theory of faithful states, crossed products, and
non-commutative martingales from averaged conditional expectations.

Submodules are imported on use, never here: the ``ncgalois`` entry point
must pin BLAS threading before anything loads numpy.
"""

__version__ = "0.1.0"
